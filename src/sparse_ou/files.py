"""Every file format of the package, derived from its dataclasses.

``to_plain`` writes a dataclass field by field and ``read_arguments`` reads
a JSON object by the annotated signature of a function or dataclass, so a
dataclass's fields are its file's schema. ``write_json`` writes every JSON
file (sorted keys, ASCII, trailing newline) and ``write_csv`` every CSV
file. The formats: path bundles (a JSON header line, then raw float64
values, in blocks by ``write_bundle`` and ``read_bundle``) and their CSV
export (``write_bundle_csv``); the ``estimate`` JSON, an
``EstimatorResult`` and a ``CvReport``, with the report's scores as CSV
(``report_to_csv``); and the JSON and CSV exports of the study and the
theory checks. The bundle reader raises ``OSError`` on invalid JSON, an
unknown or missing key, a value of the wrong type (no coercion), or an
unexpected ``format``, ``version``, ``dtype`` or ``order``.
"""

import contextlib
import dataclasses
import inspect
import json
import numbers
import os
import typing

import numpy as np

from .process import DriftMatrix, PathBundle, block_rows, collect_bundle

_BUNDLE_HEADER = {"format": "sparse-ou-paths", "version": 1, "dtype": "<f8", "order": "path-major"}
# Longest bundle header line read; a written header is under 200 bytes.
_HEADER_LIMIT = 1 << 16


def to_plain(value):
    """JSON-ready copy: a dataclass maps to a dict by field, a ``DriftMatrix``
    to its square nested list, tuples and arrays to lists."""
    if isinstance(value, DriftMatrix):
        return value.entries.tolist()
    if dataclasses.is_dataclass(value):
        return {field.name: to_plain(getattr(value, field.name))
                for field in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {key: to_plain(item) for key, item in value.items()}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [to_plain(item) for item in value]
    return value


def read_arguments(target, document, name, **readers):
    """Every argument of ``target``, defaults applied, in signature order, read
    from the JSON object ``document``.

    The signature of ``target`` is the schema, and ``name`` labels the
    object in errors. Keys must be parameters of ``target``, and every
    parameter without a default must be present. Each value is read by
    ``read_value`` with its parameter's annotation, or by
    ``readers[parameter]`` where one is given.
    """
    if not isinstance(document, dict):
        raise ValueError("%s must be a JSON object" % (name,))
    parameters = inspect.signature(target).parameters
    unknown = set(document) - set(parameters)
    if unknown:
        raise ValueError("unknown %s fields: %s" % (name, ", ".join(sorted(unknown))))
    missing = [key for key, parameter in parameters.items()
               if key not in document and parameter.default is inspect.Parameter.empty]
    if len(missing) == 1:
        raise ValueError("missing %s field %r" % (name, missing[0]))
    if missing:
        raise ValueError("missing %s fields: %s" % (name, ", ".join(missing)))
    return {key: parameter.default if key not in document
            else readers[key](document[key]) if key in readers
            else read_value(parameter.annotation, document[key], key)
            for key, parameter in parameters.items()}


def from_plain(cls, document, name):
    """Build the dataclass ``cls`` from a JSON object; its fields are the schema."""
    return cls(**read_arguments(cls, document, name))


def read_value(kind, value, key):
    """Read the JSON value named ``key`` as ``kind``.

    ``X | None`` also takes null. A dataclass is read through
    ``from_plain``, a tuple from a JSON array, an array from nested lists
    of numbers, a ``DriftMatrix`` from a square nested list, an int from an
    integral number (``10.0`` is accepted), a float from any number, and a
    bool or a str only from a JSON boolean or string; booleans and strings
    are rejected where a number is expected. Other values pass through.
    """
    if typing.get_args(kind):  # ``X | None``
        if value is None:
            return None
        kind = typing.get_args(kind)[0]
    if kind in (np.ndarray, DriftMatrix):
        try:  # numpy rejects ragged lists with its own ValueError
            entries = np.array(value)
            if entries.dtype.kind not in "iuf":
                raise ValueError
        except ValueError:
            raise ValueError("%s must be an array of numbers, got %r" % (key, value)) from None
        if kind is np.ndarray:
            return entries.astype(float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("%s must be a square matrix" % (key,))
        return DriftMatrix(entries.shape[0], entries)
    if dataclasses.is_dataclass(kind):
        return from_plain(kind, value, key)
    if kind is tuple:
        if not isinstance(value, list):
            raise ValueError("%s must be a JSON array, got %r" % (key, value))
        return tuple(value)
    if kind in (bool, str):
        if not isinstance(value, kind):
            raise ValueError("%s must be a JSON %s, got %r"
                             % (key, "boolean" if kind is bool else "string", value))
        return value
    if kind in (int, float):
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError("%s must be a number, got %r" % (key, value))
        if kind is int and not (isinstance(value, numbers.Integral) or float(value).is_integer()):
            raise ValueError("%s must be an integer, got %r" % (key, value))
        try:
            return kind(value)
        except OverflowError:  # a JSON integer past the float range
            raise ValueError("%s must be a number in the float range" % (key,)) from None
    return value


def _dumps(value):
    return json.dumps(to_plain(value), sort_keys=True) + "\n"


def write_json(value, path):
    """Write ``to_plain(value)`` as JSON: sorted keys, ASCII, one trailing newline."""
    with open(path, "w", encoding="ascii", newline="\n") as handle:
        handle.write(_dumps(value))


def write_csv(path, header, rows):
    """Write the ``header`` names, if any, then ``rows``: strings as given,
    Python numbers by ``repr``."""
    with open(path, "w", encoding="ascii", newline="\n") as handle:
        if header:
            handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(value if isinstance(value, str) else repr(value)
                                  for value in row) + "\n")


def write_bundle(path, header, blocks):
    """Write ``header``, the ``PathBundle`` fields but ``values``, as a JSON line, then the
    paths of ``blocks`` in path order as raw little-endian float64; on failure, no file."""
    handle = open(path, "wb")
    try:
        with handle:
            handle.write(_dumps({**_BUNDLE_HEADER, **header}).encode("ascii"))
            for _, block in blocks:
                for values in block:  # path by path: a block may be a time-major view
                    handle.write(memoryview(np.ascontiguousarray(values, dtype="<f8")).cast("B"))
    except BaseException:
        os.remove(path)
        raise


def save_bundle(bundle, path):
    """Write a ``PathBundle`` with ``write_bundle``, as one block."""
    header = {field.name: getattr(bundle, field.name)
              for field in dataclasses.fields(PathBundle) if field.name != "values"}
    write_bundle(path, header, [(0, bundle.values)])


def _read_header(path, line):
    # The header fields of the JSON line ``line`` and the shape of the paths;
    # every error becomes ``OSError``. ``values`` is no header key: a JSON
    # value there fails ``np.frombuffer``.
    try:
        document = json.loads(line)
        if not isinstance(document, dict):
            raise ValueError("expected a JSON object")
        for key, expected in _BUNDLE_HEADER.items():
            found = document.pop(key, None)
            if (type(found), found) != (type(expected), expected):
                raise ValueError("%s must be %r, got %r" % (key, expected, found))
        header = read_arguments(PathBundle, {"values": b"", **document}, "bundle", values=np.frombuffer)
        shape = header["n_paths"], header["grid_len"], header["dim"]
        PathBundle(**{**header, "values": np.broadcast_to(0.0, shape)})
    except (TypeError, ValueError) as exc:  # decode errors are ValueErrors
        raise OSError("cannot read %s: %s" % (path, exc)) from None
    del header["values"]
    return header, shape


@contextlib.contextmanager
def read_bundle(path):
    """Open a bundle; yield ``(header, blocks)`` as ``write_bundle`` takes them.

    The header line must end within ``_HEADER_LIMIT`` bytes. It is checked by
    ``PathBundle``'s rules on a zero-stride stand-in for the paths, and the
    file size against it, before any path is read. The blocks, of
    ``block_rows`` paths, share one buffer: use each before the next."""
    with open(path, "rb") as handle:
        line = handle.readline(_HEADER_LIMIT)
        if not line.endswith(b"\n"):
            raise OSError("cannot read %s: no header line in its first %d bytes" % (path, _HEADER_LIMIT))
        header, (n_paths, grid_len, dim) = _read_header(path, line)
        size, expected = os.fstat(handle.fileno()).st_size - handle.tell(), 8 * n_paths * grid_len * dim
        if size != expected:
            raise OSError("cannot read %s: %d bytes of paths, expected %d" % (path, size, expected))
        buffer = np.empty((min(block_rows(grid_len, dim), n_paths), grid_len, dim), dtype="<f8")

        def blocks():
            for start in range(0, n_paths, len(buffer)):
                block = buffer[:n_paths - start]
                if handle.readinto(block) != block.nbytes:
                    raise OSError("cannot read %s: the file ended early" % (path,))
                yield start, block

        yield header, blocks()


def load_bundle(path):
    """Read a bundle: ``read_bundle``'s blocks, collected."""
    with read_bundle(path) as streamed:
        return collect_bundle(*streamed)


def write_bundle_csv(path, header, blocks):
    """Write ``blocks``, as ``write_bundle`` takes them, as CSV with one row per (path,
    time) pair: the path index, the time, then the state. Of ``header`` only the
    ``PathBundle`` fields ``dim``, ``grid_len`` and ``step`` are read."""
    times = (np.arange(header["grid_len"]) * header["step"]).tolist()
    rows = ([index, time, *state] for start, block in blocks
            for index, values in enumerate(block, start)
            for time, state in zip(times, values.tolist()))
    write_csv(path, ["path", "time"] + ["x%d" % j for j in range(header["dim"])], rows)


def bundle_to_csv(bundle, path):
    """Export a ``PathBundle`` with ``write_bundle_csv``, as one block."""
    write_bundle_csv(path, vars(bundle), [(0, bundle.values)])


def report_to_csv(report, path):
    """Two columns, ascending lambda: level and validation loss."""
    write_csv(path, ["lambda", "validation_loss"],
              [(float(lam), float(score)) for lam, score in report.scores])
