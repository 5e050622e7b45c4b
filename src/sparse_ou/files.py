"""Every file format of the package, derived from its dataclasses.

``to_plain`` writes a dataclass field by field and ``read_arguments`` reads
a JSON object by the annotated signature of a function or dataclass, so a
dataclass's fields are its file's schema. ``write_json`` writes every JSON
file (sorted keys, ASCII, trailing newline). Every reader raises ``OSError``
on invalid JSON, an unknown or missing key, a value of the wrong type (no
coercion), or an unexpected ``format``, ``version``, ``dtype`` or ``order``.
The formats: path bundles (a JSON header line, then raw float64 values),
``SuffStats`` statistics, ``EstimatorResult`` results and ``CvReport``
hold-out reports.
"""

import dataclasses
import inspect
import json
import numbers
import typing

import numpy as np

from .process import DriftMatrix, PathBundle
from .solvers import EstimatorResult
from .suffstats import SuffStats

_BUNDLE_HEADER = {"format": "sparse-ou-paths", "version": 1, "dtype": "<f8", "order": "path-major"}
_STATS_HEADER = {"format": "sparse-ou-suffstats", "version": 1}


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
    """Keyword arguments for ``target`` read from the JSON object ``document``.

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
    return {key: readers[key](value) if key in readers
            else read_value(parameters[key].annotation, value, key)
            for key, value in document.items()}


def from_plain(cls, document, name):
    """Build the dataclass ``cls`` from a JSON object; its fields are the schema."""
    return cls(**read_arguments(cls, document, name))


def read_value(kind, value, key):
    """Read the JSON value named ``key`` as ``kind``.

    ``X | None`` also takes null. A dataclass is read through
    ``from_plain``, a tuple from a JSON array, a list from an array of
    numbers, an array from nested lists of numbers, a
    ``DriftMatrix`` from a square nested list, an int from an integral
    number (``10.0`` is accepted), a float from any number, and a bool or a
    str only from a JSON boolean or string; booleans and strings are
    rejected where a number is expected. Other values pass through.
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
    if kind in (tuple, list):
        if not isinstance(value, list):
            raise ValueError("%s must be a JSON array, got %r" % (key, value))
        return tuple(value) if kind is tuple else [read_value(float, item, key) for item in value]
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
        return kind(value)
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


def _decode(path, text, header, build):
    # ``build(document)`` of the JSON object ``text`` once the keys of
    # ``header`` are checked and removed; every error becomes ``OSError``.
    try:
        document = json.loads(text)
        if not isinstance(document, dict):
            raise ValueError("expected a JSON object")
        for key, expected in header.items():
            found = document.pop(key, None)
            if (type(found), found) != (type(expected), expected):
                raise ValueError("%s must be %r, got %r" % (key, expected, found))
        return build(document)
    except (TypeError, ValueError) as exc:  # decode errors are ValueErrors
        raise OSError("cannot read %s: %s" % (path, exc)) from None


def save_bundle(bundle, path):
    """Write a bundle: a JSON header line, then its values as raw little-endian float64."""
    header = {field.name: getattr(bundle, field.name)
              for field in dataclasses.fields(PathBundle) if field.name != "values"}
    with open(path, "wb") as handle:
        handle.write(_dumps({**_BUNDLE_HEADER, **header}).encode("ascii"))
        handle.write(memoryview(np.ascontiguousarray(bundle.values, dtype="<f8")).cast("B"))


def load_bundle(path):
    """Read a bundle written by ``save_bundle``."""
    with open(path, "rb") as handle:
        header = handle.readline()
        payload = handle.read()

    def build(document):
        # A ``values`` key in the header reaches the reader as a JSON value and fails there.
        fields = read_arguments(PathBundle, {"values": payload, **document}, "bundle",
                                values=lambda raw: np.frombuffer(raw, dtype="<f8"))
        # On a little-endian host the array is a view of ``payload``, not a copy.
        fields["values"] = fields["values"].astype(float, copy=False).reshape(
            fields["n_paths"], fields["grid_len"], fields["dim"])
        return PathBundle(**fields)

    return _decode(path, header, _BUNDLE_HEADER, build)


def bundle_to_csv(bundle, path):
    """Export a bundle as CSV with one row per (path, time) pair."""
    times = bundle.times().tolist()
    write_csv(path, ["path", "time"] + ["x%d" % j for j in range(bundle.dim)],
              ([i, times[k], *bundle.values[i, k].tolist()]
               for i in range(bundle.n_paths) for k in range(bundle.grid_len)))


def stats_to_json(stats, path):
    """Write statistics as JSON with round-trip exact float encoding."""
    write_json({**_STATS_HEADER, **to_plain(stats)}, path)


def stats_from_json(path):
    """Read statistics written by ``stats_to_json``."""
    with open(path, "rb") as handle:
        return _decode(path, handle.read(), _STATS_HEADER,
                       lambda document: from_plain(SuffStats, document, "statistics"))


# A result and a hold-out report are written field by field.
result_to_json = report_to_json = write_json


def _read_result(document):
    # Older files also hold ``dim``, the number of rows of ``estimate``.
    dim = document.pop("dim", None)
    if dim is not None and read_value(int, dim, "dim") != len(document.get("estimate", [])):
        raise ValueError("dim does not match the estimate")
    return from_plain(EstimatorResult, document, "result")


def result_from_json(path):
    """Read a result written by ``result_to_json``."""
    with open(path, "rb") as handle:
        return _decode(path, handle.read(), {}, _read_result)


def report_to_csv(report, path):
    """Two columns, ascending lambda: level and validation loss."""
    write_csv(path, ["lambda", "validation_loss"],
              [(float(lam), float(score)) for lam, score in report.scores])
