"""The file formats: exact bytes written, and readers that reject what they cannot read exactly."""

import json
import tracemalloc

import numpy as np
import pytest

from sparse_ou import (
    DriftMatrix,
    InitialLaw,
    SuffStats,
    load_bundle,
    result_from_json,
    result_to_json,
    save_bundle,
    simulate_euler,
    solve_mle,
    stats_from_json,
    stats_to_json,
)
from sparse_ou.cli import main
from sparse_ou.files import read_bundle
from sparse_ou.process import block_rows

STATS_D1 = (
    '{"b_hat": [[-0.1]], "c_hat": [[0.7071067811865476]], "dim": 1, '
    '"format": "sparse-ou-suffstats", "n_paths": 2, "step": 0.5, "terminal": 1.0, "version": 1}\n'
)
BUNDLE_HEADER = (
    b'{"dim": 1, "dtype": "<f8", "format": "sparse-ou-paths", "grid_len": 3, "n_paths": 2, '
    b'"order": "path-major", "seed": 3, "step": 0.01, "terminal": 0.02, "version": 1}\n'
)
# A result file as written before the format was derived from ``EstimatorResult``.
RESULT_WITH_DIM = (
    '{"converged": true, "dim": 1, "estimate": [[-0.5]], "iterations": 0, '
    '"lambda_used": null, "objective_history": [-0.25], "penalty_kind": "none"}\n'
)


def _stats_d1():
    return SuffStats(1, np.array([[0.7071067811865476]]), np.array([[-0.1]]), 2, 1.0, 0.5)


def _bundle_d1():
    return simulate_euler(DriftMatrix(1, np.array([[-1.0]])), InitialLaw(), 2, 0.02, 0.01, seed=3)


class TestWrittenBytes:
    def test_statistics_file(self, tmp_path):
        target = tmp_path / "stats.json"
        stats_to_json(_stats_d1(), target)
        assert target.read_bytes() == STATS_D1.encode("ascii")

    def test_bundle_header_and_payload(self, tmp_path):
        bundle = _bundle_d1()
        target = tmp_path / "paths.bin"
        save_bundle(bundle, target)
        raw = target.read_bytes()
        assert raw[:len(BUNDLE_HEADER)] == BUNDLE_HEADER
        assert raw[len(BUNDLE_HEADER):] == bundle.values.astype("<f8").tobytes()

    def test_result_file_drops_only_dim(self, tmp_path):
        result = solve_mle(SuffStats(1, np.array([[2.0]]), np.array([[-1.0]]), 2, 1.0, 0.5))
        target = tmp_path / "result.json"
        result_to_json(result, target)
        expected = json.loads(RESULT_WITH_DIM)
        del expected["dim"]
        assert target.read_text() == json.dumps(expected, sort_keys=True) + "\n"

    def test_result_with_dim_still_read(self, tmp_path):
        target = tmp_path / "result.json"
        target.write_text(RESULT_WITH_DIM)
        result = result_from_json(target)
        assert result.estimate.dim == 1
        assert result.lambda_used is None
        assert result.converged is True
        target.write_text(RESULT_WITH_DIM.replace('"dim": 1', '"dim": 2'))
        with pytest.raises(OSError, match="dim does not match"):
            result_from_json(target)


def _result_file(path):
    result = solve_mle(SuffStats(1, np.array([[2.0]]), np.array([[-1.0]]), 2, 1.0, 0.5))
    result_to_json(result, path)


def _stats_file(path):
    stats_to_json(_stats_d1(), path)


def _bundle_file(path):
    save_bundle(_bundle_d1(), path)


def _edit_json_file(path, key, value):
    document = json.loads(path.read_text())
    document[key] = value
    path.write_text(json.dumps(document))


def _edit_bundle_header(path, key, value):
    header, payload = path.read_bytes().split(b"\n", 1)
    document = json.loads(header)
    document[key] = value
    path.write_bytes(json.dumps(document).encode("ascii") + b"\n" + payload)


READERS = {
    "result": (_result_file, _edit_json_file, result_from_json),
    "stats": (_stats_file, _edit_json_file, stats_from_json),
    "bundle": (_bundle_file, _edit_bundle_header, load_bundle),
}

STRICT_CASES = [
    ("result", "converged", "false"),
    ("result", "iterations", 2.7),
    ("result", "penalty_kind", 5),
    ("stats", "version", 7),
    ("stats", "n_pahts", 2),
    ("stats", "n_paths", 2.5),
    ("stats", "dim", True),
    ("bundle", "dtype", ">f4"),
    ("bundle", "order", "time-major"),
    ("bundle", "version", 9),
    ("bundle", "n_pahts", 2),
    ("bundle", "seed", 1.9),
    # grid_len 3 no longer matches terminal / step, though the payload size still does.
    ("bundle", "step", 0.02),
]
BUNDLE_CASES = [case for case in STRICT_CASES if case[0] == "bundle"]


def _case_id(case):
    return "%s-%s=%r" % case


@pytest.mark.parametrize("reader, key, value", STRICT_CASES, ids=map(_case_id, STRICT_CASES))
def test_reader_rejects_what_it_cannot_read_exactly(tmp_path, reader, key, value):
    write, edit, read = READERS[reader]
    target = tmp_path / "file"
    write(target)
    read(target)  # the unedited file reads
    edit(target, key, value)
    with pytest.raises(OSError):
        read(target)


@pytest.mark.parametrize("reader, key, value", BUNDLE_CASES, ids=map(_case_id, BUNDLE_CASES))
def test_estimate_exits_3_on_a_bundle_it_cannot_read(tmp_path, capsys, reader, key, value):
    target = tmp_path / "paths.bin"
    _bundle_file(target)
    _edit_bundle_header(target, key, value)
    out = str(tmp_path / "fit.json")
    assert main(["estimate", "--bundle", str(target), "--method", "mle", "--out", out]) == 3
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("edit", [lambda raw: raw[:-8], lambda raw: raw + bytes(8)],
                         ids=["truncated", "eight_extra_bytes"])
def test_payload_size_must_match_the_header(tmp_path, capsys, edit):
    target = tmp_path / "paths.bin"
    _bundle_file(target)
    target.write_bytes(edit(target.read_bytes()))
    with pytest.raises(OSError, match="bytes of paths, expected 48"):
        load_bundle(target)
    out = tmp_path / "fit.json"
    assert main(["estimate", "--bundle", str(target), "--method", "mle", "--out", str(out)]) == 3
    assert "cannot read" in capsys.readouterr().err
    assert not out.exists()


def test_header_read_is_bounded(tmp_path, capsys):
    # 16 MB with no newline: the reader gives up after its header limit, not at the end of the file.
    target = tmp_path / "paths.bin"
    target.write_bytes(b"{" * (16 << 20))
    out = tmp_path / "fit.json"
    tracemalloc.start()
    try:
        rc = main(["estimate", "--bundle", str(target), "--method", "mle", "--out", str(out)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 3
    assert "no header line in its first 65536 bytes" in capsys.readouterr().err
    assert peak < 1 << 20
    assert not out.exists()


class TestBlocks:
    # d = 2 on 2,049 grid points: a block is the fewest rows, 128 paths.
    DRIFT = DriftMatrix(2, np.array([[-1.0, 0.3], [0.0, -0.5]]))

    @pytest.mark.parametrize("n_paths", [127, 128, 129],
                             ids=["below_one_block", "one_block", "one_block_plus_one"])
    def test_bytes_round_trip(self, tmp_path, n_paths):
        assert block_rows(2049, 2) == 128
        bundle = simulate_euler(self.DRIFT, InitialLaw(), n_paths, 20.48, 0.01, seed=5)
        saved = tmp_path / "saved.bin"
        save_bundle(bundle, saved)
        with read_bundle(saved) as (header, blocks):
            starts = [start for start, _ in blocks]
        assert header["n_paths"] == n_paths
        assert starts == list(range(0, n_paths, 128))
        again = tmp_path / "again.bin"
        save_bundle(load_bundle(saved), again)
        assert again.read_bytes() == saved.read_bytes()
        config = tmp_path / "sim.json"
        config.write_text(json.dumps({"drift": {"matrix": self.DRIFT.entries.tolist()},
                                      "n_paths": n_paths, "terminal": 20.48, "step": 0.01,
                                      "seed": 5}))
        simulated = tmp_path / "simulated.bin"
        assert main(["simulate", "--config", str(config), "--out", str(simulated)]) == 0
        assert simulated.read_bytes() == saved.read_bytes()
