"""The file formats: exact bytes written, and readers that reject what they cannot read exactly."""

import json
import tracemalloc

import numpy as np
import pytest

from sparse_ou import DriftMatrix, InitialLaw, PathBundle, load_bundle, save_bundle, simulate_euler
from sparse_ou.cli import main
from sparse_ou.files import read_bundle, read_value
from sparse_ou.process import block_rows

BUNDLE_HEADER = (
    b'{"dim": 1, "dtype": "<f8", "format": "sparse-ou-paths", "grid_len": 3, "n_paths": 2, '
    b'"order": "path-major", "seed": 3, "step": 0.01, "terminal": 0.02, "version": 1}\n'
)
# ``estimate --method mle`` on two paths 1, 1, 0 at step 0.5: c_hat = 1 and
# b_hat = -1, so the estimate is -1 at objective 0.5 - 1. The result object is
# the ``EstimatorResult`` fields: a result file as first written, less ``dim``.
MLE_ESTIMATE = (
    b'{"cv_report": null, "estimator_result": {"converged": true, "estimate": [[-1.0]], '
    b'"iterations": 0, "lambda_used": null, "objective_history": [-0.5], "penalty_kind": "none"}}\n'
)


def _bundle_d1():
    return simulate_euler(DriftMatrix(1, np.array([[-1.0]])), InitialLaw(), 2, 0.02, 0.01, seed=3)


class TestWrittenBytes:
    def test_bundle_header_and_payload(self, tmp_path):
        bundle = _bundle_d1()
        target = tmp_path / "paths.bin"
        save_bundle(bundle, target)
        raw = target.read_bytes()
        assert raw[:len(BUNDLE_HEADER)] == BUNDLE_HEADER
        assert raw[len(BUNDLE_HEADER):] == bundle.values.astype("<f8").tobytes()

    def test_result_file_drops_only_dim(self, tmp_path):
        bundle = tmp_path / "paths.bin"
        values = np.array([1.0, 1.0, 0.0] * 2).reshape(2, 3, 1)
        save_bundle(PathBundle(2, 1, 1.0, 0.5, 3, 0, values), bundle)
        target = tmp_path / "result.json"
        assert main(["estimate", "--bundle", str(bundle), "--method", "mle", "--out", str(target)]) == 0
        assert target.read_bytes() == MLE_ESTIMATE


def _bundle_file(path):
    save_bundle(_bundle_d1(), path)


def _edit_bundle_header(path, key, value):
    header, payload = path.read_bytes().split(b"\n", 1)
    document = json.loads(header)
    document[key] = value
    path.write_bytes(json.dumps(document).encode("ascii") + b"\n" + payload)


BUNDLE_CASES = [
    ("dtype", ">f4"),
    ("order", "time-major"),
    ("version", 9),
    ("n_pahts", 2),
    ("seed", 1.9),
    # grid_len 3 no longer matches terminal / step, though the payload size still does.
    ("step", 0.02),
]
BUNDLE_IDS = ["bundle-%s=%r" % case for case in BUNDLE_CASES]


@pytest.mark.parametrize("key, value", BUNDLE_CASES, ids=BUNDLE_IDS)
def test_reader_rejects_what_it_cannot_read_exactly(tmp_path, key, value):
    target = tmp_path / "file"
    _bundle_file(target)
    load_bundle(target)  # the unedited file reads
    _edit_bundle_header(target, key, value)
    with pytest.raises(OSError):
        load_bundle(target)


def test_a_bool_is_read_only_from_a_json_boolean():
    assert read_value(bool, False, "converged") is False
    with pytest.raises(ValueError, match="converged must be a JSON boolean"):
        read_value(bool, "false", "converged")


def test_a_str_is_read_only_from_a_json_string():
    assert read_value(str, "none", "penalty_kind") == "none"
    with pytest.raises(ValueError, match="penalty_kind must be a JSON string"):
        read_value(str, 5, "penalty_kind")


@pytest.mark.parametrize("key, value", BUNDLE_CASES, ids=BUNDLE_IDS)
def test_estimate_exits_3_on_a_bundle_it_cannot_read(tmp_path, capsys, key, value):
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
