"""Path simulation, matrix exponentials, and bundle serialization."""

import pickle
import threading

import numpy as np
import pytest

from oracles import taylor_expm, unblocked_euler
from sparse_ou import (
    DriftMatrix,
    InitialLaw,
    NumericalError,
    PathBundle,
    UnsupportedInputError,
    bundle_to_csv,
    compute_c_infty,
    load_bundle,
    matrix_exponential,
    mix_seed,
    noise_gramian,
    path_stream,
    process,
    save_bundle,
    simulate_euler,
    simulate_exact,
    theory,
    transition_matrix,
)
from sparse_ou.experiments import DriftScheme, generate_drift
from sparse_ou.process import _path_streams, block_rows, path_blocks


def _scalar_drift(rate):
    return DriftMatrix(1, np.array([[rate]]))


class TestGrid:
    def test_standard_grid_has_101_points(self):
        bundle = simulate_euler(_scalar_drift(0.0), InitialLaw(), 3, 1.0, 0.01, seed=0)
        assert bundle.values.shape == (3, 101, 1)
        times = bundle.times()
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(np.diff(times), 0.01)

    def test_horizon_within_the_grid_tolerance_is_simulated(self):
        # 0.9999999999 / 0.01 rounds to 100 steps within the grid rule's
        # relative 1e-9, so the bundle holds the 101-point paths the blocks yield.
        drift = _scalar_drift(-0.5)
        bundle = simulate_euler(drift, InitialLaw(), 3, 0.9999999999, 0.01, seed=6)
        blocks = [block.copy() for _, block in path_blocks(
            "euler", drift, InitialLaw(), 3, 0.9999999999, 0.01, seed=6)]
        assert bundle.grid_len == 101
        assert np.array_equal(bundle.values, np.concatenate(blocks))

    def test_non_divisible_step_rejected(self):
        with pytest.raises(ValueError):
            simulate_euler(_scalar_drift(0.0), InitialLaw(), 2, 1.0, 0.03, seed=0)

    @pytest.mark.parametrize("bad", [0, -2])
    def test_path_count_must_be_positive(self, bad):
        with pytest.raises(ValueError):
            simulate_euler(_scalar_drift(0.0), InitialLaw(), bad, 1.0, 0.01, seed=0)

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            simulate_exact(_scalar_drift(0.0), InitialLaw(), 2, 1.0, -0.01, seed=0)

    def test_dimension_mismatch_rejected(self):
        law = InitialLaw(kind="gaussian", covariance=np.eye(3))
        with pytest.raises(ValueError):
            simulate_euler(_scalar_drift(0.0), law, 2, 1.0, 0.01, seed=0)


class TestMatrixExponential:
    def test_zero_matrix(self):
        assert np.array_equal(matrix_exponential(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        result = matrix_exponential(np.diag([1.0, -2.0, 0.5]))
        expected = np.diag(np.exp([1.0, -2.0, 0.5]))
        assert np.allclose(result, expected, rtol=0, atol=1e-12)

    def test_rotation_block(self):
        theta = 0.7
        result = matrix_exponential(np.array([[0.0, -theta], [theta, 0.0]]))
        expected = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        assert np.allclose(result, expected, atol=1e-12)

    def test_matches_power_series(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = rng.normal(size=(4, 4))
            m /= max(1.0, np.linalg.norm(m, 2))
            got = matrix_exponential(m)
            want = taylor_expm(m)
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    # scipy.linalg.expm is the oracle below; it is imported in the tests only, since the
    # package itself runs on numpy alone. Gaps are relative, in the 1-norm.
    @staticmethod
    def _gap_to_scipy(m):
        from scipy.linalg import expm

        want = expm(m)
        return np.abs(matrix_exponential(m) - want).sum(axis=0).max() / np.abs(want).sum(axis=0).max()

    # 1-norms up to 5 need no squaring, 5 to 50 up to 4 squarings, 100 to 500 take 5 to 7.
    @pytest.mark.parametrize("low, high, bound", [(0.01, 5.0, 1e-12), (5.0, 50.0, 1e-11),
                                                  (100.0, 500.0, 1e-10)],
                             ids=["small_norms", "middle_norms", "large_norms"])
    def test_matches_scipy_on_random_matrices(self, low, high, bound):
        rng = np.random.default_rng(20)
        for _ in range(100):
            dim = int(rng.integers(1, 13))
            m = rng.normal(size=(dim, dim))
            m *= rng.uniform(low, high) / np.abs(m).sum(axis=0).max()
            assert self._gap_to_scipy(m) <= bound

    @pytest.mark.parametrize("dim, eigenvalue, coupling", [(12, -1.0, 1.0), (12, -1.0, 20.0),
                                                           (6, 0.5, 50.0)])
    def test_matches_scipy_on_jordan_like_matrices(self, dim, eigenvalue, coupling):
        m = eigenvalue * np.eye(dim) + np.diag(np.full(dim - 1, coupling), 1)
        assert self._gap_to_scipy(m) <= 1e-13

    def test_matches_scipy_on_the_blocks_the_package_builds(self, monkeypatch):
        # Records every block that the exact transition (Van Loan) and compute_c_infty exponentiate.
        blocks = []

        def recording(m):
            blocks.append(np.array(m))
            return matrix_exponential(m)

        monkeypatch.setattr(process, "matrix_exponential", recording)
        monkeypatch.setattr(theory, "matrix_exponential", recording)
        transition_matrix(generate_drift(25, DriftScheme(), 3), 0.01)
        compute_c_infty(generate_drift(25, DriftScheme(), 3))
        compute_c_infty(generate_drift(8, DriftScheme(), 4), np.eye(8), 5.0)
        assert [len(m) for m in blocks] == [50, 100, 32]
        for m in blocks:
            assert self._gap_to_scipy(m) <= 1e-14

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            matrix_exponential(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        bad = np.array([[0.0, np.inf], [0.0, 0.0]])
        with pytest.raises(ValueError):
            matrix_exponential(bad)


class TestTransitionAndGramian:
    def test_scalar_transition_and_noise_variance(self):
        drift = _scalar_drift(-1.0)
        assert transition_matrix(drift, 0.5)[0, 0] == pytest.approx(
            np.exp(-0.5), abs=1e-12
        )
        expected_var = (1.0 - np.exp(-1.0)) / 2.0
        assert noise_gramian(drift, 0.5)[0, 0] == pytest.approx(expected_var, abs=1e-12)

    def test_zero_drift_gramian_is_scaled_identity(self):
        gram = noise_gramian(DriftMatrix(3, np.zeros((3, 3))), 0.25)
        assert np.allclose(gram, 0.25 * np.eye(3), atol=1e-14)

    def test_antisymmetric_drift_gramian_is_scaled_identity(self):
        entries = np.array(
            [[0.0, 1.3, -0.2], [-1.3, 0.0, 0.7], [0.2, -0.7, 0.0]]
        )
        gram = noise_gramian(DriftMatrix(3, entries), 0.4)
        assert np.allclose(gram, 0.4 * np.eye(3), atol=1e-10)

    def test_gramian_matches_quadrature(self):
        rng = np.random.default_rng(11)
        entries = rng.normal(size=(3, 3))
        drift = DriftMatrix(3, entries)
        duration = 0.3
        # Composite midpoint rule on exp(sA) exp(sA)^T with a fine grid.
        n = 4000
        total = np.zeros((3, 3))
        for k in range(n):
            s = (k + 0.5) * duration / n
            e = matrix_exponential(entries * s)
            total += e @ e.T
        total *= duration / n
        gram = noise_gramian(drift, duration)
        assert np.linalg.norm(gram - total) <= 1e-6 * np.linalg.norm(total)

    def test_gramian_is_symmetric_psd(self):
        rng = np.random.default_rng(3)
        drift = DriftMatrix(4, rng.normal(size=(4, 4)))
        gram = noise_gramian(drift, 0.01)
        assert np.array_equal(gram, gram.T)
        assert np.min(np.linalg.eigvalsh(gram)) >= -1e-12


class TestBrownianAndScalarMoments:
    def test_zero_drift_terminal_variance(self):
        bundle = simulate_euler(
            _scalar_drift(0.0), InitialLaw(), 100_000, 1.0, 0.01, seed=314
        )
        var = float(np.var(bundle.values[:, -1, 0]))
        assert 0.97 <= var <= 1.03

    def test_scalar_ou_terminal_variance(self):
        target = (1.0 - np.exp(-2.0)) / 2.0
        bundle = simulate_euler(
            _scalar_drift(-1.0), InitialLaw(), 100_000, 1.0, 0.01, seed=159
        )
        var = float(np.var(bundle.values[:, -1, 0]))
        assert abs(var - target) <= 0.02

    def test_exact_sampler_matches_transition_covariance(self):
        rng = np.random.default_rng(5)
        entries = rng.normal(size=(2, 2)) * 0.8
        drift = DriftMatrix(2, entries)
        n = 200_000
        bundle = simulate_exact(drift, InitialLaw(), n, 0.01, 0.01, seed=42)
        sample_cov = np.cov(bundle.values[:, 1, :].T)
        target = noise_gramian(drift, 0.01)
        scale = np.sqrt(np.outer(np.diag(target), np.diag(target)))
        bound = 4.0 * np.sqrt(2.0 / n) * scale
        assert np.all(np.abs(sample_cov - target) <= bound)

    def test_gaussian_initial_law_covariance(self):
        cov = np.array([[2.0, 0.5], [0.5, 1.0]])
        law = InitialLaw(kind="gaussian", covariance=cov)
        bundle = simulate_exact(
            DriftMatrix(2, np.zeros((2, 2))), law, 150_000, 0.01, 0.01, seed=8
        )
        sample = np.cov(bundle.values[:, 0, :].T)
        assert np.allclose(sample, cov, atol=0.05)


class TestDeterminism:
    def test_same_seed_bitwise_identical(self):
        drift = _scalar_drift(-0.5)
        a = simulate_euler(drift, InitialLaw(), 50, 1.0, 0.01, seed=99)
        b = simulate_euler(drift, InitialLaw(), 50, 1.0, 0.01, seed=99)
        assert np.array_equal(a.values, b.values)

    def test_different_seeds_differ(self):
        drift = _scalar_drift(-0.5)
        a = simulate_euler(drift, InitialLaw(), 10, 1.0, 0.01, seed=1)
        b = simulate_euler(drift, InitialLaw(), 10, 1.0, 0.01, seed=2)
        assert not np.array_equal(a.values, b.values)

    def test_path_extension_invariance(self):
        # Early paths must not depend on how many paths are requested.
        drift = DriftMatrix(2, np.array([[-1.0, 0.3], [0.0, -0.7]]))
        small = simulate_exact(drift, InitialLaw(), 10, 1.0, 0.01, seed=7)
        large = simulate_exact(drift, InitialLaw(), 25, 1.0, 0.01, seed=7)
        assert np.array_equal(small.values, large.values[:10])

    def test_mix_seed_avalanche(self):
        outputs = {mix_seed(20260815, 2, d, rep) for d in range(5) for rep in range(5)}
        assert len(outputs) == 25
        assert mix_seed(1, 2, 3) == mix_seed(1, 2, 3)
        assert mix_seed(1, 2, 3) != mix_seed(1, 3, 2)

    def test_path_stream_distinct_per_index(self):
        a = path_stream(5, 0).normal(size=4)
        b = path_stream(5, 1).normal(size=4)
        assert not np.array_equal(a, b)


class TestPathBlocks:
    # d = 40 on 21 grid points: 624 paths to a block, and products over few
    # rows would take other BLAS kernels at this dimension.
    DIM = 40
    TERMINAL = 0.2
    STEP = 0.01

    def _drift(self):
        rng = np.random.default_rng(40)
        return DriftMatrix(self.DIM, 0.1 * rng.normal(size=(self.DIM, self.DIM)) - np.eye(self.DIM))

    @pytest.mark.parametrize("seed", [2**63, 2**63 + 12345, 2**64 - 1])
    def test_rekeyed_draws_match_path_stream(self, seed):
        stream = _path_streams(seed)
        for index in (0, 1, 7, 2**40 + 3):
            got = stream(index).standard_normal(17)
            assert np.array_equal(got, path_stream(seed, index).standard_normal(17))
            # The key layout: the 128-bit integer seed * 2**64 + index.
            literal = np.random.Generator(np.random.Philox(key=(seed << 64) | index))
            assert np.array_equal(got, literal.standard_normal(17))

    @pytest.mark.parametrize("sampler", [simulate_euler, simulate_exact])
    @pytest.mark.parametrize("law", ["zero", "gaussian"])
    def test_path_extension_across_blocks(self, sampler, law):
        grid_len = round(self.TERMINAL / self.STEP) + 1
        rows = block_rows(grid_len, self.DIM)
        if law == "zero":
            initial = InitialLaw()
        else:
            initial = InitialLaw(kind="gaussian", covariance=0.5 * np.eye(self.DIM) + 0.1)
        drift = self._drift()
        largest = sampler(drift, initial, 2 * rows + 1, self.TERMINAL, self.STEP, seed=3)
        for n_paths in (rows - 1, rows, rows + 1):
            bundle = sampler(drift, initial, n_paths, self.TERMINAL, self.STEP, seed=3)
            assert np.array_equal(bundle.values, largest.values[:n_paths]), n_paths

    @pytest.mark.parametrize("sampler", [simulate_euler, simulate_exact])
    @pytest.mark.parametrize("dim", [1, 3, 40])
    def test_small_bundles_take_the_block_shape(self, sampler, dim):
        # Bundles below one block are padded to full block rows, so their
        # products round as a large bundle's do.
        rng = np.random.default_rng(dim)
        drift = DriftMatrix(dim, 0.1 * rng.normal(size=(dim, dim)) - np.eye(dim))
        largest = sampler(drift, InitialLaw(), 300, self.TERMINAL, self.STEP, seed=11)
        for n_paths in (1, 2, 3):
            bundle = sampler(drift, InitialLaw(), n_paths, self.TERMINAL, self.STEP, seed=11)
            assert np.array_equal(bundle.values, largest.values[:n_paths]), n_paths

    def test_blocks_yield_each_path_once(self):
        grid_len = round(self.TERMINAL / self.STEP) + 1
        rows = block_rows(grid_len, self.DIM)
        n_paths = 2 * rows + 1
        drift = self._drift()
        blocks = [(start, block.copy()) for start, block in path_blocks(
            "exact", drift, InitialLaw(), n_paths, self.TERMINAL, self.STEP, seed=2)]
        assert [(start, len(block)) for start, block in blocks] == [
            (0, rows), (rows, rows), (2 * rows, 1)]
        bundle = simulate_exact(drift, InitialLaw(), n_paths, self.TERMINAL, self.STEP, seed=2)
        assert np.array_equal(np.concatenate([block for _, block in blocks]), bundle.values)

    def test_block_arguments_checked_before_the_first_block(self):
        drift = self._drift()
        with pytest.raises(ValueError, match="method"):
            path_blocks("heun", drift, InitialLaw(), 3, self.TERMINAL, self.STEP, seed=0)
        with pytest.raises(ValueError, match="n_paths"):
            path_blocks("euler", drift, InitialLaw(), 0, self.TERMINAL, self.STEP, seed=0)

    def test_euler_matches_one_product_over_all_paths(self):
        grid_len = round(self.TERMINAL / self.STEP) + 1
        n_paths = 2 * block_rows(grid_len, self.DIM) + 1
        drift = self._drift()
        bundle = simulate_euler(drift, InitialLaw(), n_paths, self.TERMINAL, self.STEP, seed=5)
        expected = unblocked_euler(drift.entries, n_paths, grid_len, self.STEP, seed=5)
        assert np.array_equal(bundle.values, expected)

    @pytest.mark.parametrize("sampler, rate, n_paths", [
        pytest.param(simulate_euler, 1e6, 5, id="simulate_euler-1000000.0"),
        pytest.param(simulate_exact, 800.0, 5, id="simulate_exact-800.0"),
        # Two blocks: the overflow of the first surfaces while the helper
        # thread draws the second.
        pytest.param(simulate_euler, 1e6, block_rows(101, 2) + 1, id="simulate_euler-1000000.0-blocks"),
        pytest.param(simulate_exact, 800.0, block_rows(101, 2) + 1, id="simulate_exact-800.0-blocks"),
    ])
    def test_exploding_drift_raises(self, sampler, rate, n_paths):
        drift = DriftMatrix(2, rate * np.eye(2))
        threads = threading.active_count()
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                NumericalError, match="non-finite path values"):
            sampler(drift, InitialLaw(), n_paths, 1.0, 0.01, seed=1)
        assert threading.active_count() == threads

    def test_closing_after_the_first_block_joins_the_helper_thread(self):
        grid_len = round(self.TERMINAL / self.STEP) + 1
        threads = threading.active_count()
        blocks = path_blocks("exact", self._drift(), InitialLaw(), 2 * block_rows(grid_len, self.DIM),
                             self.TERMINAL, self.STEP, seed=4)
        next(blocks)
        blocks.close()
        assert threading.active_count() == threads

    def test_consumer_error_joins_the_helper_thread(self):
        grid_len = round(self.TERMINAL / self.STEP) + 1
        threads = threading.active_count()

        def consume():
            for _ in path_blocks("euler", self._drift(), InitialLaw(), 3 * block_rows(grid_len, self.DIM),
                                 self.TERMINAL, self.STEP, seed=4):
                raise KeyError("consumer")

        with pytest.raises(KeyError, match="consumer"):
            consume()
        assert threading.active_count() == threads

    def test_block_steps_are_contiguous(self):
        # The buffer is time-major, so each step of a block, full or last,
        # is one contiguous (rows, dim) array.
        grid_len = round(self.TERMINAL / self.STEP) + 1
        for _, block in path_blocks("euler", self._drift(), InitialLaw(), block_rows(grid_len, self.DIM) + 1,
                                    self.TERMINAL, self.STEP, seed=6):
            assert all(block[:, k].flags.c_contiguous for k in range(grid_len))


class TestSerialization:
    def test_round_trip_bitwise(self, tmp_path):
        drift = DriftMatrix(2, np.array([[-1.0, 0.2], [0.1, -0.5]]))
        bundle = simulate_euler(drift, InitialLaw(), 7, 0.2, 0.01, seed=4)
        target = tmp_path / "paths.bin"
        save_bundle(bundle, target)
        loaded = load_bundle(target)
        assert np.array_equal(loaded.values, bundle.values)
        assert loaded.terminal == bundle.terminal
        assert loaded.step == bundle.step
        assert loaded.seed == bundle.seed

    def test_corrupt_payload_raises_oserror(self, tmp_path):
        bundle = simulate_euler(_scalar_drift(0.0), InitialLaw(), 3, 0.1, 0.01, seed=0)
        target = tmp_path / "paths.bin"
        save_bundle(bundle, target)
        raw = target.read_bytes()
        target.write_bytes(raw[: len(raw) - 16])
        with pytest.raises(OSError):
            load_bundle(target)

    def test_corrupt_header_raises_oserror(self, tmp_path):
        target = tmp_path / "paths.bin"
        target.write_bytes(b"not a header\n\x00\x00")
        with pytest.raises(OSError):
            load_bundle(target)

    def test_csv_export_shape(self, tmp_path):
        bundle = simulate_euler(_scalar_drift(0.0), InitialLaw(), 5, 0.3, 0.01, seed=1)
        target = tmp_path / "paths.csv"
        bundle_to_csv(bundle, target)
        lines = target.read_text().splitlines()
        assert lines[0] == "path,time,x0"
        assert len(lines) == 1 + 5 * 31

    def test_csv_values_parse_back(self, tmp_path):
        drift = DriftMatrix(2, np.array([[-1.0, 0.0], [0.4, -0.2]]))
        bundle = simulate_exact(drift, InitialLaw(), 3, 0.05, 0.01, seed=12)
        target = tmp_path / "paths.csv"
        bundle_to_csv(bundle, target)
        table = np.genfromtxt(target, delimiter=",", skip_header=1)
        values = table[:, 2:].reshape(3, 6, 2)
        assert np.array_equal(values, bundle.values)


class TestDriftSupport:
    def test_support_is_the_nonzero_pattern(self):
        drift = DriftMatrix(3, np.array([[-1.0, 0.0, 0.2], [0.0, -0.5, 0.0], [-0.3, 0.0, 0.0]]))
        assert drift.support == frozenset({(0, 0), (0, 2), (1, 1), (2, 0)})
        assert all(type(i) is int and type(j) is int for i, j in drift.support)

    def test_zero_matrix_has_empty_support(self):
        assert DriftMatrix(2, np.zeros((2, 2))).support == frozenset()

    @pytest.mark.parametrize("cached", [False, True], ids=["fresh", "cached"])
    def test_support_survives_pickling(self, cached):
        drift = DriftMatrix(2, np.array([[-1.0, 0.4], [0.0, -2.0]]))
        if cached:
            drift.support
        copy = pickle.loads(pickle.dumps(drift))
        assert np.array_equal(copy.entries, drift.entries)
        assert copy.support == frozenset({(0, 0), (0, 1), (1, 1)})


class TestValidation:
    def test_initial_law_requires_psd_covariance(self):
        with pytest.raises(ValueError):
            InitialLaw(kind="gaussian", covariance=np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_initial_law_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            InitialLaw(kind="uniform")

    def test_drift_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            DriftMatrix(2, np.zeros((2, 3)))

    def test_bundle_values_read_only(self):
        bundle = simulate_euler(_scalar_drift(0.0), InitialLaw(), 2, 0.1, 0.01, seed=0)
        with pytest.raises(ValueError):
            bundle.values[0, 0, 0] = 1.0

    def test_bundle_shape_must_match_grid(self):
        with pytest.raises(ValueError):
            PathBundle(
                n_paths=2,
                dim=1,
                terminal=1.0,
                step=0.01,
                grid_len=5,
                seed=0,
                values=np.zeros((2, 5, 1)),
            )
