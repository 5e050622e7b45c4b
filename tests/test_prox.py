"""Sorted-l1 machinery: weights, norms, and proximal operators."""

import numpy as np
import pytest

from oracles import (
    brute_prox_sorted_l1,
    minmax_prox_sorted_l1,
    soft_threshold,
    sorted_l1_value,
)
from sparse_ou import (
    WeightVector,
    prox_l1,
    prox_sorted_l1,
    slope_weights,
    sorted_l1_norm,
)


class TestWeights:
    def test_two_entry_values(self):
        w = slope_weights(2).weights
        assert w[0] == pytest.approx(np.sqrt(np.log(4.0)), abs=1e-14)
        assert w[1] == pytest.approx(np.sqrt(np.log(2.0)), abs=1e-14)

    def test_single_entry(self):
        assert slope_weights(1).weights[0] == pytest.approx(np.sqrt(np.log(2.0)))

    def test_nonincreasing_and_positive(self):
        w = slope_weights(225).weights
        assert np.all(w > 0)
        assert np.all(np.diff(w) <= 0)

    def test_weight_vector_rejects_increasing(self):
        with pytest.raises(ValueError):
            WeightVector(np.array([1.0, 2.0]))

    def test_weight_vector_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            WeightVector(np.array([1.0, 0.0]))

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            slope_weights(0)


class TestNorm:
    def test_matches_sorted_inner_product(self):
        rng = np.random.default_rng(0)
        w = slope_weights(6)
        for _ in range(50):
            v = rng.normal(size=6)
            assert sorted_l1_norm(v, w) == pytest.approx(
                sorted_l1_value(v, w.weights), abs=1e-12
            )

    def test_dominates_scaled_l1(self):
        # Smallest weight is sqrt(log 2) > log 2, so the sorted norm always
        # dominates log(2) times the plain l1 norm.
        rng = np.random.default_rng(1)
        for p in (3, 10, 64):
            w = slope_weights(p)
            v = rng.normal(size=p)
            assert sorted_l1_norm(v, w) >= np.log(2.0) * np.sum(np.abs(v)) - 1e-12

    def test_permutation_and_sign_invariant(self):
        rng = np.random.default_rng(2)
        w = slope_weights(5)
        v = rng.normal(size=5)
        shuffled = rng.permutation(v) * rng.choice([-1.0, 1.0], size=5)
        assert sorted_l1_norm(v, w) == pytest.approx(
            sorted_l1_norm(np.abs(shuffled), w), abs=1e-12
        )

    def test_matrix_input_flattens(self):
        w = slope_weights(4)
        m = np.array([[1.0, -2.0], [0.0, 3.0]])
        assert sorted_l1_norm(m, w) == pytest.approx(
            sorted_l1_value(m.ravel(), w.weights), abs=1e-12
        )


class TestProxL1:
    def test_hand_example(self):
        out = prox_l1(np.array([3.0, -1.0, 0.2]), 1.0)
        assert np.array_equal(out, np.array([2.0, 0.0, 0.0]))

    def test_zero_scale_is_identity(self):
        v = np.array([1.0, -2.0, 0.5])
        assert np.array_equal(prox_l1(v, 0.0), v)

    def test_grid_refinement_oracle(self):
        # Each coordinate solves a one-dimensional problem; scan a fine grid
        # around the input and check nothing beats the returned point.
        rng = np.random.default_rng(3)
        v = rng.normal(size=8) * 2
        scale = 0.7
        out = prox_l1(v, scale)
        for i in range(v.size):
            candidates = np.linspace(v[i] - 3, v[i] + 3, 20001)
            objective = 0.5 * (candidates - v[i]) ** 2 + scale * np.abs(candidates)
            best = 0.5 * (out[i] - v[i]) ** 2 + scale * abs(out[i])
            assert best <= objective.min() + 1e-7

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            prox_l1(np.array([1.0]), -0.1)
        with pytest.raises(ValueError):
            prox_l1(np.ones(3), float("nan"))


class TestProxSortedL1:
    def test_zero_scale_is_identity(self):
        v = np.array([1.0, -2.0, 0.5])
        w = slope_weights(3)
        assert np.array_equal(prox_sorted_l1(v, w, 0.0), v)

    def test_hand_example(self):
        out = prox_sorted_l1(
            np.array([3.0, 1.0]), WeightVector(np.array([1.0, 0.5])), 1.0
        )
        assert np.allclose(out, np.array([2.0, 0.5]), atol=1e-12)

    def test_all_below_threshold_maps_to_zero(self):
        w = WeightVector(np.array([2.0, 1.5, 1.0]))
        out = prox_sorted_l1(np.array([0.5, -0.3, 0.1]), w, 1.0)
        assert np.array_equal(out, np.zeros(3))

    def test_constant_weights_reduce_to_soft_threshold(self):
        rng = np.random.default_rng(4)
        w = WeightVector(np.full(7, 0.8))
        for _ in range(25):
            v = rng.normal(size=7) * 3
            out = prox_sorted_l1(v, w, 1.3)
            assert np.allclose(out, soft_threshold(v, 1.3 * 0.8), atol=1e-12)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(5)
        for p in (1, 2, 3, 4, 5, 6):
            w = slope_weights(p)
            for _ in range(60):
                v = rng.normal(size=p) * rng.uniform(0.1, 4.0)
                scale = rng.uniform(0.0, 2.0)
                got = prox_sorted_l1(v, w, scale)
                want, best_value = brute_prox_sorted_l1(v, w.weights, scale)
                assert np.allclose(got, want, atol=1e-8)
                value = 0.5 * float(np.sum((got - v) ** 2))
                value += scale * sorted_l1_value(got, w.weights)
                assert value <= best_value + 1e-10

    def test_ties_and_duplicates(self):
        w = slope_weights(4)
        v = np.array([1.5, -1.5, 1.5, 0.0])
        got = prox_sorted_l1(v, w, 0.4)
        want, _ = brute_prox_sorted_l1(v, w.weights, 0.4)
        assert np.allclose(np.sort(np.abs(got)), np.sort(np.abs(want)), atol=1e-10)
        # Equal inputs must stay equal in magnitude after the prox.
        assert abs(got[0]) == pytest.approx(abs(got[1]), abs=1e-12)
        assert abs(got[0]) == pytest.approx(abs(got[2]), abs=1e-12)

    def test_nonexpansive(self):
        rng = np.random.default_rng(6)
        w = slope_weights(9)
        for _ in range(200):
            u = rng.normal(size=9) * 2
            v = rng.normal(size=9) * 2
            du = prox_sorted_l1(u, w, 0.9)
            dv = prox_sorted_l1(v, w, 0.9)
            assert np.linalg.norm(du - dv) <= np.linalg.norm(u - v) + 1e-12

    def test_sign_and_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        w = slope_weights(6)
        v = rng.normal(size=6)
        base = prox_sorted_l1(v, w, 0.5)
        signs = rng.choice([-1.0, 1.0], size=6)
        assert np.allclose(prox_sorted_l1(v * signs, w, 0.5), base * signs, atol=1e-12)
        perm = rng.permutation(6)
        assert np.allclose(prox_sorted_l1(v[perm], w, 0.5), base[perm], atol=1e-12)

    def test_order_preservation(self):
        rng = np.random.default_rng(8)
        w = slope_weights(10)
        v = rng.normal(size=10) * 3
        out = prox_sorted_l1(v, w, 0.8)
        order = np.argsort(-np.abs(v), kind="stable")
        sorted_out = np.abs(out)[order]
        assert np.all(np.diff(sorted_out) <= 1e-12)

    def test_matrix_shape_preserved(self):
        w = slope_weights(4)
        m = np.array([[3.0, -0.1], [0.2, -2.5]])
        out = prox_sorted_l1(m, w, 0.5)
        assert out.shape == (2, 2)
        flat = prox_sorted_l1(m.ravel(), w, 0.5)
        assert np.array_equal(out.ravel(), flat)

    def test_directional_optimality(self):
        # Random feasible perturbations around the output never lower the
        # proximal objective.
        rng = np.random.default_rng(9)
        w = slope_weights(5)
        v = rng.normal(size=5) * 2
        scale = 0.6
        out = prox_sorted_l1(v, w, scale)
        best = 0.5 * float(np.sum((out - v) ** 2)) + scale * sorted_l1_value(
            out, w.weights
        )
        for _ in range(500):
            probe = out + rng.normal(size=5) * 1e-3
            value = 0.5 * float(np.sum((probe - v) ** 2))
            value += scale * sorted_l1_value(probe, w.weights)
            assert value >= best - 1e-12

    def test_weight_length_mismatch(self):
        with pytest.raises(ValueError):
            prox_sorted_l1(np.array([1.0, 2.0]), slope_weights(3), 0.5)

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            prox_sorted_l1(np.array([1.0]), slope_weights(1), -0.5)


def _large_p_case(kind, p, rng):
    """A ``(vector, weights, scale)`` prox input of one named shape."""
    weights = slope_weights(p)
    if kind == "random":
        return rng.normal(size=p) * 2.0, weights, 0.4
    if kind == "slope":
        # A sparse signal plus small noise, thresholded between the two.
        v = rng.normal(size=p) * 0.05
        support = rng.choice(p, size=max(1, p // 10), replace=False)
        v[support] += rng.normal(size=support.size) * 2.0
        return v, weights, 0.1
    if kind == "below":
        bound = 0.5 * weights.weights[-1]
        return rng.uniform(-0.99, 0.99, size=p) * bound, weights, 0.5
    if kind == "ties":
        return rng.integers(-4, 5, size=p) * 0.5, weights, 0.3
    # "cascade": a decreasing run followed by a rising tail. Each pooling
    # round merges the tail block with one more entry of the run, so the
    # projection takes about one round per entry of the run.
    tail = p // 5
    head = p - tail
    shifted = np.concatenate([-(0.5 / p) * np.arange(head), 0.5 * np.arange(1, tail + 1)])
    weights = WeightVector(np.arange(p, 0, -1.0))
    magnitudes = shifted + weights.weights
    v = rng.permutation(magnitudes * rng.choice([-1.0, 1.0], size=p))
    return v, weights, 1.0


class TestProxSortedL1LargeP:
    @pytest.mark.parametrize("p", [25, 225, 625])
    @pytest.mark.parametrize("kind", ["random", "slope", "below", "ties", "cascade"])
    def test_matches_minmax_oracle(self, kind, p):
        v, weights, scale = _large_p_case(kind, p, np.random.default_rng(p))
        got = prox_sorted_l1(v, weights, scale)
        want = minmax_prox_sorted_l1(v, weights.weights, scale)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * p * np.abs(v).max())
        if kind == "below":
            assert np.array_equal(got, np.zeros(p))
        if kind == "slope":
            assert 0 < np.count_nonzero(got) < p
        if kind == "cascade":
            assert np.unique(np.abs(got)).size == 1

    def test_permuting_tied_entries_is_bit_identical(self):
        rng = np.random.default_rng(11)
        v, weights, scale = _large_p_case("ties", 625, rng)
        base = prox_sorted_l1(v, weights, scale)
        for _ in range(5):
            perm = rng.permutation(v.size)
            assert np.array_equal(prox_sorted_l1(v[perm], weights, scale), base[perm])
        magnitudes = np.abs(v)
        for level in np.unique(magnitudes):
            tied = np.abs(base[magnitudes == level])
            assert np.all(tied == tied[0])

    def test_nan_entries_stay_nan(self):
        # NaN entries come out NaN; the finite ones get the prox of the
        # finite part with the leading weights.
        weights = WeightVector(np.array([1.0, 0.8, 0.5, 0.3, 0.1]))
        got = prox_sorted_l1(np.array([np.nan, 1.0, -0.3, np.nan, 0.02]), weights, 0.1)
        assert np.isnan(got[[0, 3]]).all()
        finite = prox_sorted_l1(np.array([1.0, -0.3, 0.02]), WeightVector(weights.weights[:3]), 0.1)
        np.testing.assert_allclose(got[[1, 2, 4]], finite, rtol=1e-15)
        np.testing.assert_allclose(finite, [0.9, -0.22, 0.0], rtol=1e-15)


def _edge_case(edge, p, rng):
    """A ``(vector, weights, scale)`` prox input with entries on the filter's edge."""
    weights = slope_weights(p)
    scale = 0.4
    cut = scale * weights.weights[-1]
    v = rng.normal(size=p)
    if edge == "at_cut":
        v[: p // 4] = cut
        v[p // 4: p // 2] = -cut
    elif edge == "all_at_cut":
        v = rng.choice([-cut, cut], size=p)
    elif edge == "zeros":
        v[: p // 3] = 0.0
        v[p // 3: p // 2] = -0.0
    elif edge == "scale_zero":
        v[: p // 4] = -0.0
        scale = 0.0
    elif edge == "scale_inf":
        v[: p // 4] = -0.0
        scale = np.inf
    return v, weights, scale


class TestProxMagnitudes:
    """Each prox hands back its output's magnitudes, and the solver takes the
    penalty from them: that must be the penalty of the output, bit for bit."""

    @staticmethod
    def check(v, weights, scale):
        magnitudes = np.full(v.size, np.nan)
        out = prox_sorted_l1(v, weights, scale, magnitudes)
        assert np.array_equal(out, prox_sorted_l1(v, weights, scale))
        assert np.array_equal(magnitudes, np.sort(np.abs(out), axis=None))
        penalty = float(magnitudes[::-1] @ weights.weights)
        assert penalty.hex() == sorted_l1_norm(out, weights).hex()

        threshold = scale * weights.weights[-1]
        magnitudes = np.full(v.shape, np.nan)
        out = prox_l1(v, threshold, magnitudes)
        assert np.array_equal(out, prox_l1(v, threshold))
        assert np.array_equal(magnitudes, np.abs(out))
        assert float(np.sum(magnitudes)).hex() == float(np.sum(np.abs(out))).hex()

    @pytest.mark.parametrize("p", [25, 225, 625, 2500])
    @pytest.mark.parametrize("kind", ["random", "slope", "below", "ties", "cascade"])
    def test_large_p_cases(self, kind, p):
        self.check(*_large_p_case(kind, p, np.random.default_rng(p)))

    @pytest.mark.parametrize("p", [25, 625])
    @pytest.mark.parametrize("edge", ["at_cut", "all_at_cut", "zeros", "scale_zero", "scale_inf"])
    def test_edge_cases(self, edge, p):
        self.check(*_edge_case(edge, p, np.random.default_rng(p)))

    def test_entries_at_the_cut_match_the_oracle(self):
        v, weights, scale = _edge_case("at_cut", 25, np.random.default_rng(3))
        got = prox_sorted_l1(v, weights, scale)
        want = minmax_prox_sorted_l1(v, weights.weights, scale)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * 25 * np.abs(v).max())

    def test_matrix_input(self):
        v, weights, scale = _large_p_case("slope", 225, np.random.default_rng(12))
        self.check(v.reshape(15, 15), weights, scale)

    def test_nan_scale_rejected(self):
        # The filter would drop every entry and return zeros in silence.
        with pytest.raises(ValueError, match="scale must be nonnegative"):
            prox_sorted_l1(np.array([1.0, 2.0]), slope_weights(2), np.nan)
