import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointspace import autodiff as ad
from jointspace.autodiff import DiffValue
from jointspace.hyperbolicity import HyperbolicityProfile
from jointspace.objectives import (LossWeights, cross_entropy_nc,
                                   fermi_dirac_prob, lp_loss,
                                   non_uniformity_loss, normalize_delta,
                                   overall_loss, unif_reference, wasserstein_1d)

from conftest import exhaustive_coupling_wasserstein

floats_list = st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=6)


class TestWasserstein:
    def test_identical_lists_zero(self):
        assert wasserstein_1d([1.0, 2.0, 3.0], [3.0, 1.0, 2.0], 2) == 0.0

    def test_single_pair(self):
        assert wasserstein_1d([0.0], [3.0], 1) == 3.0
        assert wasserstein_1d([0.0], [3.0], 2) == 3.0

    def test_shifted_pair(self):
        assert wasserstein_1d([0, 1], [1, 2], 1) == pytest.approx(1.0)
        assert wasserstein_1d([0, 1], [1, 2], 2) == pytest.approx(1.0)

    def test_matches_exhaustive_couplings(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            a, b = rng.normal(size=n), rng.normal(size=n)
            p = float(rng.choice([1.0, 2.0, 3.0]))
            assert abs(wasserstein_1d(a, b, p)
                       - exhaustive_coupling_wasserstein(a, b, p)) < 1e-9

    @given(floats_list, floats_list)
    @settings(max_examples=100, deadline=None)
    def test_symmetry(self, a, b):
        if len(a) != len(b):
            a, b = a[:min(len(a), len(b))] or [0.0], b[:min(len(a), len(b))] or [0.0]
        assert wasserstein_1d(a, b, 2) == pytest.approx(wasserstein_1d(b, a, 2),
                                                        abs=1e-12)

    @given(floats_list, st.floats(-10, 10, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_translation_invariance(self, a, const):
        b = [x + 1.0 for x in a]
        base = wasserstein_1d(a, b, 2)
        shifted = wasserstein_1d([x + const for x in a], [x + const for x in b], 2)
        assert shifted == pytest.approx(base, abs=1e-9)

    def test_zero_iff_equal_sorted(self):
        assert wasserstein_1d([1, 2], [2, 1], 2) == 0.0
        assert wasserstein_1d([1, 2], [1, 3], 2) > 0.0

    def test_unequal_sizes_rejected(self):
        with pytest.raises(ValueError, match="equal sample counts, got 2 and 3"):
            wasserstein_1d([0.0, 1.0], [0.0, 0.5, 1.0], 2)
        with pytest.raises(ValueError, match="equal sample counts, got 3 and 2"):
            wasserstein_1d([0.0, 0.5, 1.0], [0.0, 1.0], 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            wasserstein_1d([], [1.0], 2)

    def test_differentiable_path_gradcheck(self):
        a = DiffValue(np.array([0.3, 0.9, 0.1, 0.5, 0.7]))
        b = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        for p in (1.0, 2.0):
            assert ad.finite_diff_check(lambda: wasserstein_1d(a, b, p), [a]) < 1e-5

    def test_differentiable_matches_numeric(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = rng.normal(size=6)
            b = rng.normal(size=6)
            diff = wasserstein_1d(DiffValue(a), b, 2.0)
            assert float(diff.value) == pytest.approx(wasserstein_1d(a, b, 2.0),
                                                      abs=1e-14)

    def test_zero_distance_subgradient(self):
        a = DiffValue(np.array([0.1, 0.2]))
        w = wasserstein_1d(a, np.array([0.2, 0.1]), 2.0)
        ad.backward(w)
        assert w.value == 0.0
        assert np.all(a.grad == 0.0)

    def test_training_path_length_mismatch(self):
        with pytest.raises(ValueError, match="equal sample"):
            wasserstein_1d(DiffValue(np.array([1.0, 2.0])), np.array([1.0]), 2.0)

    def test_unif_reference_midpoints(self):
        assert np.allclose(unif_reference(4), [0.125, 0.375, 0.625, 0.875])
        with pytest.raises(ValueError):
            unif_reference(0)


class TestNormalizeDelta:
    def test_all_zero(self):
        prof = HyperbolicityProfile({0: 0.0, 1: 0.0}, 2, "inf")
        assert normalize_delta(prof).tolist() == [0.0, 0.0]

    def test_scaling_by_max(self):
        prof = HyperbolicityProfile({0: 0.0, 1: 1.0, 2: 2.0}, 2, "inf")
        assert normalize_delta(prof).tolist() == [0.0, 0.5, 1.0]

    def test_order_by_node_id(self):
        prof = HyperbolicityProfile({2: 4.0, 0: 1.0, 1: 2.0}, 2, "inf")
        assert normalize_delta(prof).tolist() == [0.25, 0.5, 1.0]


class TestNonUniformity:
    def test_uniform_value(self):
        br = DiffValue(np.full(4, 0.5))
        assert float(non_uniformity_loss(br, ad.sub(1.0, br)).value) == -0.5

    def test_extreme_value(self):
        br = DiffValue(np.array([1.0, 0.0, 1.0]))
        assert float(non_uniformity_loss(br, ad.sub(1.0, br)).value) == -1.0

    def test_hand_case(self):
        br = DiffValue(np.full(5, 0.8))
        out = float(non_uniformity_loss(br, ad.sub(1.0, br)).value)
        assert out == pytest.approx(-0.68)

    def test_range(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            beta = rng.uniform(0, 1, size=7)
            val = float(non_uniformity_loss(DiffValue(beta),
                                            DiffValue(1.0 - beta)).value)
            assert -1.0 - 1e-12 <= val <= -0.5 + 1e-12

    def test_gradient_formula_after_substitution(self):
        beta = DiffValue(np.array([0.3, 0.5, 0.9]))
        loss = non_uniformity_loss(beta, ad.sub(1.0, beta))
        ad.backward(loss)
        expected = -(4.0 * beta.value - 2.0) / 3.0
        assert np.allclose(beta.grad, expected, atol=1e-14)
        assert beta.grad[1] == 0.0  # exactly stationary at 0.5


class TestCrossEntropy:
    def test_saturated(self):
        logits = DiffValue(np.array([[50.0, 0.0], [0.0, 50.0]]))
        loss = cross_entropy_nc(logits, np.array([0, 1]), np.array([0, 1]))
        assert float(loss.value) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_logits(self):
        logits = DiffValue(np.zeros((3, 4)))
        loss = cross_entropy_nc(logits, np.array([1, 2, 3]), np.array([0, 1, 2]))
        assert float(loss.value) == pytest.approx(math.log(4.0))

    def test_hand_two_nodes(self):
        logits = DiffValue(np.array([[1.0, 0.0], [0.0, 2.0]]))
        loss = cross_entropy_nc(logits, np.array([0, 1]), np.array([0, 1]))
        expected = (math.log(1 + math.exp(-1)) + math.log(1 + math.exp(-2))) / 2
        assert float(loss.value) == pytest.approx(expected)

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError):
            cross_entropy_nc(DiffValue(np.zeros((2, 2))), np.array([0, 1]),
                             np.array([], dtype=int))

    def test_gradcheck(self):
        rng = np.random.default_rng(3)
        logits = DiffValue(rng.normal(size=(5, 3)))
        labels = np.array([0, 1, 2, 0, 1])
        mask = np.array([0, 2, 3])
        err = ad.finite_diff_check(
            lambda: cross_entropy_nc(logits, labels, mask), [logits])
        assert err < 1e-5


class TestFermiDirac:
    def test_half_at_r(self):
        assert fermi_dirac_prob(2.0) == pytest.approx(0.5)

    def test_far_limit(self):
        assert fermi_dirac_prob(500.0) < 1e-100

    def test_hand_value(self):
        p = fermi_dirac_prob(0.0)
        assert p == pytest.approx(1.0 / (math.exp(-2.0) + 1.0))

    def test_monotone_decreasing(self):
        grid = np.linspace(0.0, 20.0, 200)
        vals = fermi_dirac_prob(grid)
        assert np.all(np.diff(vals) < 0)


class TestLpLoss:
    def test_all_pairs_at_r_gives_ln2(self):
        z = DiffValue(np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]]))
        loss = lp_loss(z, np.array([[0, 1]]), np.array([[0, 2]]))
        assert float(loss.value) == pytest.approx(math.log(2.0))

    def test_good_embedding_low_loss(self):
        z = DiffValue(np.array([[0.0, 0.0], [0.0, 0.0], [100.0, 0.0]]))
        loss = lp_loss(z, np.array([[0, 1]]), np.array([[0, 2]]))
        expected = -0.5 * (math.log(1.0 / (math.exp(-2.0) + 1.0)))
        assert float(loss.value) == pytest.approx(expected, abs=1e-8)

    def test_empty_sets_rejected(self):
        z = DiffValue(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            lp_loss(z, np.zeros((0, 2), dtype=int), np.array([[0, 1]]))

    def test_gradcheck(self):
        rng = np.random.default_rng(4)
        z = DiffValue(rng.normal(size=(6, 3)))
        pos = np.array([[0, 1], [2, 3]])
        neg = np.array([[0, 5], [1, 4]])
        err = ad.finite_diff_check(
            lambda: lp_loss(z, pos, neg), [z])
        assert err < 1e-5


class TestOverallLoss:
    def _record(self, beta_values):
        br = DiffValue(np.asarray(beta_values))
        return [(br, ad.sub(1.0, br))], br

    def test_ablation_identity_exact(self):
        record, _ = self._record([0.5, 0.5, 0.5])
        task = DiffValue(1.2345)
        out = overall_loss(task, record, np.zeros(3), LossWeights(0.0, 0.0))
        assert out is task  # the extra terms are skipped entirely

    def test_zero_alignment_when_distributions_match(self):
        record, _ = self._record([0.2, 0.6, 0.4])
        out = overall_loss(DiffValue(1.0), record, np.array([0.6, 0.4, 0.2]),
                           LossWeights(0.0, 1.0))
        assert float(out.value) == 1.0

    def test_hand_combination(self):
        record, _ = self._record([0.5, 0.5, 0.5, 0.5])
        mu = np.full(4, 0.75)  # rank-paired gaps of 0.25 -> W2 = 0.25
        out = overall_loss(DiffValue(1.0), record, mu, LossWeights(0.1, 0.2))
        assert float(out.value) == pytest.approx(1.0 - 0.05 + 0.05)

    def test_multi_layer_averaging(self):
        br1 = DiffValue(np.full(3, 1.0))
        br2 = DiffValue(np.full(3, 0.5))
        record = [(br1, ad.sub(1.0, br1)), (br2, ad.sub(1.0, br2))]
        out = overall_loss(DiffValue(0.0), record, np.zeros(3),
                           LossWeights(1.0, 0.0))
        assert float(out.value) == pytest.approx((-1.0 - 0.5) / 2.0)

    @pytest.mark.parametrize("mode", ["distribution", "pairwise", "mean"])
    def test_modes_gradcheck(self, mode):
        rng = np.random.default_rng(5)
        raw = DiffValue(rng.normal(size=5))
        mu = np.sort(rng.uniform(0, 1, size=5))

        def loss_fn():
            beta = ad.sigmoid(raw)
            record = [(beta, ad.sub(1.0, beta))]
            return overall_loss(ad.mean_(ad.mul(raw, raw)), record, mu,
                                LossWeights(0.3, 0.4), mode)

        assert ad.finite_diff_check(loss_fn, [raw]) < 1e-5

    def test_mode_validation(self):
        record, _ = self._record([0.5])
        with pytest.raises(ValueError):
            overall_loss(DiffValue(0.0), record, np.zeros(1),
                         LossWeights(0.1, 0.1), "bogus")

    def test_length_mismatch(self):
        record, _ = self._record([0.5, 0.5])
        with pytest.raises(ValueError):
            overall_loss(DiffValue(0.0), record, np.zeros(3),
                         LossWeights(0.0, 1.0))

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            LossWeights(-0.1, 0.0)
        with pytest.raises(ValueError):
            LossWeights(0.0, 0.0, p=0.5)
        for p in (math.nan, math.inf):
            with pytest.raises(ValueError, match="p must be finite"):
                LossWeights(0.0, 1.0, p=p)


@pytest.mark.parametrize("call, fault", [
    (lambda: wasserstein_1d(DiffValue(np.zeros((2, 2))), np.zeros(4)),
     "differentiable path expects a non-empty flat vector"),
    (lambda: normalize_delta(HyperbolicityProfile({}, 2, "inf")), "profile is empty"),
    (lambda: overall_loss(DiffValue(0.0), [], np.zeros(3), LossWeights()),
     "beta record is empty")], ids=["2d-wasserstein", "empty-profile", "empty-record"])
def test_empty_or_misshapen_input_rejected(call, fault):
    with pytest.raises(ValueError, match=fault):
        call()
