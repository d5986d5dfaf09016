"""Measurement instruments: percentages, recovery fractions, quality and
rank statistics, and the robustness summary."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adnn_energy_lab.energy import EnergyModel
from adnn_energy_lab.metrics import (
    PSNR_CAP_DB,
    TransferRecord,
    auc,
    avg_squared_difference,
    energy_increase_percent,
    inc_rf,
    pearson,
    psnr,
    robustness_scores,
    ssim,
    transfer_metrics,
)
from adnn_energy_lab.models import ScriptedAdnn

from oracles import (
    auc_reference,
    exhaustive_permutation_p,
    pearson_loop_reference,
    ssim_reference,
)


class TestEnergyIncrease:
    def test_hand_values(self):
        assert energy_increase_percent(10.0, 25.0) == 150.0
        assert energy_increase_percent(3.0, 3.0) == 0.0
        assert energy_increase_percent(4.0, 3.0) == -25.0

    def test_nonpositive_original_rejected(self):
        with pytest.raises(ValueError):
            energy_increase_percent(0.0, 5.0)
        with pytest.raises(ValueError):
            energy_increase_percent(-1.0, 5.0)

    def test_nan_original_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            energy_increase_percent(math.nan, 5.0)

    @pytest.mark.parametrize("e_orig, e_test", [(math.inf, 1.0), (1.0, math.inf),
                                                (1.0, math.nan), (2.0, -math.inf)])
    def test_non_finite_energy_rejected(self, e_orig, e_test):
        with pytest.raises(ValueError, match="e_orig|e_test"):
            energy_increase_percent(e_orig, e_test)


class TestIncRf:
    def test_hand_values(self):
        assert inc_rf(500, 500, 1000) == 0.0
        assert inc_rf(500, 1000, 1000) == 1.0
        assert inc_rf(600, 800, 1000) == 0.5

    def test_already_maximal_undefined(self):
        with pytest.raises(ValueError):
            inc_rf(1000, 1000, 1000)

    def test_orig_above_max_rejected(self):
        with pytest.raises(ValueError):
            inc_rf(1100, 1000, 1000)

    @given(
        st.integers(min_value=0, max_value=900),
        st.integers(min_value=0, max_value=2000),
        st.integers(min_value=1000, max_value=3000),
        st.floats(min_value=0.1, max_value=50.0),
    )
    def test_scale_invariance(self, orig, test, peak, k):
        if orig >= peak:
            return
        base = inc_rf(orig, test, peak)
        scaled = inc_rf(orig * k, test * k, peak * k)
        assert scaled == pytest.approx(base, abs=1e-9)


class TestTransferMetrics:
    def test_worked_example(self):
        # 10 inputs: base recovers 0.5 on average, target 0.3; 7 of 10
        # replays increase target flops
        records = []
        for i in range(10):
            increased = i < 7
            records.append(TransferRecord(
                base_inc_rf=0.5,
                target_inc_rf=0.3,
                base_flops_before=100, base_flops_after=200,
                target_flops_before=100,
                target_flops_after=150 if increased else 100,
            ))
        itp, etp = transfer_metrics(records)
        assert itp == 70.0
        assert etp == 60.0

    def test_self_transfer_diagonal(self):
        records = [
            TransferRecord(0.4, 0.4, 100, 180, 100, 180),
            TransferRecord(0.6, 0.6, 100, 220, 100, 220),
        ]
        itp, etp = transfer_metrics(records)
        assert itp == 100.0
        assert etp == 100.0

    def test_no_target_increase(self):
        records = [TransferRecord(0.5, 0.0, 100, 200, 100, 100)]
        itp, etp = transfer_metrics(records)
        assert itp == 0.0
        assert etp == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            transfer_metrics([])

    def test_zero_base_recovery_rejected(self):
        with pytest.raises(ValueError):
            transfer_metrics([TransferRecord(0.0, 0.1, 100, 100, 100, 120)])


class TestAvgSquaredDifference:
    def test_identical(self):
        assert avg_squared_difference([(np.zeros(4), np.zeros(4))]) == 0.0

    def test_hand_value(self):
        assert avg_squared_difference(
            [(np.array([0.0, 0.0]), np.array([0.1, 0.3]))]
        ) == pytest.approx(0.05)

    def test_unit_range_maximum(self):
        assert avg_squared_difference([(np.zeros(8), np.ones(8))]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            avg_squared_difference([])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            avg_squared_difference([(np.zeros(3), np.zeros(4))])

    def test_pairs_without_pixels_rejected(self):
        with pytest.raises(ValueError, match="no pixels"):
            avg_squared_difference([(np.zeros(0), np.zeros(0)),
                                    (np.zeros((2, 0)), np.zeros((2, 0)))])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("side", ["x", "f"])
    def test_non_finite_pixel_rejected(self, bad, side):
        pair = {"x": np.zeros(3), "f": np.ones(3)}
        pair[side][1] = bad
        with pytest.raises(ValueError, match=side + " contains non-finite"):
            avg_squared_difference([(np.zeros(2), np.ones(2)), (pair["x"], pair["f"])])


class TestPsnr:
    def test_identical_capped(self):
        x = np.linspace(0, 1, 64)
        assert psnr(x, x) == PSNR_CAP_DB

    def test_known_mse_values(self):
        x = np.zeros(4)
        f = np.full(4, 0.5)  # MSE 0.25
        assert psnr(x, f) == pytest.approx(6.0206, abs=1e-4)
        f = np.full(4, 0.1)  # MSE 0.01
        assert psnr(x, f) == pytest.approx(20.0)

    def test_strictly_decreasing_in_mse(self):
        x = np.zeros(16)
        values = [psnr(x, np.full(16, a)) for a in (0.1, 0.2, 0.4, 0.8)]
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("side", ["x", "f"])
    def test_non_finite_pixel_rejected(self, bad, side):
        pair = {"x": np.zeros(4), "f": np.full(4, 0.5)}
        pair[side][2] = bad
        with pytest.raises(ValueError, match=side + " contains non-finite"):
            psnr(pair["x"], pair["f"])


class TestSsim:
    def test_identical_is_one(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, 64)
        assert ssim(x, x) == pytest.approx(1.0, abs=1e-15)

    def test_constant_zero_vs_one(self):
        c1 = 0.01 ** 2
        value = ssim(np.zeros(64), np.ones(64))
        assert value == pytest.approx(c1 / (1 + c1), abs=1e-12)

    def test_half_contrast_matches_reference(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, 64)
        f = x.mean() + 0.5 * (x - x.mean())
        assert ssim(x, f) == pytest.approx(ssim_reference(x, f), abs=1e-12)

    def test_random_pairs_match_reference(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            x = rng.uniform(0, 1, 32)
            f = np.clip(x + rng.normal(0, 0.2, 32), 0, 1)
            assert ssim(x, f) == pytest.approx(ssim_reference(x, f), abs=1e-12)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            ssim(np.array([0.5]), np.array([0.5]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("side", ["x", "f"])
    def test_non_finite_pixel_rejected(self, bad, side):
        pair = {"x": np.linspace(0, 1, 8), "f": np.linspace(1, 0, 8)}
        pair[side][3] = bad
        with pytest.raises(ValueError, match=side + " contains non-finite"):
            ssim(pair["x"], pair["f"])


class TestPearson:
    def test_exact_linear(self):
        xs = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        r, _ = pearson(xs, 2 * xs)
        assert r == pytest.approx(1.0, abs=1e-12)
        r, _ = pearson(xs, -xs)
        assert r == pytest.approx(-1.0, abs=1e-12)

    def test_worked_example_exhaustive(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        ys = [1.0, 3.0, 2.0, 4.0]
        r, p = pearson(xs, ys)
        assert r == pytest.approx(0.8, abs=1e-12)
        assert p == pytest.approx(exhaustive_permutation_p(xs, ys))
        assert p == pytest.approx(8 / 24)

    def test_sampled_p_smoothed_and_bounded(self):
        rng = np.random.default_rng(3)
        xs = rng.uniform(0, 1, 30)
        ys = xs + rng.normal(0, 0.1, 30)
        r, p = pearson(xs, ys, n_perm=500, seed=0)
        assert r > 0.9
        assert 0 < p <= 1
        assert p >= 1 / 501  # add-one smoothing floor

    def test_affine_invariance(self):
        rng = np.random.default_rng(4)
        xs = rng.uniform(0, 1, 12)
        ys = rng.uniform(0, 1, 12)
        r0, _ = pearson(xs, ys, n_perm=10)
        r1, _ = pearson(3.5 * xs + 2.0, ys, n_perm=10)
        r2, _ = pearson(xs, 0.25 * ys - 7.0, n_perm=10)
        assert abs(r1 - r0) < 1e-12
        assert abs(r2 - r0) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            pearson([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("n", [5, 10])   # the exhaustive and the sampled path
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("side", ["xs", "ys"])
    def test_non_finite_point_rejected(self, n, bad, side):
        # a NaN once read as r = nan with p = 0.0 (n = 5) or 0.005 (n = 10)
        points = {"xs": np.arange(1.0, n + 1), "ys": np.arange(1.0, n + 1)}
        points[side][-1] = bad
        with pytest.raises(ValueError, match=side + " contains non-finite"):
            pearson(points["xs"], points["ys"], n_perm=200)

    @pytest.mark.parametrize("n", [4, 12])   # the exhaustive and the sampled path
    @pytest.mark.parametrize("field, value", [
        ("n_perm", -2), ("n_perm", -1), ("n_perm", 0), ("n_perm", True), ("n_perm", 2.0),
        ("seed", 1.5), ("seed", None), ("seed", True),
    ])
    def test_bad_permutation_settings_rejected(self, n, field, value):
        xs = np.arange(n, dtype=np.float64)
        with pytest.raises(ValueError, match=field):
            pearson(xs, xs[::-1] ** 2, **{field: value})

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(3, 300), st.integers(1, 1500),
           st.floats(-1.0, 1.0), st.booleans())
    @example(0, 7, 1, 0.5, True)          # the exhaustive path, with tied values
    @example(1, 8, 1, 0.5, False)         # the least shuffled sample and n_perm
    @example(2, 300, 1500, 0.1, False)    # blocks of 218 rows: six full, one partial
    def test_p_equals_the_one_permutation_loop_to_the_bit(self, seed, n, n_perm, slope, ties):
        rng = np.random.default_rng(seed)
        xs = rng.normal(size=n)
        ys = slope * xs + rng.normal(size=n)
        if ties:
            ys = np.round(ys)
            ys[:2] = 0.0, 1.0
        got = pearson(xs, ys, n_perm=n_perm, seed=seed)
        assert np.array(got).tobytes() == np.array(
            pearson_loop_reference(xs, ys, n_perm=n_perm, seed=seed)).tobytes()

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(5)
        xs = rng.uniform(0, 1, 20)
        ys = rng.uniform(0, 1, 20)
        assert pearson(xs, ys, n_perm=200, seed=7) == pearson(
            xs, ys, n_perm=200, seed=7
        )


class TestAuc:
    def test_perfect_separation(self):
        assert auc([0.9, 0.8, 0.3, 0.2], [1, 1, 0, 0]) == 1.0

    def test_hand_value(self):
        assert auc([0.9, 0.6, 0.4, 0.2], [1, 0, 1, 0]) == 0.75

    def test_all_ties(self):
        assert auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auc([0.1, 0.2], [1, 1])

    def test_matches_bruteforce_on_random_sets(self):
        rng = np.random.default_rng(6)
        for _ in range(500):
            n = int(rng.integers(2, 30))
            # quantized scores so ties actually happen
            scores = np.round(rng.uniform(0, 1, n), 1)
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            assert auc(scores, labels) == auc_reference(scores.tolist(),
                                                        labels.tolist())


    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 1)),
                    min_size=2, max_size=60))
    def test_rank_form_equals_pairwise_form_with_heavy_ties(self, rows):
        # four distinct scores at most, so most pairs tie
        scores = [s / 4.0 for s, _ in rows]
        labels = [l for _, l in rows]
        if len(set(labels)) < 2:
            with pytest.raises(ValueError):
                auc(scores, labels)
            return
        assert auc(scores, labels) == auc_reference(scores, labels)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.floats(-1e6, 1e6), st.integers(0, 1)),
                    min_size=2, max_size=60))
    def test_rank_form_equals_pairwise_form(self, rows):
        scores = [s for s, _ in rows]
        labels = [l for _, l in rows]
        if len(set(labels)) < 2:
            return
        assert auc(scores, labels) == auc_reference(scores, labels)

    def test_labels_other_than_zero_and_one_rejected(self):
        for bad in ([1, 0, 2, 0], [1, 0, 1, -1], [1, 0, 0.5, 1]):
            with pytest.raises(ValueError):
                auc([0.9, 0.1, 0.5, 0.7], bad)

    def test_non_finite_score_rejected(self):
        with pytest.raises(ValueError):
            auc([0.9, float("nan"), 0.1], [1, 1, 0])


class TestRobustnessScores:
    def setup_method(self):
        self.model = ScriptedAdnn([0.2, 0.4, 0.6, 0.8], base_flops=100, block_flops=256)
        self.energy = EnergyModel(base_joules=1.0, per_block_joules=0.5,
                                  noise_sigma=0.0)

    def test_universal_all_ones(self):
        seeds = [np.zeros(64)]
        scores = robustness_scores(self.model, self.energy, seeds, 1.0,
                                   [np.zeros(64)], [np.ones(64)])
        assert scores.e_universal == -3.0  # 1 + 4 * 0.5

    def test_zero_budget_means_zero_input_score(self):
        seeds = [np.zeros(64)]
        scores = robustness_scores(self.model, self.energy, seeds, 0.0,
                                   [np.ones(64)], [np.ones(64)])
        assert scores.e_input == 0.0

    def test_no_improving_perturbation(self):
        seeds = [np.full(64, 0.9)]  # already at the top step
        scores = robustness_scores(self.model, self.energy, seeds, 10.0,
                                   [np.full(64, 0.9)], [np.full(64, 0.9)])
        assert scores.e_input == 0.0

    def test_admissible_gain_negated(self):
        seeds = [np.zeros(64)]
        test = [np.full(64, 0.5)]  # 2 active vs 0: gain 1.0 J, within budget
        scores = robustness_scores(self.model, self.energy, seeds, 100.0,
                                   test, [np.ones(64)])
        assert scores.e_input == -1.0
        assert scores.e_universal <= scores.e_input <= 0.0

    def test_nan_budget_rejected_and_inf_admits_every_test(self):
        with pytest.raises(ValueError, match="budget"):
            robustness_scores(self.model, self.energy, [np.zeros(64)], math.nan,
                              [np.ones(64)], [np.ones(64)])
        scores = robustness_scores(self.model, self.energy, [np.zeros(64)], math.inf,
                                   [np.ones(64)], [np.ones(64)])
        assert scores.e_input == -2.0

    def test_empty_sets_rejected(self):
        with pytest.raises(ValueError):
            robustness_scores(self.model, self.energy, [], 1.0, [], [np.ones(64)])
        with pytest.raises(ValueError):
            robustness_scores(self.model, self.energy, [np.zeros(64)], 1.0,
                              [np.zeros(64)], [])
