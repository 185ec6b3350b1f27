import math

import numpy as np
import pytest

import minfer as m
from minfer import likelihood
from oracles import profile_oracle


def _profile(data, theta):
    # the log profile likelihood at one theta
    return float(likelihood._profile_log_liks(data, np.array([theta]))[0])


def _mcar(data, theta):
    # the benchmark log likelihood at one theta
    return float(likelihood._mcar_log_liks(data, np.array([theta]))[0])


def _lr(data, theta_star, theta_ref):
    # the profile likelihood ratio: one standardized curve's two points
    at, ref = m.profile_curve(data, np.array([theta_star, theta_ref]))
    return at / ref


class TestProfileValues:
    def test_flat_top_standardizes_to_one(self, trial):
        grid = np.array([0.3, 0.4, 0.5])
        std = m.profile_curve(trial, grid)
        assert std == pytest.approx([1.0, 1.0, 1.0], abs=1e-12)

    def test_relative_plausibility_table(self, trial):
        assert _lr(trial, 0.2, 0.4) == pytest.approx(0.076, abs=1e-3)
        assert _lr(trial, 0.6, 0.4) == pytest.approx(0.156, abs=1e-3)
        assert _lr(trial, 0.3, 0.4) == 1.0
        assert _lr(trial, 0.5, 0.4) == 1.0

    def test_lr_identity(self, trial):
        for theta in (0.1, 0.37, 0.8):
            assert _lr(trial, theta, theta) == 1.0

    def test_standardized_curve_peaks_at_one(self, trial):
        grid = np.linspace(0.01, 0.99, 99)
        std = m.profile_curve(trial, grid)
        assert std.max() == 1.0
        assert np.all((0.0 <= std) & (std <= 1.0))


class TestOracleAgreement:
    def test_matches_oracle_on_grid(self, trial):
        grid = np.linspace(0.01, 0.99, 50)
        for theta in grid:
            closed = _profile(trial, float(theta))
            oracle = profile_oracle(trial, float(theta))
            assert closed == pytest.approx(oracle, abs=1e-6)

    def test_constraint_inactive_at_mle(self, trial):
        theta = 32 / 110
        unconstrained = (
            32 * math.log(32 / 110) + 54 * math.log(54 / 110) + 24 * math.log(24 / 110)
        )
        assert _profile(trial, theta) == pytest.approx(unconstrained, abs=1e-12)
        assert profile_oracle(trial, theta) == pytest.approx(unconstrained, abs=1e-6)

    def test_matches_oracle_on_other_tables(self):
        for counts in ([5, 1, 9], [1, 1, 1], [40, 2, 7]):
            table = m.MissingTable(*counts)
            for theta in (0.05, 0.3, 0.62, 0.95):
                assert _profile(table, theta) == pytest.approx(
                    profile_oracle(table, theta), abs=1e-6
                )


class TestShape:
    def test_flat_within_plugin_region(self, trial):
        region = m.ml_region(trial)
        grid = np.linspace(region.lower, region.upper, 31)
        values = np.array([_profile(trial, float(t)) for t in grid])
        assert np.max(np.abs(values - values[0])) < 1e-12

    def test_monotone_flanks(self, trial):
        region = m.ml_region(trial)
        left = np.linspace(0.01, region.lower - 1e-6, 40)
        values = np.array([_profile(trial, float(t)) for t in left])
        assert np.all(np.diff(values) > 0.0)
        right = np.linspace(region.upper + 1e-6, 0.99, 40)
        values = np.array([_profile(trial, float(t)) for t in right])
        assert np.all(np.diff(values) < 0.0)

    def test_dominates_feasible_parameters(self, trial, rng):
        # profile value at theta is the max over all psi compatible with theta
        for _ in range(300):
            raw = rng.dirichlet([1.0, 1.0, 1.0])
            psi = m.PsiMissing(*(raw / raw.sum()))
            region = m.theta_interval(psi)
            theta = float(rng.uniform(region.lower, region.upper))
            at_psi = (
                32 * math.log(max(psi.l11, 1e-300))
                + 54 * math.log(max(psi.l01, 1e-300))
                + 24 * math.log(max(psi.l_plus0, 1e-300))
            )
            assert _profile(trial, theta) >= at_psi - 1e-9


class TestBoundaries:
    def test_zero_theta_against_positive_count(self, trial):
        assert _profile(trial, 0.0) == -math.inf
        assert _mcar(trial, 0.0) == -math.inf

    def test_one_theta_against_positive_count(self, trial):
        assert _profile(trial, 1.0) == -math.inf

    def test_zero_theta_with_zero_count_is_finite(self):
        table = m.MissingTable(0, 5, 5)
        assert math.isfinite(_profile(table, 0.0))

    def test_out_of_domain_rejected(self, trial):
        with pytest.raises(m.ThetaOutOfDomain):
            m.profile_curve(trial, 1.5)
        with pytest.raises(m.ThetaOutOfDomain):
            m.profile_curve(trial, -0.1)
        with pytest.raises(m.ThetaOutOfDomain):
            m.mcar_curve(trial, 2.0)


class TestMcar:
    def test_peak_at_responder_share(self, trial):
        argmax = 32 / 86
        grid = np.linspace(0.01, 0.99, 999)
        values = np.array([_mcar(trial, float(t)) for t in grid])
        best = grid[np.argmax(values)]
        assert best == pytest.approx(argmax, abs=2e-3)
        assert _mcar(trial, argmax) >= values.max()

    def test_symmetry(self):
        table = m.MissingTable(7, 7, 3)
        grid = np.linspace(0.05, 0.95, 19)
        values = np.array([_mcar(table, float(t)) for t in grid])
        assert np.argmax(values) == 9  # theta = 0.5

    def test_ignores_nonresponse_count(self):
        # the benchmark likelihood cannot see n_plus0 at all
        tables = [m.MissingTable(32, 54, k) for k in (4, 24, 104)]
        for theta in (0.1, 0.372, 0.9):
            values = {_mcar(t, theta) for t in tables}
            assert len(values) == 1

    def test_mcar_curve_peak(self, trial):
        grid = np.linspace(0.01, 0.99, 99)
        std = m.mcar_curve(trial, grid)
        assert std.max() == 1.0


class TestLikelihoodPoints:
    # the grid points of a curve agree with the pointwise log likelihoods

    def test_points_carry_consistent_fields(self, trial):
        grid = np.linspace(0.05, 0.95, 19)
        log_liks = np.array([_profile(trial, float(t)) for t in grid])
        std = m.profile_curve(trial, grid)
        assert len(std) == 19
        assert std == pytest.approx(np.exp(log_liks - log_liks.max()), abs=1e-12)
        assert std.max() == 1.0

    def test_mcar_points(self, trial):
        grid = np.linspace(0.1, 0.9, 9)
        log_liks = np.array([_mcar(trial, float(t)) for t in grid])
        std = m.mcar_curve(trial, grid)
        assert std == pytest.approx(np.exp(log_liks - log_liks.max()), abs=1e-12)
        assert std.max() == 1.0


class TestStandardize:
    def test_peak_is_one(self):
        std = likelihood._standardize(np.array([-5.0, -2.0, -7.0]))
        assert std[1] == 1.0

    def test_handles_neg_inf_entries(self):
        std = likelihood._standardize(np.array([-math.inf, -2.0]))
        assert std[0] == 0.0 and std[1] == 1.0

    def test_all_neg_inf(self):
        std = likelihood._standardize(np.array([-math.inf, -math.inf]))
        assert np.all(std == 0.0)

    def test_empty_grid_gives_empty_curves(self, trial):
        # raised numpy's ValueError from the maximum of no points
        for curve in (m.profile_curve, m.mcar_curve):
            std = curve(trial, np.array([]))
            assert std.shape == (0,) and std.dtype == float


def _term(count, prob):
    if count == 0:
        return 0.0
    return count * math.log(prob) if prob > 0.0 else -math.inf


def _scalar_profile_log_lik(data, theta):
    """The three regimes one theta at a time in Python floats: the
    reference for the vectorized curve."""
    n11, n01, n0, n = data.n11, data.n01, data.n_plus0, data.n
    if theta < n11 / n:
        rest = n01 + n0
        l11, l01, l0 = theta, *(((1 - theta) * n01 / rest, (1 - theta) * n0 / rest)
                                 if rest else (0.0, 1 - theta))
    elif theta > (n11 + n0) / n:
        top = n11 + n0
        l01 = 1 - theta
        l11, l0 = (theta * n11 / top, theta * n0 / top) if top else (theta, 0.0)
    else:
        l11, l01, l0 = n11 / n, n01 / n, n0 / n
    return _term(n11, l11) + _term(n01, l01) + _term(n0, l0)


class TestVectorizedCurves:
    TABLES = [(32, 54, 24), (0, 5, 5), (5, 0, 5), (5, 5, 0), (0, 0, 7), (3, 0, 0), (0, 4, 0),
              (1, 1, 1), (300000, 150000, 1050000)]

    @pytest.mark.parametrize("cells", TABLES)
    def test_matches_scalar_regimes(self, cells):
        data = m.MissingTable(*cells)
        n = data.n
        # the regime edges exactly, and points on both sides of each
        edges = [data.n11 / n, (data.n11 + data.n_plus0) / n]
        grid = np.unique(np.clip(np.concatenate(
            [np.linspace(0.0, 1.0, 101), edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)]
        ), 0.0, 1.0))
        ref = np.array([_scalar_profile_log_lik(data, float(t)) for t in grid])
        got = likelihood._profile_log_liks(data, grid)
        assert np.array_equal(np.isinf(got), np.isinf(ref))
        finite = np.isfinite(ref)
        assert got[finite] == pytest.approx(ref[finite], rel=1e-13, abs=1e-12)
        assert m.profile_curve(data, grid) == pytest.approx(
            likelihood._standardize(ref), rel=1e-12, abs=1e-15)
        mcar_ref = [_term(data.n11, t) + _term(data.n01, 1 - t) for t in grid]
        assert m.mcar_curve(data, grid) == pytest.approx(
            likelihood._standardize(mcar_ref), rel=1e-12, abs=1e-15)

    def test_curve_grid_out_of_domain(self, trial):
        for curve in (m.profile_curve, m.mcar_curve):
            with pytest.raises(m.ThetaOutOfDomain, match="1.2"):
                curve(trial, np.array([0.1, 1.2, 0.5]))
            with pytest.raises(m.ThetaOutOfDomain):
                curve(trial, np.array([-0.1, 0.5]))
