import io

import numpy as np
import pytest

import minfer as m
from minfer.corroborate import bounds_batch_streams
from minfer.sampling import ReplicateStream
from oracles import normal_panels, normal_quad

TRIAL_N = 110

# normal-approximation values at the five reference points (adaptive
# quadrature, deterministic)
NORMAL_REFERENCE = {0.2: 0.0179, 0.3: 0.5831, 0.4: 0.9831, 0.5: 0.5756, 0.6: 0.0282}


def quasiconcave_violation(values: np.ndarray) -> float:
    # largest amount by which a point falls below the lower envelope of the
    # running maxima from both sides
    left = np.maximum.accumulate(values)
    right = np.maximum.accumulate(values[::-1])[::-1]
    return float(np.max(np.minimum(left, right) - values))


class TestBootstrap:
    def test_trial_reference_points(self, trial_psi):
        curve = m.corroboration_bootstrap(trial_psi, TRIAL_N, B=5000, master_seed=7)
        assert curve.value_at(0.4) == pytest.approx(0.985, abs=0.01)
        assert curve.value_at(0.2) == pytest.approx(0.018, abs=0.01)

    def test_total_missingness_covers_everything(self):
        psi = m.PsiMissing(0.0, 0.0, 1.0)
        curve = m.corroboration_bootstrap(psi, 20, B=50, master_seed=0)
        assert np.all(curve.values == 1.0)

    def test_values_on_lattice(self, trial_psi):
        curve = m.corroboration_bootstrap(
            trial_psi, TRIAL_N, grid=np.linspace(0.1, 0.9, 33), B=77, master_seed=3
        )
        assert np.all(np.abs(curve.values * 77 - np.round(curve.values * 77)) < 1e-9)

    def test_sample_sizes_below_one_rejected(self, trial_psi):
        for psi, sizes in ((trial_psi, 0), (trial_psi, -3), (m.PsiMatched(0.3, 0.3), (0, 5))):
            with pytest.raises(m.ValidationError):
                m.corroboration_bootstrap(psi, sizes, B=10, master_seed=0)

    def test_deterministic_given_seed(self, trial_psi):
        a = m.corroboration_bootstrap(trial_psi, TRIAL_N, B=500, master_seed=11)
        b = m.corroboration_bootstrap(trial_psi, TRIAL_N, B=500, master_seed=11)
        assert np.array_equal(a.values, b.values)

    def test_matched_setting(self):
        psi = m.PsiMatched(0.3, 0.3)
        curve = m.corroboration_bootstrap(psi, (200, 300), B=2000, master_seed=5)
        assert curve.value_at(0.0) == pytest.approx(1.0, abs=0.01)
        assert curve.value_at(0.3) == pytest.approx(0.2748, abs=0.04)

    def test_confidence_level_identity(self):
        # the curve value at theta0 is exactly the empirical coverage of the
        # replicate plug-in intervals, as the indicator average
        psi0 = m.PsiMissing(0.3, 0.5, 0.2)
        theta0 = 0.4
        curve = m.corroboration_bootstrap(
            psi0, 500, grid=np.array([theta0]), B=1000, master_seed=21
        )
        lower, upper = bounds_batch_streams(psi0, 500, 1000, 21)
        coverage = np.mean((lower <= theta0) & (theta0 <= upper))
        assert curve.values[0] == coverage


class TestNormal:
    def test_trial_reference_points(self, trial_psi):
        for theta, expected in NORMAL_REFERENCE.items():
            assert m.corroboration_normal(trial_psi, TRIAL_N, theta) == pytest.approx(
                expected, abs=5e-4
            )

    def test_table_values_within_tolerance(self, trial_psi):
        assert m.corroboration_normal(trial_psi, TRIAL_N, 0.4) == pytest.approx(0.985, abs=0.01)
        assert m.corroboration_normal(trial_psi, TRIAL_N, 0.3) == pytest.approx(0.583, abs=0.02)

    def test_curve_matches_pointwise_quadrature(self, trial_psi):
        grid = np.linspace(0.0, 1.0, 101)
        curve = m.corroboration_normal_curve(trial_psi, TRIAL_N, grid)
        for i in (0, 5, 20, 29, 40, 51, 60, 77, 95, 100):
            reference = normal_quad(trial_psi, TRIAL_N, float(grid[i]))
            assert curve.values[i] == pytest.approx(reference, abs=1e-9)

    def test_lattice_points_match_quadrature(self, trial_psi):
        # theta = 32/110 is the mean of the lower bound, where the closed
        # form evaluates Owen's T at x = 0
        for k in range(TRIAL_N + 1):
            theta = k / TRIAL_N
            assert m.corroboration_normal(trial_psi, TRIAL_N, theta) == pytest.approx(
                normal_quad(trial_psi, TRIAL_N, theta), abs=1e-9
            )

    def test_replicate_tables_match_panels(self, trial, trial_psi):
        # every distinct table of a 1000-replicate outer draw, as assurance
        # sees them, on the default grid plus the table's own plug-in bounds
        tables = {
            tuple(trial_psi.draw(ReplicateStream(0, b).rng(), TRIAL_N)) for b in range(1000)
        }
        assert len(tables) == 336
        for cells in tables:
            psi = trial_psi.from_cells(np.array(cells), TRIAL_N)
            grid = np.union1d(m.default_grid(), [psi.l11, psi.l11 + psi.l_plus0])
            curve = m.corroboration_normal_curve(psi, TRIAL_N, grid)
            assert np.max(np.abs(curve.values - normal_panels(psi, TRIAL_N, grid))) <= 1e-12

    def test_interior_point_tends_to_one(self):
        psi = m.PsiMissing(0.3, 0.5, 0.2)
        theta = 0.3 + 0.2 / 2
        assert m.corroboration_normal(psi, 10**8, theta) >= 0.999
        curve = m.corroboration_bootstrap(
            psi, 10**8, grid=np.array([theta]), B=100_000, master_seed=13
        )
        assert curve.values[0] >= 0.999

    def test_degenerate_variance_rejected(self):
        with pytest.raises(m.DegenerateVariance):
            m.corroboration_normal(m.PsiMissing(0.0, 0.5, 0.5), 50, 0.4)
        with pytest.raises(m.DegenerateVariance):
            m.corroboration_normal(m.PsiMissing(0.5, 0.5, 0.0), 50, 0.4)

    def test_zero_l01_width_degenerates_cleanly(self):
        # l01 = 0 collapses the width onto 1 - lower; curve stays valid
        psi = m.PsiMissing(0.4, 0.0, 0.6)
        value = m.corroboration_normal(psi, 50, 0.5)
        from scipy.special import ndtr

        expected = ndtr((0.5 - 0.4) / np.sqrt(0.4 * 0.6 / 50))
        assert value == pytest.approx(float(expected), abs=1e-9)
        curve = m.corroboration_normal_curve(psi, 50, np.linspace(0, 1, 11))
        assert np.all((0 <= curve.values) & (curve.values <= 1))

    def test_matched_psi_rejected(self):
        with pytest.raises(m.ValidationError):
            m.corroboration_normal(m.PsiMatched(0.3, 0.3), 100, 0.2)


class TestMethodAgreement:
    def test_off_lattice_agreement(self, trial_psi):
        # at lattice points of the resampled proportions the exact law
        # carries atoms that the continuous approximation splits in half,
        # so the two methods are compared between lattice points
        grid = (np.arange(6, 105) + 0.5) / TRIAL_N
        boot = m.corroboration_bootstrap(trial_psi, TRIAL_N, grid, B=100_000, master_seed=17)
        normal = m.corroboration_normal_curve(trial_psi, TRIAL_N, grid)
        assert np.max(np.abs(boot.values - normal.values)) < 0.02

    def test_lattice_atoms_split_by_normal_approximation(self, trial_psi):
        # at theta = 33/110 = 0.3 the exact resampling law has an atom of
        # mass ~0.08; closed membership keeps all of it, the normal curve
        # takes half, so the gap sits near 0.045 by construction
        boot = m.corroboration_bootstrap(
            trial_psi, TRIAL_N, np.array([0.3]), B=100_000, master_seed=17
        )
        normal = m.corroboration_normal(trial_psi, TRIAL_N, 0.3)
        assert boot.values[0] - normal > 0.03


class TestAsymptotic:
    def test_interior_and_exterior(self):
        psi = m.PsiMissing(0.29, 0.49, 0.22)
        assert m.asymptotic_corroboration(psi, 0.4) == 1.0
        assert m.asymptotic_corroboration(psi, 0.1) == 0.0
        assert m.asymptotic_corroboration(psi, 0.9) == 0.0

    def test_missing_boundaries(self):
        psi = m.PsiMissing(0.3, 0.5, 0.2)
        assert m.asymptotic_corroboration(psi, 0.3) == 0.5
        assert m.asymptotic_corroboration(psi, 0.5) == 0.5

    def test_missing_undefined_cells(self):
        # lower endpoint at zero / upper endpoint at one have no stated limit
        assert m.asymptotic_corroboration(m.PsiMissing(0.0, 0.8, 0.2), 0.0) is None
        assert m.asymptotic_corroboration(m.PsiMissing(0.3, 0.0, 0.7), 1.0) is None

    def test_matched_upper_boundary(self):
        assert m.asymptotic_corroboration(m.PsiMatched(0.3, 0.3), 0.3) == 0.25
        assert m.asymptotic_corroboration(m.PsiMatched(0.3, 0.5), 0.3) == 0.5

    def test_matched_lower_boundary(self):
        # margins summing to 1 trigger the 0.5 branch, below 1 the set is
        # eventually covered on that side
        assert m.asymptotic_corroboration(m.PsiMatched(0.1, 0.9), 0.0) == 0.5
        assert m.asymptotic_corroboration(m.PsiMatched(0.3, 0.3), 0.0) == 1.0
        psi = m.PsiMatched(0.6, 0.5)
        lower = m.theta_interval(psi).lower
        assert m.asymptotic_corroboration(psi, lower) == 0.5

    def test_degenerate_region_undefined(self):
        assert m.asymptotic_corroboration(m.PsiMatched(0.0, 0.5), 0.0) is None

    def test_out_of_domain(self):
        with pytest.raises(m.ValidationError):
            m.asymptotic_corroboration(m.PsiMatched(0.3, 0.3), 1.5)


class TestLevelSets:
    def test_max_set_trial_normal(self, trial_psi):
        curve = m.corroboration_normal_curve(trial_psi, TRIAL_N)
        result = m.max_corroboration_set(curve, 0.0)
        assert result.kind == "max_set"
        assert result.interval.lower == result.interval.upper
        assert result.interval.lower == pytest.approx(0.40, abs=0.005)

    def test_h_one_spans_grid(self, trial_psi):
        curve = m.corroboration_normal_curve(trial_psi, TRIAL_N)
        result = m.max_corroboration_set(curve, 1.0)
        assert result.interval.lower == curve.grid[0]
        assert result.interval.upper == curve.grid[-1]

    def test_h_nesting(self, trial_psi):
        curve = m.corroboration_bootstrap(trial_psi, TRIAL_N, B=2000, master_seed=2)
        intervals = [m.max_corroboration_set(curve, h).interval for h in (0.0, 0.05, 0.2, 0.7)]
        for small, big in zip(intervals, intervals[1:]):
            assert big.lower <= small.lower and small.upper <= big.upper

    def test_level_nesting_exact(self, trial_psi):
        curve = m.corroboration_bootstrap(trial_psi, TRIAL_N, B=2000, master_seed=2)
        levels = (0.1, 0.3, 0.5, 0.7, 0.9)
        sets = [m.level_set(curve, a).interval for a in levels]
        for lower_level, higher_level in zip(sets, sets[1:]):
            assert lower_level.lower <= higher_level.lower
            assert higher_level.upper <= lower_level.upper

    def test_level_set_trial_table_row(self, trial_psi):
        curve = m.corroboration_normal_curve(trial_psi, TRIAL_N)
        result = m.level_set(curve, 0.5)
        for theta in (0.3, 0.4, 0.5):
            assert result.interval.contains(theta)
        region = m.theta_interval(trial_psi)
        assert result.interval.lower > region.lower - 0.02
        assert result.interval.upper < region.upper + 0.02

    def test_empty_level_set(self, trial_psi):
        curve = m.corroboration_normal_curve(trial_psi, TRIAL_N)
        assert curve.values.max() < 1.0
        with pytest.raises(m.EmptyLevelSet):
            m.level_set(curve, 1.0)

    def test_alpha_near_zero_spans_positive_values(self, trial_psi):
        curve = m.corroboration_bootstrap(trial_psi, TRIAL_N, B=500, master_seed=4)
        result = m.level_set(curve, 1e-9)
        positive = curve.grid[curve.values > 0]
        assert result.interval.lower == positive.min()
        assert result.interval.upper == positive.max()

    def test_bad_inputs(self, trial_psi):
        curve = m.corroboration_normal_curve(trial_psi, TRIAL_N)
        with pytest.raises(m.ValidationError):
            m.level_set(curve, 0.0)
        with pytest.raises(m.ValidationError):
            m.max_corroboration_set(curve, -0.1)


class TestQuasiConcavity:
    def test_normal_curve(self, trial_psi):
        curve = m.corroboration_normal_curve(trial_psi, TRIAL_N)
        assert quasiconcave_violation(curve.values) <= 1e-6

    def test_bootstrap_curve_with_common_numbers(self, trial_psi):
        B = 5000
        curve = m.corroboration_bootstrap(trial_psi, TRIAL_N, B=B, master_seed=19)
        assert quasiconcave_violation(curve.values) <= 2.0 / np.sqrt(B)


class TestConvergenceTrend:
    def test_interior_point_approaches_one(self):
        psi0 = m.PsiMissing(0.3, 0.5, 0.2)
        values = []
        for i, n in enumerate((100, 10_000)):
            curve = m.corroboration_bootstrap(
                psi0, n, grid=np.array([0.4]), B=1000, master_seed=m.derive_seed(23, i)
            )
            values.append(curve.values[0])
        assert values[0] < values[1]
        assert values[1] > 0.99


class TestCurveContainer:
    def test_grid_validation(self, trial_psi):
        with pytest.raises(m.ValidationError):
            m.CorroborationCurve(
                grid=np.array([0.5, 0.4]), values=np.array([0.1, 0.2]),
                method="normal", psi_at=trial_psi, sizes=10,
            )
        with pytest.raises(m.ValidationError):
            m.CorroborationCurve(
                grid=np.array([0.4, 0.5]), values=np.array([0.1, 1.2]),
                method="normal", psi_at=trial_psi, sizes=10,
            )
        with pytest.raises(m.ValidationError):
            m.CorroborationCurve(
                grid=np.array([0.4, 0.5]), values=np.array([0.1, 0.2]),
                method="bootstrap", psi_at=trial_psi, sizes=10, B=None,
            )

    def test_lattice_validation(self, trial_psi):
        with pytest.raises(m.ValidationError):
            m.CorroborationCurve(
                grid=np.array([0.4]), values=np.array([0.123]),
                method="bootstrap", psi_at=trial_psi, sizes=10, B=10,
            )

    def test_value_at_requires_grid_point(self, trial_psi):
        curve = m.corroboration_bootstrap(trial_psi, TRIAL_N, B=100, master_seed=0)
        with pytest.raises(m.ValidationError):
            curve.value_at(0.12345)

    def test_csv_round_trip(self, trial_psi, tmp_path):
        curve = m.corroboration_bootstrap(
            trial_psi, TRIAL_N, grid=np.linspace(0, 1, 11), B=200, master_seed=3
        )
        text = curve.to_csv_text()
        assert text.splitlines()[0] == "theta,corroboration"
        assert len(text.splitlines()) == 12
        path = tmp_path / "curve.csv"
        curve.to_csv(str(path))
        assert path.read_text(encoding="utf-8") == text
        buffer = io.StringIO()
        curve.to_csv(buffer)
        assert buffer.getvalue() == text
