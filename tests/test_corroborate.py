import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

import minfer as m
from minfer import _normal, corroborate
from minfer.corroborate import bounds_batch_streams
from minfer.sampling import ReplicateStream
from oracles import normal_owen, normal_panels, normal_quad

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
        expected = ndtr((0.5 - 0.4) / np.sqrt(0.4 * 0.6 / 50))
        assert value == pytest.approx(float(expected), abs=1e-9)
        curve = m.corroboration_normal_curve(psi, 50, np.linspace(0, 1, 11))
        assert np.all((0 <= curve.values) & (curve.values <= 1))

    def test_matched_psi_rejected(self):
        with pytest.raises(m.ValidationError):
            m.corroboration_normal(m.PsiMatched(0.3, 0.3), 100, 0.2)


def _rho(cells) -> float:
    # correlation of the two plug-in bounds under the normal approximation,
    # sqrt(l01 l11 / (l01 l11 + l_plus0)), free of n
    c11, c01, c0 = cells
    return math.sqrt(c01 * c11 / (c01 * c11 + c0 * sum(cells)))


# cell fractions per Genz band of rho: [0, 0.3), [0.3, 0.75), [0.75, 0.925),
# [0.925, 1); tables round them at n from 3 to 1.5e6
BAND_FRACTIONS = {
    (0.0, 0.3): (0.2, 0.1, 0.7),
    (0.3, 0.75): (0.3, 0.5, 0.2),
    (0.75, 0.925): (0.5, 0.4, 0.1),
    (0.925, 1.0): (0.5, 0.48, 0.02),
}
BAND_SIZES = (3, 4, 5, 7, 10, 20, 50, 110, 1000, 10**4, 10**5, 10**6, 1_500_000)


def _band_tables(fractions, lo, hi):
    tables = []
    for n in BAND_SIZES:
        c11 = max(1, round(fractions[0] * n))
        c0 = max(1, round(fractions[2] * n))
        cells = (c11, n - c11 - c0, c0)
        if cells[1] > 0 and lo <= _rho(cells) < hi:
            tables.append(cells)
    return tables


class TestNormalKernel:
    """The numpy Phi and Genz bivariate-normal kernel against scipy."""

    def test_phi_matches_scipy_ndtr(self):
        # both branch edges of Cephes' erf/erfc, the far tail past MAXLOG
        edges = np.sqrt(2.0) * np.array([0.5 ** 0.5, 1.0, 8.0, 709.78 ** 0.5])
        x = np.concatenate([np.linspace(-40.0, 40.0, 800_001), edges, -edges,
                            np.nextafter(edges, 0.0), np.nextafter(-edges, 0.0)])
        phi, phi_neg = _normal._ndtr_pair(x)
        assert np.max(np.abs(phi - ndtr(x))) <= 4.5e-16
        assert np.max(np.abs(phi_neg - ndtr(-x))) <= 4.5e-16
        # Phi(-x) keeps its precision in the upper tail, where 1 - Phi(x) is 0
        assert _normal._ndtr_pair(np.array([30.0]))[1][0] == ndtr(-30.0) > 0.0

    def test_gauss_legendre_rules(self):
        # nodes as numpy computes them; the weights integrate every power
        # below 2N exactly (numpy's own weights are off by up to 1.2e-15,
        # Genz's printed 6-point weights sum to 2 - 1.3e-15)
        for (nodes, weights), points in zip(_normal._RULES, (6, 12, 20)):
            nodes = nodes[:, 0]
            ref_nodes, _ = np.polynomial.legendre.leggauss(points)
            assert np.max(np.abs(np.sort(nodes) - ref_nodes)) <= 1e-15
            for j in range(2 * points):
                exact = 2.0 / (j + 1) if j % 2 == 0 else 0.0
                assert abs(np.sum(weights * nodes**j) - exact) <= 1e-15

    @pytest.mark.parametrize("band", list(BAND_FRACTIONS))
    def test_coverage_matches_owen_oracle(self, band):
        tables = _band_tables(BAND_FRACTIONS[band], *band)
        sizes = [sum(cells) for cells in tables]
        assert len(tables) >= 7 and min(sizes) <= 50 and max(sizes) == 1_500_000
        for cells in tables:
            n = sum(cells)
            psi = m.PsiMissing(*(c / n for c in cells))
            grid = np.union1d(m.default_grid(), [psi.l11, psi.l11 + psi.l_plus0])
            with warnings.catch_warnings():
                # h reaches ~1e3 at n = 1.5e6: exp underflows, nothing may
                # overflow or divide by zero
                warnings.simplefilter("error")
                values = m.corroboration_normal_curve(psi, n, grid).values
            assert np.max(np.abs(values - normal_owen(psi, n, grid))) <= 1e-15, cells

    def test_zero_width_tables_match_oracle(self):
        for cells in ((1, 0, 1), (1, 0, 4), (1425, 0, 1935), (400_000, 0, 1_100_000)):
            n = sum(cells)
            psi = m.PsiMissing(*(c / n for c in cells))
            values = m.corroboration_normal_curve(psi, n).values
            assert np.max(np.abs(values - normal_owen(psi, n, m.default_grid()))) <= 1e-15

    @pytest.mark.parametrize(
        "cells,theta,reference",
        [
            # a single n_plus0: rho = 0.96 at n = 50 and within 1e-5 of 1 at
            # n >= 2e5, where the Owen's-T form is off by up to 3e-15;
            # references by 40-digit quadrature
            ((197604, 96430, 1), 0.673, 0.0009224118144047076804),
            ((260349, 281264, 1), 0.48, 0.00069913834691577667949),
            ((260349, 281264, 1), 0.481, 0.0010604213628761320148),
            ((14277, 196598, 1), 0.067, 0.0016243715636982913617),
            ((25, 24, 1), 0.5, 0.12052767860126066805),
        ],
    )
    def test_near_unit_correlation(self, cells, theta, reference):
        n = sum(cells)
        psi = m.PsiMissing(*(c / n for c in cells))
        assert _rho(cells) >= 0.925
        assert abs(m.corroboration_normal(psi, n, theta) - reference) <= 5e-16


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
        # alpha = 1 and alpha just above the maximum; within the 1e-12 float
        # guard the maximum still qualifies
        for curve in (m.corroboration_normal_curve(trial_psi, TRIAL_N),
                      m.corroboration_bootstrap(trial_psi, TRIAL_N, B=500, master_seed=4)):
            top = float(curve.values.max())
            assert top < 1.0
            for alpha in (1.0, top + 1e-9):
                with pytest.raises(m.EmptyLevelSet):
                    m.level_set(curve, alpha)
            at_max = float(curve.grid[np.argmax(curve.values)])
            assert m.level_set(curve, top + 1e-13).interval.contains(at_max)

    def test_alpha_near_zero_spans_positive_values(self, trial_psi):
        curve = m.corroboration_bootstrap(trial_psi, TRIAL_N, B=500, master_seed=4)
        result = m.level_set(curve, 1e-9)
        positive = curve.grid[curve.values > 0]
        assert result.interval.lower == positive.min()
        assert result.interval.upper == positive.max()

    def test_alpha_on_a_curve_value(self, trial_psi):
        # a point whose value equals alpha qualifies, and no point below it
        curve = m.corroboration_bootstrap(trial_psi, TRIAL_N, B=500, master_seed=4)
        for alpha in np.unique(curve.values[curve.values > 0])[::7]:
            result = m.level_set(curve, float(alpha))
            qualifying = curve.grid[curve.values >= alpha]
            assert (result.interval.lower, result.interval.upper) == (
                qualifying.min(), qualifying.max()
            )
        top = curve.values.max()
        at_max = curve.grid[curve.values == top]
        result = m.level_set(curve, float(top))
        assert (result.interval.lower, result.interval.upper) == (at_max.min(), at_max.max())

    def test_bad_inputs(self, trial_psi):
        curve = m.corroboration_normal_curve(trial_psi, TRIAL_N)
        with pytest.raises(m.ValidationError):
            m.level_set(curve, 0.0)
        with pytest.raises(m.ValidationError):
            m.max_corroboration_set(curve, -0.1)


@st.composite
def missing_tables(draw, degenerate_variance=True):
    """Missing-data cells (c11, c01, c_plus0) with n from 1 to 1.5e6; without
    ``degenerate_variance``, 0 < c11 < n and 0 < c_plus0 < n."""
    low = 0 if degenerate_variance else 1
    n = draw(st.integers(1 if degenerate_variance else 2, 1_500_000))
    c11 = draw(st.integers(low, n - low))
    c0 = draw(st.integers(low, n - c11))
    return c11, n - c11 - c0, c0


matched_tables = st.tuples(st.integers(1, 300), st.integers(1, 300)).flatmap(
    lambda sizes: st.tuples(st.integers(0, sizes[0]), st.integers(0, sizes[1]), st.just(sizes))
)


def _curves(cells, B, seed):
    """The normal curve where it is defined, and the bootstrap curve, at the
    MLE of missing-data cells or of matched (nx, ny, (n1, n2))."""
    matched = isinstance(cells[2], tuple)
    if matched:
        nx, ny, sizes = cells
        psi, curves = m.PsiMatched(nx / sizes[0], ny / sizes[1]), []
    else:
        n = sum(cells)
        psi, sizes = m.PsiMissing(*(c / n for c in cells)), n
        try:
            curves = [m.corroboration_normal_curve(psi, n)]
        except m.DegenerateVariance:
            curves = []
    try:
        return [*curves, m.corroboration_bootstrap(psi, sizes, B=B, master_seed=seed)]
    except m.ValidationError:
        # the known matched fault: float Frechet bounds of a replicate invert
        # by one ulp, and a grid point between them counts -1 (e.g. psi =
        # (95/300, 1), sizes (300, 1), B = 3, seed 0); nothing else may raise
        lower, upper = bounds_batch_streams(psi, sizes, B, seed)
        assert matched and np.any(lower > upper)
        return curves


def _reference_hulls(values, grid, thresholds):
    lower, upper = [], []
    for threshold in thresholds:
        idx = np.nonzero(values >= threshold)[0]
        lower.append(grid[idx[0]])
        upper.append(grid[idx[-1]])
    return lower, upper


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(
        B=st.integers(1, 1000),
        data=st.data(),
    )
    def test_hulls_match_per_threshold_scan(self, B, data):
        # lattice values k / B with thresholds on curve values, between them
        # and just below them, as the max-set and level-set rules produce
        size = data.draw(st.integers(1, 60))
        counts = data.draw(st.lists(st.integers(0, B), min_size=size, max_size=size))
        values = np.array(counts) / B
        grid = np.sort(data.draw(st.lists(
            st.floats(0.0, 1.0), min_size=size, max_size=size, unique=True,
        )))
        on_curve = st.sampled_from(values.tolist())
        thresholds = data.draw(st.lists(st.one_of(
            on_curve,
            on_curve.map(lambda v: v - 0.5 / B),
            on_curve.map(lambda v: v - 1e-12),
            st.floats(-1.0, float(values.max())),
        ), min_size=1, max_size=6))
        lower, upper = corroborate._hulls(values, grid, np.array(thresholds))
        assert (lower.tolist(), upper.tolist()) == _reference_hulls(values, grid, thresholds)

    @settings(max_examples=60, deadline=None)
    @given(
        cells=st.one_of(missing_tables(), matched_tables),
        alphas=st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=5),
        B=st.integers(1, 200),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_level_sets_nested_in_alpha(self, cells, alphas, B, seed):
        for curve in _curves(cells, B, seed):
            sets = []
            for alpha in sorted(alphas):
                try:
                    sets.append(m.level_set(curve, alpha).interval)
                except m.EmptyLevelSet:
                    assert curve.values.max() < alpha
            for wide, narrow in zip(sets, sets[1:]):
                assert wide.lower <= narrow.lower <= narrow.upper <= wide.upper

    @settings(max_examples=60, deadline=None)
    @given(
        cells=st.one_of(missing_tables(), matched_tables),
        B=st.integers(1, 500),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_bootstrap_values_on_lattice(self, cells, B, seed):
        # each value is the float k / B of an integer count k of replicates
        for curve in _curves(cells, B, seed):
            if curve.method == "bootstrap":
                assert np.array_equal(curve.values, np.round(curve.values * B) / B)

    @settings(max_examples=200, deadline=None)
    @given(cells=missing_tables(degenerate_variance=False))
    def test_normal_coverage_within_lower_bound_law(self, cells):
        # P(L <= theta <= U) <= P(L <= theta) = Phi(h)
        n = sum(cells)
        psi = m.PsiMissing(*(c / n for c in cells))
        grid = m.default_grid()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = m.corroboration_normal_curve(psi, n, grid).values
        h = (grid - psi.l11) / math.sqrt(psi.l11 * (1.0 - psi.l11) / n)
        assert np.all(values >= 0.0)
        assert np.all(values <= ndtr(h) + 1e-15)


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
        for values in ([0.1, 1.2], [0.1, np.nan]):
            with pytest.raises(m.ValidationError):
                m.CorroborationCurve(
                    grid=np.array([0.4, 0.5]), values=np.array(values),
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
