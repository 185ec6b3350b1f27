import numpy as np
import pytest

import minfer as m
from oracles import numpy_stream


class TestThetaInterval:
    def test_matched_frechet_examples(self):
        assert m.theta_interval(m.PsiMatched(0.1, 0.9)) == m.ThetaInterval(0.0, 0.1)
        assert m.theta_interval(m.PsiMatched(0.3, 0.3)) == m.ThetaInterval(0.0, 0.3)

    def test_missing_example(self, trial_psi):
        region = m.theta_interval(trial_psi)
        assert region.lower == pytest.approx(0.290909, abs=5e-7)
        assert region.upper == pytest.approx(0.509091, abs=5e-7)

    def test_width_equals_nonresponse_share(self, rng):
        # (l11 + l_plus0) - l11 may round once; one ulp of slack
        for _ in range(300):
            raw = rng.dirichlet([1.0, 1.0, 1.0])
            psi = m.PsiMissing(*(raw / raw.sum()))
            region = m.theta_interval(psi)
            assert region.width == pytest.approx(psi.l_plus0, abs=5e-16)

    def test_frechet_sanity_randomized(self, rng):
        a, b = rng.random(20000), rng.random(20000)
        assert np.all(np.maximum(a + b - 1.0, 0.0) <= np.minimum(a, b))

    def test_invalid_interval_rejected(self):
        with pytest.raises(m.ValidationError):
            m.ThetaInterval(0.6, 0.4)
        with pytest.raises(m.ValidationError):
            m.ThetaInterval(-0.1, 0.5)


class TestMembership:
    def test_closed_vs_strict(self):
        region = m.ThetaInterval(0.2, 0.6)
        assert region.contains(0.2) and region.contains(0.6)
        assert not region.strictly_inside(0.2)
        assert not region.strictly_inside(0.6)
        assert region.strictly_inside(0.4)
        assert not region.contains(0.61)

    def test_point_interval(self):
        point = m.ThetaInterval(0.5, 0.5)
        assert point.contains(0.5)
        assert not point.strictly_inside(0.5)
        assert point.width == 0.0


class TestMlRegion:
    def test_trial_exact_rationals(self, trial):
        from fractions import Fraction

        region = m.ml_region(trial)
        assert region.lower == float(Fraction(32, 110))
        assert region.upper == float(Fraction(56, 110))

    def test_degenerate_matched(self):
        assert m.ml_region(m.MatchedTable(0, 10, 0, 10)) == m.ThetaInterval(0.0, 0.0)

    def test_no_missingness(self):
        assert m.ml_region(m.MissingTable(10, 0, 0)) == m.ThetaInterval(1.0, 1.0)

    def test_agrees_with_plugin_interval(self, rng):
        for _ in range(300):
            counts = [int(c) for c in rng.integers(0, 40, size=3)]
            if sum(counts) == 0:
                continue
            table = m.MissingTable(*counts)
            direct = m.ml_region(table)
            via_psi = m.theta_interval(m.mle_psi(table))
            assert direct.lower == via_psi.lower
            assert direct.upper == pytest.approx(via_psi.upper, abs=5e-16)


class TestConsistency:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_missing_region_converges(self, seed):
        psi0 = m.PsiMissing(0.3, 0.5, 0.2)
        target = m.theta_interval(psi0)
        distances = []
        for i, n in enumerate((100, 10_000, 1_000_000)):
            table = m.MissingTable(*psi0.draw(numpy_stream(seed, i), n))
            region = m.ml_region(table)
            distances.append(
                max(abs(region.lower - target.lower), abs(region.upper - target.upper))
            )
        assert distances[0] > distances[1] > distances[2]
        assert distances[2] < 5e-3

    @pytest.mark.parametrize("seed", [10, 11])
    def test_matched_region_converges(self, seed):
        psi0 = m.PsiMatched(0.3, 0.3)
        target = m.theta_interval(psi0)
        distances = []
        for i, n in enumerate((100, 10_000, 1_000_000)):
            nx, ny = psi0.draw(numpy_stream(seed, i), (n, n))
            table = m.MatchedTable(nx, n, ny, n)
            region = m.ml_region(table)
            distances.append(
                max(abs(region.lower - target.lower), abs(region.upper - target.upper))
            )
        assert distances[0] > distances[1] > distances[2]
        assert distances[2] < 5e-3
