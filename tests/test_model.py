import numpy as np
import pytest

import minfer as m


class TestValidate:
    def test_trial_counts(self):
        table = m.validate([32, 54, 24], "missing")
        assert table == m.MissingTable(32, 54, 24)
        assert table.n == 110

    def test_boundary_table_is_valid(self):
        table = m.validate([0, 0, 1], "missing")
        assert table == m.MissingTable(0, 0, 1)

    def test_matched_counts(self):
        table = m.validate([100, 1000, 450, 500], "matched")
        assert table == m.MatchedTable(nx=100, n1=1000, ny=450, n2=500)

    def test_margin_exceeding_size_rejected(self):
        with pytest.raises(m.ValidationError) as info:
            m.validate([5, 3, 2, 4], "matched")
        assert (info.value.name, info.value.rule) == ("counts", "nx = 5 exceeds n1 = 3")
        with pytest.raises(m.ValidationError) as info:
            m.validate([1, 3, 5, 4], "matched")
        assert (info.value.name, info.value.rule) == ("counts", "ny = 5 exceeds n2 = 4")

    def test_negative_count_rejected(self):
        with pytest.raises(m.ValidationError) as info:
            m.validate([-1, 5, 5], "missing")
        assert (info.value.name, info.value.value, info.value.rule) == ("n11", -1, "is negative")
        with pytest.raises(m.ValidationError) as info:
            m.validate([1, 5, -2, 5], "matched")
        assert (info.value.name, info.value.value, info.value.rule) == ("ny", -2, "is negative")

    def test_empty_sample_rejected(self):
        with pytest.raises(m.ValidationError) as info:
            m.validate([0, 0, 0], "missing")
        assert (info.value.name, info.value.rule) == ("counts", "must total at least 1")
        with pytest.raises(m.ValidationError) as info:
            m.validate([0, 0, 0, 5], "matched")
        assert (info.value.name, info.value.rule) == ("counts", "must have n1 and n2 at least 1")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"),
                                       np.float64("nan"), "a", None])
    def test_non_number_count_rejected(self, value):
        with pytest.raises(m.ValidationError) as info:
            m.MissingTable(value, 1, 2)
        assert (info.value.name, info.value.value) == ("n11", repr(value))
        assert info.value.rule == "must be an integer"

    def test_int64_total_is_the_largest(self):
        assert m.MissingTable(2**63 - 1, 0, 0).n == 2**63 - 1
        assert m.MatchedTable(0, 2**63 - 1, 2**63 - 1, 2**63 - 1).sizes == (2**63 - 1,) * 2
        rule = "must total at most 9223372036854775807"
        for counts in ([2**62, 2**62, 0], [2**63, 0, 0], [10**20, 1, 2]):
            with pytest.raises(m.ValidationError) as info:
                m.MissingTable(*counts)
            assert (info.value.name, info.value.rule) == ("counts", rule)
        rule = "must have n1 and n2 at most 9223372036854775807"
        for counts in ([1, 10**20, 1, 2], [1, 2, 1, 2**63]):
            with pytest.raises(m.ValidationError) as info:
                m.MatchedTable(*counts)
            assert (info.value.name, info.value.rule) == ("counts", rule)

    def test_wrong_length_rejected(self):
        with pytest.raises(m.ValidationError):
            m.validate([1, 2], "missing")
        with pytest.raises(m.ValidationError):
            m.validate([1, 2, 3], "matched")

    def test_unknown_setting_rejected(self):
        with pytest.raises(m.ValidationError):
            m.validate([1, 2, 3], "stratified")

    def test_non_integer_rejected(self):
        with pytest.raises(m.ValidationError):
            m.validate([1.5, 2, 3], "missing")


class TestMlePsi:
    def test_trial(self):
        psi = m.mle_psi(m.MissingTable(32, 54, 24))
        assert psi == m.PsiMissing(32 / 110, 54 / 110, 24 / 110)

    def test_matched_proportions(self):
        psi = m.mle_psi(m.MatchedTable(nx=100, n1=1000, ny=450, n2=500))
        assert psi == m.PsiMatched(0.1, 0.9)

    def test_degenerate_corner(self):
        psi = m.mle_psi(m.MissingTable(0, 0, 10))
        assert psi == m.PsiMissing(0.0, 0.0, 1.0)

    def test_round_trip_on_integral_expected_counts(self, rng):
        # psi -> expected counts n*psi -> mle recovers psi exactly
        for _ in range(200):
            counts = rng.integers(1, 50, size=3)
            n = int(counts.sum())
            psi = m.PsiMissing(*(int(c) / n for c in counts))
            scale = int(rng.integers(1, 5))
            table = m.MissingTable(*(int(c) * scale for c in counts))
            assert m.mle_psi(table) == psi

    def test_output_respects_simplex(self, rng):
        for _ in range(200):
            counts = [int(c) for c in rng.integers(0, 30, size=3)]
            if sum(counts) == 0:
                continue
            psi = m.mle_psi(m.MissingTable(*counts))
            assert 0.0 <= min(psi.l11, psi.l01, psi.l_plus0)
            assert abs(psi.l11 + psi.l01 + psi.l_plus0 - 1.0) <= 1e-12


class TestPsiInvariants:
    def test_simplex_violation_rejected(self):
        with pytest.raises(m.ValidationError):
            m.PsiMissing(0.5, 0.5, 0.5)

    def test_component_out_of_range_rejected(self):
        with pytest.raises(m.ValidationError):
            m.PsiMissing(1.2, -0.2, 0.0)
        with pytest.raises(m.ValidationError):
            m.PsiMatched(1.01, 0.5)

    def test_matched_components_are_free(self):
        m.PsiMatched(1.0, 0.0)
        m.PsiMatched(0.3, 0.3)
