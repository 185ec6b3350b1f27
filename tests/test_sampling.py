import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import minfer as m
from minfer.corroborate import bounds_batch_from_rng, bounds_batch_streams
from minfer.sampling import replicate_rngs
from oracles import numpy_stream


class TestStreams:
    def test_same_stream_reproduces(self):
        stream = m.ReplicateStream(42, 7)
        psi = m.PsiMissing(0.3, 0.5, 0.2)
        assert m.draw_observed(psi, 200, stream) == m.draw_observed(psi, 200, stream)

    def test_distinct_indices_differ(self):
        psi = m.PsiMissing(0.3, 0.5, 0.2)
        tables = {
            m.draw_observed(psi, 10_000, m.ReplicateStream(42, i)) for i in range(8)
        }
        assert len(tables) == 8

    def test_distinct_master_seeds_differ(self):
        psi = m.PsiMatched(0.4, 0.6)
        a = m.draw_observed(psi, (10_000, 10_000), m.ReplicateStream(1, 0))
        b = m.draw_observed(psi, (10_000, 10_000), m.ReplicateStream(2, 0))
        assert a != b

    def test_derive_seed_deterministic_and_distinct(self):
        assert m.derive_seed(5, 3) == m.derive_seed(5, 3)
        seeds = {m.derive_seed(5, i) for i in range(100)}
        assert len(seeds) == 100
        assert m.derive_seed(5, 1, 2) != m.derive_seed(5, 2, 1)


class TestDrawObserved:
    def test_degenerate_psi(self):
        psi = m.PsiMissing(1.0, 0.0, 0.0)
        for i in range(5):
            table = m.draw_observed(psi, 50, m.ReplicateStream(0, i))
            assert table == m.MissingTable(50, 0, 0)

    def test_matched_four_sigma_band(self):
        psi = m.PsiMatched(0.5, 0.5)
        table = m.draw_observed(psi, (10**6, 10**6), m.ReplicateStream(123, 0))
        assert abs(table.nx / table.n1 - 0.5) < 0.002
        assert abs(table.ny / table.n2 - 0.5) < 0.002

    def test_counts_total(self):
        psi = m.PsiMissing(0.2, 0.5, 0.3)
        table = m.draw_observed(psi, 321, m.ReplicateStream(9, 0))
        assert table.n == 321

    def test_bad_sizes_rejected(self):
        with pytest.raises(m.ValidationError):
            m.draw_observed(m.PsiMissing(0.2, 0.5, 0.3), 0, m.ReplicateStream(0, 0))
        with pytest.raises(m.ValidationError):
            m.draw_observed(m.PsiMatched(0.2, 0.5), (0, 5), m.ReplicateStream(0, 0))


class TestPinnedDraws:
    """Replicate draws recorded before the per-setting draw code was merged
    into one ``draw`` per parameter type (the corroboration test and the
    consistency check: before the replicate streams were seeded in one
    batch): a change in the order or kind of random calls, in how streams
    are seeded, or in how bounds are formed from counts, shows here."""

    MISSING = (m.PsiMissing(0.3, 0.5, 0.2), 50)
    MATCHED = (m.PsiMatched(0.4, 0.7), (30, 20))
    GRID = np.linspace(0.0, 1.0, 41)

    def test_draw_observed(self):
        stream = m.ReplicateStream(7, 3)
        assert m.draw_observed(*self.MISSING, stream) == m.MissingTable(22, 24, 4)
        assert m.draw_observed(*self.MATCHED, stream) == m.MatchedTable(18, 30, 17, 20)

    def test_bounds_batch_streams(self):
        lo, up = bounds_batch_streams(*self.MISSING, 6, 11)
        assert lo.tolist() == [0.38, 0.36, 0.24, 0.16, 0.26, 0.24]
        assert up.tolist() == [0.6, 0.54, 0.46, 0.34, 0.48, 0.54]
        lo, up = bounds_batch_streams(*self.MATCHED, 6, 11)
        assert lo.tolist() == [0.10000000000000009, 0.16666666666666652, 0.0, 0.0, 0.0, 0.0]
        assert up.tolist() == [
            0.5, 0.4666666666666667, 0.3, 0.2, 0.3333333333333333, 0.3333333333333333
        ]

    def test_bounds_batch_from_rng(self):
        lo, up = bounds_batch_from_rng(*self.MISSING, 6, np.random.default_rng(5))
        assert lo.tolist() == [0.36, 0.3, 0.2, 0.28, 0.2, 0.32]
        assert up.tolist() == [0.58, 0.46, 0.42, 0.4, 0.62, 0.48]
        lo, up = bounds_batch_from_rng(*self.MATCHED, 6, np.random.default_rng(5))
        assert lo.tolist() == [
            0.21666666666666679, 0.31666666666666665, 0.25, 0.0, 0.0, 0.16666666666666674
        ]
        assert up.tolist() == [
            0.4666666666666667, 0.4666666666666667, 0.4, 0.3333333333333333,
            0.26666666666666666, 0.36666666666666664,
        ]

    @pytest.mark.parametrize(
        "data,inner,expected",
        [
            (m.MissingTable(32, 54, 24), "normal",
             [(0.0, 0.40499999999999997, 0.40499999999999997, 5), (1.0, 0.37, 0.445, 0)]),
            (m.MissingTable(32, 54, 24), "bootstrap",
             [(0.4, 0.4, 0.42000000000000004, 3), (1.0, 0.37500000000000006, 0.445, 0)]),
            (m.MatchedTable(30, 100, 40, 120), "bootstrap",
             [(1.0, 0.0, 0.17, 0), (1.0, 0.0, 0.205, 0)]),
        ],
    )
    def test_assurance_replicates(self, data, inner, expected):
        reports = m.assurance_sweep(
            data, [0.0, 0.1], B_outer=5, inner_method=inner, inner_B=40,
            master_seed=9, grid=self.GRID,
        )
        assert [(r.tau_hat, r.L_bar, r.U_bar, r.singleton_count) for r in reports] == expected

    def test_ml_region_replicates(self):
        missing = m.assurance_of_ml_region(m.MissingTable(32, 54, 24), B_outer=7, master_seed=9)
        assert (missing.tau_hat, missing.L_bar, missing.U_bar) == (
            0.0, 0.3103896103896104, 0.5155844155844156
        )
        matched = m.assurance_of_ml_region(
            m.MatchedTable(30, 100, 40, 120), B_outer=7, master_seed=9
        )
        assert (matched.tau_hat, matched.L_bar, matched.U_bar) == (
            0.8571428571428571, 0.0, 0.26976190476190476
        )


    def test_corroboration_test_bootstrap(self):
        missing = m.corroboration_test(
            m.MissingTable(32, 54, 24), 0.45, method="bootstrap", B=40, master_seed=9
        )
        assert (missing.observed_corroboration, missing.decision) == (0.85, "not_reject")
        matched = m.corroboration_test(
            m.MatchedTable(30, 100, 40, 120), 0.25, method="bootstrap", B=40, master_seed=9
        )
        assert (matched.observed_corroboration, matched.decision) == (0.825, "not_reject")

    def test_chernoff_consistency_check(self):
        # one stream batch per schedule entry, seeded by derive_seed's 64-bit
        # outputs: the two-word master-seed path
        missing = m.chernoff_consistency_check(
            m.PsiMissing(0.3, 0.5, 0.2), 0.35, [10, 40], reps=30, master_seed=9
        )
        assert missing == [(10, 0.5666666666666667), (40, 0.23333333333333334)]
        matched = m.chernoff_consistency_check(
            m.PsiMatched(0.4, 0.7), 0.05, [10, 40], reps=30, master_seed=9
        )
        assert matched == [(10, 0.6666666666666666), (40, 0.6666666666666666)]


def _same_stream(rng: np.random.Generator, oracle: np.random.Generator) -> None:
    assert rng.bit_generator.state == oracle.bit_generator.state
    # a nested bootstrap keeps drawing from the outer replicate's generator
    assert rng.binomial(50, 0.3) == oracle.binomial(50, 0.3)
    assert rng.random(4).tolist() == oracle.random(4).tolist()
    assert rng.bit_generator.state == oracle.bit_generator.state


# one word, two words, a full 64-bit word pair, entropy past SeedSequence's
# 4-word pool, and the 64-bit child seeds nested layers use
ORACLE_SEEDS = [
    0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**130 + 12345,
    m.derive_seed(9, 0), m.derive_seed(2026, 3, 7),
]


class TestSeedingOracle:
    """The library hashes batches of seeds itself; numpy's SeedSequence is the oracle."""

    @pytest.mark.parametrize("B", [1, 5000])
    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    def test_replicate_rngs_match_numpy(self, seed, B):
        checked = 0
        for b, rng in enumerate(replicate_rngs(seed, B)):
            if b in (0, 1, B - 1):
                _same_stream(rng, numpy_stream(seed, b))
                checked += 1
        assert b == B - 1 and checked == min(B, 3)

    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    def test_replicate_stream_matches_numpy(self, seed):
        for b in (0, 1, 4999, 2**32, 2**40 + 5):
            _same_stream(m.ReplicateStream(seed, b).rng(), numpy_stream(seed, b))

    @pytest.mark.parametrize("key", [(), (0,), (3,), (1, 2), (2**40, 5), (1, 2, 3, 4, 5)])
    def test_derive_seed_matches_numpy(self, key):
        for seed in ORACLE_SEEDS:
            words = np.random.SeedSequence(seed, spawn_key=key).generate_state(1, np.uint64)
            assert m.derive_seed(seed, *key) == int(words[0])

    @pytest.mark.parametrize("seed", [0, 2**32, 2**130 + 12345])
    def test_streams_spawn_as_numpy_streams_do(self, seed):
        batched = next(itertools.islice(replicate_rngs(seed, 3), 2, None))
        for rng in (m.ReplicateStream(seed, 2).rng(), batched):
            oracle = numpy_stream(seed, 2)
            for _ in range(2):  # a second spawn continues the children's keys
                for child, child_oracle in zip(rng.spawn(2), oracle.spawn(2)):
                    _same_stream(child, child_oracle)
            _same_stream(rng, oracle)
            seq, oracle_seq = rng.bit_generator.seed_seq, oracle.bit_generator.seed_seq
            assert (seq.entropy, seq.spawn_key, seq.n_children_spawned) == (
                oracle_seq.entropy, oracle_seq.spawn_key, oracle_seq.n_children_spawned
            )
            assert seq.generate_state(3).tolist() == oracle_seq.generate_state(3).tolist()

    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    def test_replicate_rngs_from_a_start(self, seed):
        for start in (1, 7, 2500, 2**32 - 3):
            for b, rng in zip(range(start, start + 3), replicate_rngs(seed, 3, start)):
                _same_stream(rng, numpy_stream(seed, b))

    def test_bad_start_rejected(self):
        for start in (-1, 1.5, True):
            with pytest.raises(m.ValidationError, match="first replicate index"):
                replicate_rngs(0, 3, start)
        # every index must fit one 32-bit spawn word
        with pytest.raises(m.ValidationError, match="2\\*\\*32"):
            replicate_rngs(0, 3, 2**32 - 2)

    def test_numpy_integer_seed(self):
        for b, rng in enumerate(replicate_rngs(np.uint64(2**64 - 1), 3)):
            _same_stream(rng, numpy_stream(2**64 - 1, b))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**160 - 1), b=st.integers(0, 10**4 - 1))
    def test_any_seed_and_index(self, seed, b):
        _same_stream(m.ReplicateStream(seed, b).rng(), numpy_stream(seed, b))
        rng = next(itertools.islice(replicate_rngs(seed, b + 1), b, None))
        _same_stream(rng, numpy_stream(seed, b))


class TestMasterSeedValidation:
    @pytest.mark.parametrize("seed", [-1, -(2**70), 1.5, 2.0, "3", True, None])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(m.ValidationError, match="master seed"):
            replicate_rngs(seed, 5)
        with pytest.raises(m.ValidationError, match="master seed"):
            m.ReplicateStream(seed, 0).rng()
        with pytest.raises(m.ValidationError, match="master seed"):
            m.derive_seed(seed, 0)

    def test_bad_keys_rejected(self):
        with pytest.raises(m.ValidationError):
            m.ReplicateStream(0, -1).rng()
        with pytest.raises(m.ValidationError):
            m.derive_seed(0, 1, -2)

    def test_library_calls_raise_validation_error(self):
        psi = m.PsiMissing(0.3, 0.5, 0.2)
        data = m.MissingTable(32, 54, 24)
        with pytest.raises(m.ValidationError, match="master seed"):
            m.corroboration_bootstrap(psi, 50, B=10, master_seed=-1)
        with pytest.raises(m.ValidationError, match="master seed"):
            m.assurance_sweep(data, [0.1], B_outer=5, master_seed=-5)
        with pytest.raises(m.ValidationError, match="master seed"):
            m.assurance_of_ml_region(data, B_outer=5, master_seed=-5)
        with pytest.raises(m.ValidationError, match="master seed"):
            m.chernoff_consistency_check(psi, 0.35, [10], reps=5, master_seed=-1)


class TestSeedingIsBatched:
    def test_no_per_replicate_seed_sequence(self, monkeypatch):
        # counts, not timings: a return to one SeedSequence or default_rng
        # per replicate on the batched paths shows as calls here
        calls = []

        def counting(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.random, "SeedSequence", counting(np.random.SeedSequence))
        monkeypatch.setattr(np.random, "default_rng", counting(np.random.default_rng))
        numpy_stream(3, 0)
        assert calls == ["SeedSequence", "default_rng"]
        curve = m.corroboration_bootstrap(m.PsiMissing(0.3, 0.5, 0.2), 50, B=500, master_seed=3)
        reports = m.assurance_sweep(
            m.MatchedTable(30, 100, 40, 120), [0.0], B_outer=20, inner_B=50, master_seed=3
        )
        assert curve.B == 500 and reports[0].B_outer == 20
        assert calls == ["SeedSequence", "default_rng"]


class TestDrawComplete:
    def test_degenerate(self):
        truth = m.SimTruth(1.0, 0.0, 0.0, 0.0)
        assert m.draw_complete(truth, 9, m.ReplicateStream(0, 0)) == (9, 0, 0, 0)

    def test_four_sigma_band_uniform(self):
        truth = m.SimTruth(0.25, 0.25, 0.25, 0.25)
        counts = m.draw_complete(truth, 4 * 10**6, m.ReplicateStream(77, 0))
        assert sum(counts) == 4 * 10**6
        for c in counts:
            assert abs(c - 10**6) < 3465

    def test_reproducible(self):
        truth = m.SimTruth(0.1, 0.2, 0.3, 0.4)
        stream = m.ReplicateStream(5, 11)
        assert m.draw_complete(truth, 1000, stream) == m.draw_complete(truth, 1000, stream)

    def test_simplex_validation(self):
        with pytest.raises(m.ValidationError):
            m.SimTruth(0.5, 0.5, 0.5, 0.5)
        with pytest.raises(m.ValidationError):
            m.SimTruth(1.2, -0.2, 0.0, 0.0)


class TestSimTruthMaps:
    def test_identifiable_parameters(self):
        truth = m.SimTruth(0.1, 0.2, 0.3, 0.4)
        assert truth.psi_missing() == m.PsiMissing(0.1, 0.3, 0.2 + 0.4)
        assert truth.psi_matched() == m.PsiMatched(0.1 + 0.2, 0.1 + 0.3)
        assert truth.theta_missing() == pytest.approx(0.3)
        assert truth.theta_matched() == 0.1

    def test_theta_sits_in_both_regions(self):
        truth = m.SimTruth(0.15, 0.25, 0.35, 0.25)
        assert m.theta_interval(truth.psi_missing()).contains(truth.theta_missing())
        assert m.theta_interval(truth.psi_matched()).contains(truth.theta_matched())


def _compositions(n: int):
    for a in range(n + 1):
        for b in range(n - a + 1):
            yield a, b, n - a - b


def _merged_chisquare(observed: dict, expected: dict, reps: int) -> float:
    # merge cells with tiny expectation into one bucket, then chi-square
    obs, exp = [], []
    tail_obs = tail_exp = 0.0
    for cell, e in expected.items():
        o = observed.get(cell, 0)
        if e * reps < 5.0:
            tail_obs += o
            tail_exp += e * reps
        else:
            obs.append(o)
            exp.append(e * reps)
    if tail_exp > 0.0:
        obs.append(tail_obs)
        exp.append(tail_exp)
    exp = np.asarray(exp) * (sum(obs) / sum(exp))
    return stats.chisquare(obs, exp).pvalue


class TestGoodnessOfFit:
    REPS = 100_000

    @pytest.mark.parametrize(
        "psi,seed",
        [
            (m.PsiMissing(0.3, 0.5, 0.2), 101),
            (m.PsiMissing(0.05, 0.05, 0.9), 102),
            (m.PsiMissing(1 / 3, 1 / 3, 1 / 3), 103),
        ],
    )
    def test_missing_law(self, psi, seed):
        n = 5
        observed: dict = {}
        for b in range(self.REPS):
            t = m.draw_observed(psi, n, m.ReplicateStream(seed, b))
            key = (t.n11, t.n01, t.n_plus0)
            observed[key] = observed.get(key, 0) + 1
        expected = {
            cell: math.exp(stats.multinomial.logpmf(cell, n, [psi.l11, psi.l01, psi.l_plus0]))
            for cell in _compositions(n)
        }
        assert _merged_chisquare(observed, expected, self.REPS) > 0.001

    def test_matched_law(self):
        psi = m.PsiMatched(0.35, 0.7)
        n1, n2 = 6, 4
        observed: dict = {}
        for b in range(self.REPS):
            t = m.draw_observed(psi, (n1, n2), m.ReplicateStream(104, b))
            key = (t.nx, t.ny)
            observed[key] = observed.get(key, 0) + 1
        expected = {
            (x, y): stats.binom.pmf(x, n1, psi.l1p) * stats.binom.pmf(y, n2, psi.lp1)
            for x in range(n1 + 1)
            for y in range(n2 + 1)
        }
        assert _merged_chisquare(observed, expected, self.REPS) > 0.001

    def test_complete_collapses_to_missing_law(self):
        # collapsing (n10 + n00) must reproduce the missing-data law
        truth = m.SimTruth(0.2, 0.1, 0.4, 0.3)
        psi = truth.psi_missing()
        n = 5
        observed: dict = {}
        for b in range(self.REPS):
            n11, n10, n01, n00 = m.draw_complete(truth, n, m.ReplicateStream(105, b))
            key = (n11, n01, n10 + n00)
            observed[key] = observed.get(key, 0) + 1
        expected = {
            cell: math.exp(stats.multinomial.logpmf(cell, n, [psi.l11, psi.l01, psi.l_plus0]))
            for cell in _compositions(n)
        }
        assert _merged_chisquare(observed, expected, self.REPS) > 0.001

    def test_complete_margin_is_binomial(self):
        # the X margin of a complete table follows the matched-data law
        truth = m.SimTruth(0.2, 0.1, 0.4, 0.3)
        n1 = 8
        observed: dict = {}
        for b in range(self.REPS // 2):
            n11, n10, _, _ = m.draw_complete(truth, n1, m.ReplicateStream(106, b))
            key = n11 + n10
            observed[key] = observed.get(key, 0) + 1
        expected = {
            x: stats.binom.pmf(x, n1, truth.psi_matched().l1p) for x in range(n1 + 1)
        }
        assert _merged_chisquare(observed, expected, self.REPS // 2) > 0.001
