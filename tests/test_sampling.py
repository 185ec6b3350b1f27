import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import minfer as m
from minfer import _binomial, corroborate
from minfer.corroborate import bounds_batch_from_rng, bounds_batch_streams
from minfer.sampling import _CHUNK, _generator, _replicate_counts, _state_words, _Streams
from oracles import SimTruth, child_seed, numpy_stream


def _cells(psi, sizes, stream: m.ReplicateStream) -> list[int]:
    return np.ravel(psi.draw(stream.rng(), sizes)).tolist()


class TestStreams:
    def test_same_stream_reproduces(self):
        stream = m.ReplicateStream(42, 7)
        psi = m.PsiMissing(0.3, 0.5, 0.2)
        assert _cells(psi, 200, stream) == _cells(psi, 200, stream)

    def test_distinct_indices_differ(self):
        psi = m.PsiMissing(0.3, 0.5, 0.2)
        tables = {tuple(_cells(psi, 10_000, m.ReplicateStream(42, i))) for i in range(8)}
        assert len(tables) == 8

    def test_distinct_master_seeds_differ(self):
        psi = m.PsiMatched(0.4, 0.6)
        a = _cells(psi, (10_000, 10_000), m.ReplicateStream(1, 0))
        b = _cells(psi, (10_000, 10_000), m.ReplicateStream(2, 0))
        assert a != b


class TestDrawObserved:
    """Replicate tables of the batch draw at psi."""

    def test_degenerate_psi(self):
        counts, _ = _replicate_counts(m.PsiMissing(1.0, 0.0, 0.0), 50, 5, 0)
        assert counts.T.tolist() == [[50, 0, 0]] * 5

    def test_matched_four_sigma_band(self):
        counts, _ = _replicate_counts(m.PsiMatched(0.5, 0.5), (10**6, 10**6), 1, 123)
        assert np.all(np.abs(counts / 10**6 - 0.5) < 0.002)

    def test_counts_total(self):
        counts, _ = _replicate_counts(m.PsiMissing(0.2, 0.5, 0.3), 321, 40, 9)
        assert counts.sum(axis=0).tolist() == [321] * 40

    def test_bad_sizes_rejected(self):
        # the public bootstrap refuses to draw replicates of size 0
        with pytest.raises(m.ValidationError, match="^sizes = 0 must be at least 1$"):
            m.corroboration_bootstrap(m.PsiMissing(0.2, 0.5, 0.3), 0, B=5)
        with pytest.raises(m.ValidationError, match="^sizes = 0 must be at least 1$"):
            m.corroboration_bootstrap(m.PsiMatched(0.2, 0.5), (0, 5), B=5)

    SIZED_CALLS = [
        lambda sizes: m.corroboration_bootstrap(m.PsiMissing(0.3, 0.3, 0.4), sizes, B=5),
        lambda sizes: m.corroboration_normal_curve(m.PsiMissing(0.3, 0.3, 0.4), sizes),
        lambda sizes: m.corroboration_normal(m.PsiMissing(0.3, 0.3, 0.4), sizes, 0.3),
        lambda sizes: bounds_batch_streams(m.PsiMissing(0.3, 0.3, 0.4), sizes, 5, 0),
        lambda sizes: m.corroboration_bootstrap(m.PsiMatched(0.3, 0.3), (sizes, 3), B=5),
        lambda sizes: m.corroboration_bootstrap(m.PsiMatched(0.3, 0.3), (3, sizes), B=5),
    ]

    @pytest.mark.parametrize("sizes", [2.5, 10.5, 10.0, True, np.float64(10.0), "10", None])
    @pytest.mark.parametrize("call", range(len(SIZED_CALLS)))
    def test_sizes_must_be_integers(self, call, sizes):
        # fractional and bool sizes returned curves
        with pytest.raises(m.ValidationError, match="^sizes = .* must be an integer$"):
            self.SIZED_CALLS[call](sizes)

    @pytest.mark.parametrize("sizes", [2**63, 10**20])
    @pytest.mark.parametrize("call", range(len(SIZED_CALLS)))
    def test_sizes_past_int64_rejected(self, call, sizes):
        # the draws raised OverflowError, and the normal curves returned values
        with pytest.raises(m.ValidationError,
                           match=f"^sizes = {sizes} must be at most {2**63 - 1}$"):
            self.SIZED_CALLS[call](sizes)

    @pytest.mark.parametrize("call", range(len(SIZED_CALLS)))
    def test_largest_int64_size_accepted(self, call):
        self.SIZED_CALLS[call](2**63 - 1)

    @pytest.mark.parametrize("sizes", [np.int64(10), np.uint16(10)])
    @pytest.mark.parametrize("call", range(len(SIZED_CALLS)))
    def test_numpy_integer_sizes(self, call, sizes):
        got, want = self.SIZED_CALLS[call](sizes), self.SIZED_CALLS[call](10)
        if isinstance(got, m.CorroborationCurve):
            got, want = got.values, want.values
        assert np.array_equal(got, want)


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
        assert _cells(*self.MISSING, stream) == [22, 24, 4]
        assert _cells(*self.MATCHED, stream) == [18, 17]

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
        # one stream batch per schedule entry, seeded by the first
        # _state_words word of its row: the two-word master-seed path
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
    child_seed(9, 0), child_seed(2026, 3, 7),
]


def _numpy_words(seed: int, b: int) -> list[int]:
    return np.random.SeedSequence(seed, spawn_key=(b,)).generate_state(4, np.uint64).tolist()


class TestSeedingOracle:
    """The library hashes batches of seeds itself; numpy's SeedSequence is the oracle."""

    @pytest.mark.parametrize("B", [1, 5000])
    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    def test_replicate_rngs_match_numpy(self, seed, B):
        # each replicate's seed words, and its generator at the state they seed
        words = _state_words(seed, np.arange(B, dtype=np.uint64))
        streams = _Streams(words)
        assert words.shape == (B, 4)
        for b in sorted({0, 1, B - 1} & set(range(B))):
            assert words[b].tolist() == _numpy_words(seed, b)
            state = streams.hi[b], streams.lo[b], streams.inc_hi[b], streams.inc_lo[b]
            _same_stream(_generator(*state), numpy_stream(seed, b))

    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    def test_replicate_stream_matches_numpy(self, seed):
        for b in (0, 1, 4999, 2**32, 2**40 + 5):
            _same_stream(m.ReplicateStream(seed, b).rng(), numpy_stream(seed, b))

    @pytest.mark.parametrize("seed", [0, 2**32, 2**130 + 12345])
    def test_streams_spawn_as_numpy_streams_do(self, seed):
        rng, oracle = m.ReplicateStream(seed, 2).rng(), numpy_stream(seed, 2)
        for _ in range(2):  # a second spawn continues the children's keys
            for child, child_oracle in zip(rng.spawn(2), oracle.spawn(2)):
                _same_stream(child, child_oracle)
        _same_stream(rng, oracle)
        seq, oracle_seq = rng.bit_generator.seed_seq, oracle.bit_generator.seed_seq
        assert (seq.entropy, seq.spawn_key, seq.n_children_spawned) == (
            oracle_seq.entropy, oracle_seq.spawn_key, oracle_seq.n_children_spawned
        )
        assert seq.generate_state(3).tolist() == oracle_seq.generate_state(3).tolist()

    def test_bad_start_rejected(self):
        # every index of a batch must fit one 32-bit spawn word
        with pytest.raises(m.ValidationError, match="0..4294967296 must lie below 2\\*\\*32"):
            _replicate_counts(m.PsiMissing(0.3, 0.5, 0.2), 10, 2**32 + 1, 0)

    def test_numpy_integer_seed(self):
        seed, psi = np.uint64(2**64 - 1), m.PsiMissing(0.3, 0.5, 0.2)
        words = _state_words(seed, np.arange(3, dtype=np.uint64))
        counts, states = _replicate_counts(psi, 10, 3, seed)
        for b in range(3):
            assert words[b].tolist() == _numpy_words(2**64 - 1, b)
            oracle = numpy_stream(2**64 - 1, b)
            assert counts[:, b].tolist() == psi.draw(oracle, 10).tolist()
            _same_stream(_generator(*states[:, b]), oracle)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**160 - 1), b=st.integers(0, 2**32 - 1))
    def test_any_seed_and_index(self, seed, b):
        _same_stream(m.ReplicateStream(seed, b).rng(), numpy_stream(seed, b))
        assert _state_words(seed, np.array([b], dtype=np.uint64))[0].tolist() == _numpy_words(seed, b)

    @pytest.mark.parametrize("key", [(0,), (1,), (3,), (4999,), (2**31,), (2**32 - 1,)])
    def test_derive_seed_matches_numpy(self, key):
        # the per-entry seeds of the consistency check: a row's first word
        for seed in ORACLE_SEEDS:
            word = _state_words(seed, np.array(key, dtype=np.uint64))[0, 0]
            assert int(word) == child_seed(seed, *key)


# outer tables as the assurance sweep draws them: at the MLE of a table of
# either setting, zero cells and zero margins included
TABLES = (
    st.tuples(st.integers(0, 300), st.integers(0, 300), st.integers(0, 300))
    .filter(lambda cells: sum(cells) > 0)
    .map(lambda cells: m.MissingTable(*cells))
    | st.tuples(st.integers(1, 400), st.integers(1, 400))
    .flatmap(lambda n: st.tuples(st.integers(0, n[0]), st.just(n[0]),
                                 st.integers(0, n[1]), st.just(n[1])))
    .map(lambda cells: m.MatchedTable(*cells))
)


@settings(max_examples=40, deadline=None)
@given(data=TABLES, seed=st.integers(0, 2**160 - 1),
       B=st.sampled_from([1, 7, 60, _CHUNK + 3]))
def _hand_off_property(data, seed, B):
    psi, sizes = m.mle_psi(data), data.sizes
    counts, states = _replicate_counts(psi, sizes, B, seed)
    for b in range(B):
        oracle = numpy_stream(seed, b)
        assert counts[:, b].tolist() == np.ravel(psi.draw(oracle, sizes)).tolist()
        rng = _generator(*states[:, b])
        assert rng.bit_generator.state == oracle.bit_generator.state
        assert rng.random(3).tolist() == oracle.random(3).tolist()
        assert rng.binomial(100, 0.29, 50).tolist() == oracle.binomial(100, 0.29, 50).tolist()


class TestHandOff:
    """A replicate's generator, built from the state ``_replicate_counts``
    hands back, is numpy's own generator after the replicate's draw."""

    def test_settled_and_numpy_drawn_replicates(self):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_binomial, "_EXACT", True)
            _hand_off_property()

    def test_every_replicate_read_back(self):
        # the kernel settles nothing, so each state is read back from numpy
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_binomial, "_EXACT", False)
            _hand_off_property()


class TestMasterSeedValidation:
    @pytest.mark.parametrize("seed", [-1, -(2**70), 1.5, 2.0, "3", True, None])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(m.ValidationError, match="master_seed"):
            _replicate_counts(m.PsiMissing(0.3, 0.5, 0.2), 10, 5, seed)
        with pytest.raises(m.ValidationError, match="master_seed"):
            m.ReplicateStream(seed, 0).rng()

    def test_bad_keys_rejected(self):
        with pytest.raises(m.ValidationError):
            m.ReplicateStream(0, -1).rng()

    def test_library_calls_raise_validation_error(self):
        psi = m.PsiMissing(0.3, 0.5, 0.2)
        data = m.MissingTable(32, 54, 24)
        with pytest.raises(m.ValidationError, match="master_seed"):
            m.corroboration_bootstrap(psi, 50, B=10, master_seed=-1)
        with pytest.raises(m.ValidationError, match="master_seed"):
            m.assurance_sweep(data, [0.1], B_outer=5, master_seed=-5)
        with pytest.raises(m.ValidationError, match="master_seed"):
            m.assurance_of_ml_region(data, B_outer=5, master_seed=-5)
        with pytest.raises(m.ValidationError, match="master_seed"):
            m.chernoff_consistency_check(psi, 0.35, [10], reps=5, master_seed=-1)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, None])
    def test_normal_curve_checks_the_seed(self, seed):
        # as the bootstrap does, though the normal curve draws nothing
        data = m.MissingTable(32, 54, 24)
        with pytest.raises(m.ValidationError, match="master_seed"):
            corroborate.corroboration_curve(m.mle_psi(data), data.n, method="normal",
                                            master_seed=seed)
        with pytest.raises(m.ValidationError, match="master_seed"):
            m.corroboration_test(data, 0.3, method="normal", master_seed=seed)


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
        corroborate._bounds_batch.cache_clear()  # the curve must draw, not read a kept batch
        curve = m.corroboration_bootstrap(m.PsiMissing(0.3, 0.5, 0.2), 50, B=500, master_seed=3)
        reports = m.assurance_sweep(
            m.MatchedTable(30, 100, 40, 120), [0.0], B_outer=20, inner_B=50, master_seed=3
        )
        assert curve.B == 500 and reports[0].B_outer == 20
        assert calls == ["SeedSequence", "default_rng"]

    def test_consistency_check_builds_no_seed_sequence(self, monkeypatch):
        # every entry's seed comes from one batched hash, not numpy's SeedSequence
        def refuse(*args, **kwargs):
            raise AssertionError("SeedSequence built")

        corroborate._bounds_batch.cache_clear()
        monkeypatch.setattr(np.random, "SeedSequence", refuse)
        rates = m.chernoff_consistency_check(
            m.PsiMatched(0.4, 0.7), 0.05, [10, 40, 10], reps=30, master_seed=2**130 + 1
        )
        assert [n for n, _ in rates] == [10, 40, 10]


class TestSimTruthMaps:
    def test_identifiable_parameters(self):
        truth = SimTruth(0.1, 0.2, 0.3, 0.4)
        assert truth.psi_missing() == m.PsiMissing(0.1, 0.3, 0.2 + 0.4)
        assert truth.psi_matched() == m.PsiMatched(0.1 + 0.2, 0.1 + 0.3)
        assert truth.theta_missing() == pytest.approx(0.3)
        assert truth.theta_matched() == 0.1

    def test_theta_sits_in_both_regions(self):
        truth = SimTruth(0.15, 0.25, 0.35, 0.25)
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

    def _observed_law(self, psi, sizes, seed: int) -> Counter:
        # replicate b's table from the batch draw, the one psi.draw makes on
        # numpy's own stream: checked on the first 1,000 replicates
        counts, _ = _replicate_counts(psi, sizes, self.REPS, seed)
        draws = [tuple(cells) for cells in counts.T.tolist()]
        for b, cells in enumerate(draws[:1000]):
            assert tuple(np.ravel(psi.draw(numpy_stream(seed, b), sizes)).tolist()) == cells
        return Counter(draws)

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
        observed = self._observed_law(psi, n, seed)
        expected = {
            cell: math.exp(stats.multinomial.logpmf(cell, n, [psi.l11, psi.l01, psi.l_plus0]))
            for cell in _compositions(n)
        }
        assert _merged_chisquare(observed, expected, self.REPS) > 0.001

    def test_matched_law(self):
        psi = m.PsiMatched(0.35, 0.7)
        n1, n2 = 6, 4
        observed = self._observed_law(psi, (n1, n2), 104)
        expected = {
            (x, y): stats.binom.pmf(x, n1, psi.l1p) * stats.binom.pmf(y, n2, psi.lp1)
            for x in range(n1 + 1)
            for y in range(n2 + 1)
        }
        assert _merged_chisquare(observed, expected, self.REPS) > 0.001
