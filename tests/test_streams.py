"""Bootstrap batches drawn on all replicate streams at once
(``sampling._replicate_counts``) against numpy itself: every replicate's
counts are the ones ``psi.draw`` makes on that replicate's own generator,
``default_rng(SeedSequence(seed, spawn_key=(b,)))``, bit for bit."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minfer as m
from minfer import _binomial, corroborate, model, sampling
from minfer.sampling import _replicate_counts, _state_words, _Streams
from oracles import numpy_stream

CHUNK = sampling._CHUNK
CATALOG = Path(__file__).resolve().parent.parent / "bench" / "goldens" / "study.json"


# the kernel runs on any machine, so these tests show where the platform
# gate can widen
pytestmark = pytest.mark.usefixtures("exact_kernel")


def numpy_counts(psi, sizes, B, seed):
    """Each replicate's cells drawn by numpy on its own stream, one row per cell."""
    return np.array([psi.draw(numpy_stream(seed, b), sizes) for b in range(B)]).T


def assert_numpy_counts(psi, sizes, B, seed):
    got, _ = _replicate_counts(psi, sizes, B, seed)
    assert got.dtype == np.int64
    assert np.array_equal(got, numpy_counts(psi, sizes, B, seed)), (psi, sizes, B, seed)


def streams(seed, B):
    return _Streams(_state_words(seed, np.arange(B, dtype=np.uint64)))


class TestPcgStreams:
    @pytest.mark.parametrize("seed", [0, 7, 2**32, 2**64 - 1, 2**130 + 12345])
    def test_doubles_are_generator_random(self, seed):
        B = 300
        got = streams(seed, B).random(5)
        want = np.array([numpy_stream(seed, b).random(5) for b in range(B)]).T
        assert np.array_equal(got, want)

    def test_keep_moves_each_stream_past_its_doubles(self):
        B, seed = 50, 11
        batch = streams(seed, B)
        taken = np.arange(B) % 5
        batch.random(4)  # four doubles drawn, taken[b] of them kept
        batch.keep(taken)
        got = batch.random(3)
        for b in range(B):
            rng = numpy_stream(seed, b)
            rng.random(int(taken[b]))
            assert np.array_equal(got[:, b], rng.random(3))


def probability():
    tiny = st.floats(1e-300, 1e-6)
    return st.one_of(
        st.sampled_from([0.0, 0.5, 1.0]), tiny, tiny.map(lambda t: 1.0 - t), st.floats(0.0, 1.0),
    )


def size():
    return st.one_of(st.integers(1, 40), st.integers(1, 2 * 10**6))


@st.composite
def psi_and_sizes(draw):
    if draw(st.booleans()):
        return m.PsiMatched(draw(probability()), draw(probability())), (draw(size()), draw(size()))
    weights = np.array([draw(probability()) for _ in range(3)])
    zero = draw(st.sampled_from([None, 0, 1, 2]))
    if zero is not None:
        weights[zero] = 0.0
    if weights.sum() == 0.0:
        weights[0] = 1.0
    return m.PsiMissing(*(weights / weights.sum()).tolist()), draw(size())


class TestSameAsNumpy:
    @settings(max_examples=80, deadline=None)
    @given(case=psi_and_sizes(),
           B=st.sampled_from([1, 2, CHUNK - 1, CHUNK, CHUNK + 1, 5000]),
           seed=st.integers(0, 2**64 - 1))
    def test_any_table(self, case, B, seed):
        psi, sizes = case
        assert_numpy_counts(psi, sizes, B, seed)

    @pytest.mark.parametrize("psi,sizes", [
        (m.PsiMatched(0.3, 1 / 3), (100, 120)),        # inversion, then BTPE
        (m.PsiMissing(32 / 110, 54 / 110, 24 / 110), 110),  # BTPE, then inversion at each n
        (m.PsiMatched(0.5, 0.5), (61, 10**6)),          # BTPE near its threshold and far from it
        (m.PsiMissing(0.2, 0.5, 0.3), 10**6),           # BTPE at each n
        (m.PsiMissing(1.0, 0.0, 0.0), 50),              # p = 1 takes one double
        (m.PsiMatched(0.0, 1.0), (7, 0)),               # p = 0 and n = 0 take none
        (m.PsiMissing(0.5, 0.15, 0.35), 200),           # at each n, both regimes
        (m.PsiMissing(0.5, 0.15, 0.35), 170),           # at each n, BTPE for a few
        (m.PsiMissing(421 / 463, 42 / 463, 0.0), 463),  # p01 / (1 - p11) rounds above 1
    ])
    def test_regimes(self, psi, sizes):
        for seed in (0, 3, 2**40 + 1):
            assert_numpy_counts(psi, sizes, CHUNK + 37, seed)

    @pytest.mark.skipif(not CATALOG.exists(), reason="no bench/ in this checkout")
    def test_benchmark_catalog(self):
        catalog = json.loads(CATALOG.read_text())["catalog"]
        entries = [entry for stratum in catalog.values() for entry in stratum]
        assert len(entries) == 128
        for entry in entries:
            data = m.validate(entry["counts"], entry["setting"])
            assert_numpy_counts(m.mle_psi(data), data.sizes, 500, entry["seed"])


class TestOneNPerStream:
    """One binomial draw per stream at one n per stream, as the missing
    setting's second cell is drawn: the regime most streams fall in runs,
    and the other regime's streams are left to numpy."""

    @pytest.mark.parametrize("p", [0.3, 0.7])
    @pytest.mark.parametrize("btpe_share", [0.1, 0.9])
    def test_settled_counts_are_numpys(self, p, btpe_share):
        seed, b = 5, np.arange(CHUNK)
        n = np.where(b % 10 < 10 * btpe_share, 2000, 20)  # n·p' 600 or 6
        n[::7] = 0
        x, settled = _binomial._binomial_streams(streams(seed, CHUNK), n, p)
        want = np.array([numpy_stream(seed, i).binomial(int(n[i]), p) for i in range(CHUNK)])
        assert np.array_equal(x[settled], want[settled])
        assert settled[n == 0].all() and not x[n == 0].any()
        btpe = n == 2000
        majority, minority = (btpe, n == 20) if btpe_share > 0.5 else (n == 20, btpe)
        assert np.count_nonzero(settled & majority) > 0.9 * np.count_nonzero(majority)
        assert not settled[minority].any()


class TestFallback:
    CASES = [
        (m.PsiMatched(0.3, 1 / 3), (100, 120)),
        (m.PsiMissing(32 / 110, 54 / 110, 24 / 110), 110),
        (m.PsiMissing(0.2, 0.5, 0.3), 10**6),
        (m.PsiMatched(0.4, 0.45), (5000, 10**6)),
    ]

    @pytest.mark.parametrize("psi,sizes", CASES)
    def test_one_attempt_and_a_huge_margin(self, psi, sizes, monkeypatch):
        # most draws are left undecided, and numpy draws those replicates
        monkeypatch.setattr(_binomial, "_BTPE_ATTEMPTS", 1)
        monkeypatch.setattr(_binomial, "_LOG_MARGIN", 1e6)
        monkeypatch.setattr(_binomial, "_MARGIN", 1e6)
        _binomial._walk_table.cache_clear()
        try:
            words = _state_words(4, np.arange(CHUNK, dtype=np.uint64))
            _, settled = psi.draw_streams(_Streams(words), sizes)
            assert np.count_nonzero(~settled) > CHUNK // 10
            assert_numpy_counts(psi, sizes, CHUNK + 1, 4)
        finally:
            _binomial._walk_table.cache_clear()

    @pytest.mark.parametrize("psi,sizes", CASES)
    def test_every_replicate_through_numpy(self, psi, sizes, monkeypatch):
        def settles_nothing(streams, n, p):
            x, settled = _binomial._binomial_streams(streams, n, p)
            return x, np.zeros_like(settled)

        monkeypatch.setattr(model, "_binomial_streams", settles_nothing)
        assert_numpy_counts(psi, sizes, CHUNK + 1, 9)

    @pytest.mark.parametrize("psi,sizes", [
        (m.PsiMatched(0.3, 0.5), (2**53, 10)),      # n beyond the doubles' integers
        (m.PsiMatched(0.3, 0.5), (True, 10)),       # a bool n is numpy's 1
    ])
    def test_inputs_left_to_numpy(self, psi, sizes):
        assert_numpy_counts(psi, sizes, 20, 2)

    def test_bad_size_raises_numpys_error(self):
        psi = m.PsiMatched(0.3, 0.5)
        with pytest.raises(ValueError) as theirs:
            psi.draw(numpy_stream(0, 0), (-1, 10))
        with pytest.raises(ValueError) as ours:
            _replicate_counts(psi, (-1, 10), 5, 0)
        assert str(ours.value) == str(theirs.value)


class TestBootstrapBatch:
    def test_bounds_from_the_counts(self):
        psi, sizes = m.PsiMissing(0.3, 0.5, 0.2), 200
        corroborate._bounds_batch.cache_clear()
        lower, upper = corroborate.bounds_batch_streams(psi, sizes, CHUNK + 3, 8)
        want_lower, want_upper = psi.plug_in(numpy_counts(psi, sizes, CHUNK + 3, 8), sizes)
        assert np.array_equal(lower, want_lower) and np.array_equal(upper, want_upper)

    def test_indices_must_fit_one_spawn_word(self):
        with pytest.raises(m.ValidationError, match="2\\*\\*32"):
            _replicate_counts(m.PsiMatched(0.3, 0.5), (10, 10), 2**32 + 1, 0)


class TestReplicateCount:
    """One check for B, B_outer, inner_B and reps: an integer >= 1."""

    DATA = m.MissingTable(32, 54, 24)
    MATCHED = m.MatchedTable(30, 100, 40, 120)
    PSI = m.PsiMissing(0.3, 0.5, 0.2)

    def calls(self, count):
        return {
            "B": [
                lambda: m.corroboration_bootstrap(self.PSI, 110, B=count),
                lambda: corroborate.bounds_batch_streams(self.PSI, 110, count, 0),
                lambda: corroborate.corroboration_curve(self.PSI, 110, method="normal", B=count),
                lambda: m.corroboration_test(self.DATA, 0.3, method="bootstrap", B=count),
            ],
            "B_outer": [
                lambda: m.assurance_of_ml_region(self.DATA, B_outer=count),
                lambda: m.assurance_sweep(self.DATA, [0.1], B_outer=count),
            ],
            "inner_B": [lambda: m.assurance_sweep(self.MATCHED, [0.1], B_outer=2, inner_B=count)],
            "reps": [lambda: m.chernoff_consistency_check(self.PSI, 0.35, [10], reps=count)],
        }

    @pytest.mark.parametrize("count", [True, False, 2.5, 2.0, np.float64(3.0), "3", None])
    def test_not_an_integer(self, count):
        for name, calls in self.calls(count).items():
            for call in calls:
                with pytest.raises(m.ValidationError, match=f"^{name} = .* must be an integer$"):
                    call()

    @pytest.mark.parametrize("count", [0, -3, np.int64(0)])
    def test_below_one(self, count):
        for name, calls in self.calls(count).items():
            for call in calls:
                with pytest.raises(m.ValidationError, match=f"^{name} = {count} must be at least 1$"):
                    call()

    @pytest.mark.parametrize("count", [np.int64(3), np.uint16(3), 3])
    def test_integers(self, count):
        for calls in self.calls(count).values():
            for call in calls:
                call()
        curve = m.corroboration_bootstrap(self.PSI, 110, B=count)
        assert curve.B == 3 and type(curve.B) is int
