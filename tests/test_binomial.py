"""The vectorized inversion kernel against numpy's ``Generator.binomial``:
the same counts, dtype and generator state, bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minfer as m
from minfer import _binomial, model, sampling
from minfer._binomial import _binomial_draws, _inverted, _search, _walk_table
from oracles import numpy_stream


# the kernel runs on any machine, so these tests show where the platform
# gate can widen
pytestmark = pytest.mark.usefixtures("exact_kernel")


def assert_same_as_numpy(n, p, size, seed):
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    got, want = _binomial_draws(ours, n, p, size), theirs.binomial(n, p, size)
    assert got.dtype == want.dtype and got.shape == want.shape, (n, p, size, seed)
    assert np.array_equal(got, want), (n, p, size, seed)
    # the generator is left where numpy leaves it
    assert np.array_equal(ours.random(3), theirs.random(3)), (n, p, size, seed)


class TestSameAsNumpy:
    @pytest.mark.parametrize("n", [100, 120])
    def test_every_lattice_p(self, n):
        for k in range(n + 1):
            for seed in range(20):
                assert_same_as_numpy(n, k / n, 1000, seed)

    @pytest.mark.parametrize("n,p,size", [
        (1, 0.3, 1000), (1, 0.7, 1000), (1, 0.5, 1000),
        (50, 0.0, 1000), (50, 1.0, 1000), (50, 0.5, 1000), (60, 0.5, 1000),
        (100, 0.29, 1), (100, 0.71, 1), (100, 0.29, 0),
        (10**6, 1e-5, 1000), (10**6, 1.0 - 1e-5, 1000), (7, 1e-300, 100),
    ])
    def test_edges(self, n, p, size):
        for seed in range(5):
            assert_same_as_numpy(n, p, size, seed)

    def test_boundary_of_the_inversion_regime(self):
        # 0.3 * 100 == 30.0 takes inversion; (1 - 0.7) * 100 is
        # 30.000000000000004 and takes BTPE, which stays on numpy
        assert 0.3 * 100 == 30.0 and _inverted(100, 0.3, 1000)
        assert (1.0 - 0.7) * 100 > 30.0 and not _inverted(100, 0.7, 1000)
        for p in (0.3, 0.7):
            for seed in range(20):
                assert_same_as_numpy(100, p, 1000, seed)

    @pytest.mark.parametrize("n,p,size", [
        (np.int64(100), np.float64(0.29), 500), (100, 0.29, np.int64(500)),
        (True, 0.3, 50), (0, 0.3, 50), (100, 1, 50), (100, 0.29, (5, 4)),
    ])
    def test_other_inputs_go_to_numpy(self, n, p, size):
        for seed in range(3):
            assert_same_as_numpy(n, p, size, seed)

    def test_no_size_is_numpy_scalar(self):
        ours, theirs = np.random.default_rng(8), np.random.default_rng(8)
        assert _binomial_draws(ours, 100, 0.29, None) == theirs.binomial(100, 0.29)
        assert ours.random() == theirs.random()

    @pytest.mark.parametrize("n,p", [(10, -0.1), (10, 1.5), (10, math.nan), (-1, 0.3)])
    def test_invalid_input_raises_numpys_error(self, n, p):
        with pytest.raises(ValueError) as theirs:
            np.random.default_rng(0).binomial(n, p, 10)
        with pytest.raises(ValueError) as ours:
            _binomial_draws(np.random.default_rng(0), n, p, 10)
        assert str(ours.value) == str(theirs.value)


@st.composite
def inversion_edge(draw):
    """An n up to 2·10**6 and a p whose n·min(p, 1 - p) is at most 30 or
    just above it, on either side of 0.5."""
    n = draw(st.integers(1, 2 * 10**6))
    mean = draw(st.one_of(st.just(30.0), st.floats(0.0, 30.0), st.floats(30.0, 31.0)))
    p = min(mean / n, 1.0)
    return n, 1.0 - p if draw(st.booleans()) else p


class TestProperty:
    @settings(max_examples=300, deadline=None)
    @given(case=inversion_edge(), size=st.integers(0, 2000), seed=st.integers(0, 2**128))
    def test_any_batch(self, case, size, seed):
        n, p = case
        assert_same_as_numpy(n, p, size, seed)


class TestUnsettled:
    def test_search_leaves_sums_and_restarts_open(self, monkeypatch):
        # a u equal to a cumulative sum lies within the margin of it
        pmf, low, high, _ = _walk_table(100, 0.29)
        _, settled = _search(np.cumsum(pmf)[[0, 1, 5, 29, 40]], pmf, low, high)
        assert not settled.any()
        # at (2, 0.3) the walk's sums stop short of the largest double below 1
        u_max = np.array([1.0 - 2.0 ** -53])
        assert not _search(u_max, *_walk_table(2, 0.3)[:3])[1].any()
        # without a margin, a u past every sum is settled by the searches
        # alone, but numpy's walk restarts on it
        monkeypatch.setattr(_binomial, "_MARGIN", 0.0)
        assert not _search(u_max, *_binomial._walk_sums(100, 0.29))[1].any()

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937])
    @pytest.mark.parametrize("p", [0.29, 0.71])
    def test_batch_goes_to_numpy(self, p, bit_generator, monkeypatch):
        # with a margin of 1 no double is settled, so numpy draws the batch:
        # on PCG64 from the state before it, and on any other bit generator
        # at once. Half a word is buffered beforehand
        monkeypatch.setattr(_binomial, "_MARGIN", 1.0)
        _walk_table.cache_clear()
        try:
            ours, theirs = (np.random.Generator(bit_generator(6)) for _ in range(2))
            ours.random(dtype=np.float32), theirs.random(dtype=np.float32)
            got, want = _binomial_draws(ours, 100, p, 1000), theirs.binomial(100, p, 1000)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            np.testing.assert_equal(ours.bit_generator.state, theirs.bit_generator.state)
        finally:
            _walk_table.cache_clear()


class TestPlatformGate:
    """Off the verified platforms, every count is numpy's own draw."""

    def test_batches_are_numpys(self, monkeypatch):
        monkeypatch.setattr(_binomial, "_EXACT", False)
        _walk_table.cache_clear()
        for p in (0.29, 0.71):
            assert_same_as_numpy(100, p, 1000, 2)
        assert _walk_table.cache_info().misses == 0

    @pytest.mark.parametrize("psi,sizes", [
        (m.PsiMatched(0.3, 1 / 3), (100, 120)),
        (m.PsiMissing(32 / 110, 54 / 110, 24 / 110), 110),
        (m.PsiMatched(0.0, 1.0), (7, 0)),
    ])
    def test_streams_settle_nothing(self, psi, sizes, monkeypatch):
        monkeypatch.setattr(_binomial, "_EXACT", False)
        streams = sampling._Streams(sampling._state_words(4, np.arange(64, dtype=np.uint64)))
        _, settled = psi.draw_streams(streams, sizes)
        assert not settled.any()
        counts, _ = sampling._replicate_counts(psi, sizes, 64, 4)
        want = [psi.draw(numpy_stream(4, b), sizes) for b in range(64)]
        assert np.array_equal(counts, np.array(want).T)


class TestNestedBootstrap:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_sweep_equals_numpy_binomial(self, threads, monkeypatch):
        data = m.MatchedTable(30, 100, 40, 120)
        hs = [0.0, 0.01, 0.06, 0.4]
        served = []

        def spy(rng, n, p, size):
            served.append(_inverted(n, p, size))
            return _binomial_draws(rng, n, p, size)

        monkeypatch.setattr(model, "_binomial_draws", spy)
        reports = m.assurance_sweep(data, hs, B_outer=120, inner_B=300, master_seed=5,
                                    threads=threads)
        assert any(served) and not all(served)
        monkeypatch.setattr(model, "_binomial_draws",
                            lambda rng, n, p, size: rng.binomial(n, p, size))
        assert reports == m.assurance_sweep(data, hs, B_outer=120, inner_B=300, master_seed=5,
                                            threads=threads)

    def test_tables_are_read_only_and_few(self):
        pmf, low, high, guide = _walk_table(100, 0.29)
        for table in (pmf, low, high, guide):
            assert not table.flags.writeable
        assert _walk_table.cache_info().maxsize <= 64
