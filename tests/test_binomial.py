"""The vectorized inversion kernel against numpy's ``Generator.binomial``:
the same counts, dtype and generator state, bit for bit."""

import math

import numpy as np
import pytest

import minfer as m
from minfer import model
from minfer._binomial import _binomial_draws, _inverted, _walk, _walk_table


def numpy_inversion(doubles, n: int, p: float) -> int:
    """numpy's ``random_binomial_inversion`` (p <= 0.5, n·p <= 30),
    transcribed from its distributions library, on an iterator of doubles."""
    q = 1.0 - p
    qn = math.exp(n * math.log(q))
    mean = n * p
    bound = int(min(n, mean + 10.0 * math.sqrt(mean * q + 1)))
    x, px, u = 0, qn, next(doubles)
    while u > px:
        x += 1
        if x > bound:
            x, px, u = 0, qn, next(doubles)
        else:
            u -= px
            px = ((n - x + 1) * p * px) / (x * q)
    return x


class Scripted:
    """A stand-in generator that hands out chosen doubles, as a batch and
    one at a time, and counts them."""

    def __init__(self, doubles):
        self.doubles = list(doubles)
        self.taken = 0

    def random(self, size=None):
        if size is None:
            self.taken += 1
            return self.doubles.pop(0)
        self.taken += size
        block, self.doubles = self.doubles[:size], self.doubles[size:]
        return np.array(block)


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


class TestExactWalk:
    def test_walk_on_a_cumulative_sum(self):
        # a u equal to a cumulative sum lies within the margin of it, so the
        # search defers to the walk, whose repeated subtraction decides
        n, p = 100, 0.29
        pmf, low, high, _ = _walk_table(n, p)
        cdf = np.cumsum(pmf)
        for x in (0, 1, 5, 29, 40):
            u = float(cdf[x])
            assert low.searchsorted(u) != high.searchsorted(u)
            assert _walk(iter([u]), pmf.tolist()) == (numpy_inversion(iter([u]), n, p), 1)

    def test_walk_restarts_past_the_bound(self):
        # at (2, 0.3) the walk's sums stop short of the largest double below 1
        n, p = 2, 0.3
        pmf = _walk_table(n, p)[0].tolist()
        u_max = 1.0 - 2.0 ** -53
        assert _walk(iter([u_max, 0.5]), pmf) == (numpy_inversion(iter([0.5]), n, p), 2)
        assert numpy_inversion(iter([u_max, 0.5]), n, p) == numpy_inversion(iter([0.5]), n, p)

    @pytest.mark.parametrize("p", [0.3, 0.7])
    def test_batch_with_unsure_draws_and_a_restart(self, p):
        # draw 1 sits on a cumulative sum, draw 3 restarts and shifts every
        # later draw by one double; the last draw takes one double past the
        # batch, from rng.random() alone
        n, size = 2, 6
        p_walk = min(p, 1.0 - p)
        cdf = np.cumsum(_walk_table(n, p_walk)[0])
        doubles = [0.2, float(cdf[0]), 0.9, 1.0 - 2.0 ** -53, 0.05, 0.6, float(cdf[1]), 0.4, 0.99]
        rng = Scripted(doubles)
        got = _binomial_draws(rng, n, p, size)
        stream = iter(doubles)
        want = [numpy_inversion(stream, n, p_walk) for _ in range(size)]
        if p > 0.5:
            want = [n - x for x in want]
        assert got.tolist() == want and got.dtype == np.int64
        assert rng.taken == size + 1 and rng.doubles == doubles[size + 1:]


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
