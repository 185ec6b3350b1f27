import numpy as np
import pytest

import minfer as m
from minfer import _binomial


@pytest.fixture
def trial() -> m.MissingTable:
    # the running missing-data example: 32 + 54 responders, 24 nonresponders
    return m.validate([32, 54, 24], "missing")


@pytest.fixture
def trial_psi(trial) -> m.PsiMissing:
    return m.mle_psi(trial)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260809)


@pytest.fixture(scope="module")
def exact_kernel():
    """The vectorized binomial kernel enabled whatever the machine."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_binomial, "_EXACT", True)
        yield
