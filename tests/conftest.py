import functools
from types import SimpleNamespace

import numpy as np
import pytest

from vdtoda import ModelParams, State, random_state


@pytest.fixture
def zero3() -> State:
    return State(np.zeros(3), np.zeros(3))


def draw_states(n: int, count: int, seed: int, box: float = 2.0) -> list[State]:
    rng = np.random.default_rng(seed)
    return [random_state(n, rng, box=box) for _ in range(count)]


def large_half_spectrum(lams: np.ndarray) -> np.ndarray:
    """The n eigenvalues of largest modulus of each row of ``lams`` (S, 2n),
    real parts, with their reciprocals, sorted per row."""
    n = lams.shape[1] // 2
    large = np.take_along_axis(lams, np.abs(lams).argsort(axis=1)[:, n:], axis=1).real
    return np.sort(np.concatenate([large, 1.0 / large], axis=1), axis=1)


def moderate_params(n: int, kappa: float = 1.0) -> ModelParams:
    # beta = 0.5 with |xi|, |eta| <= 1 keeps every flow-based check well
    # inside the double-precision horizon of the factorization solver
    return ModelParams(n, 0.5, kappa)


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(owner, name)`` counts the calls of ``owner.name`` for one test.

    ``owner`` is a module (for a function bound in it) or a class (for a
    method such as ``__init__``).  Returns a namespace whose ``count``
    grows by one per call; the original is restored after the test.
    """

    def install(owner, name: str) -> SimpleNamespace:
        original = getattr(owner, name)
        counter = SimpleNamespace(count=0)

        @functools.wraps(original)
        def counted(*args, **kwargs):
            counter.count += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return counter

    return install
