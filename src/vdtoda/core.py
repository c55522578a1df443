"""Phase-space model for the deformed relativistic open chain.

A configuration of the n-particle chain is a point zeta = (xi, eta) in
R^{2n}: particle positions xi and particle rapidities eta.  This module
holds the parameter container, the immutable state type, and the two
elementary point maps used throughout: time reversal and the
multiplicative coordinate shift.  Its two error types report a
coordinate that left the floating-point range; the other numerical
breakdowns have theirs in ``solve`` and ``integrate``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CoordinateOverflowError",
    "CoordinateUnderflowError",
    "ModelParams",
    "State",
    "time_reversal",
    "shift",
    "random_state",
]


class CoordinateOverflowError(ArithmeticError):
    """An evaluation left the representable floating-point range.

    Raised instead of letting infinities propagate: extreme particle
    separations make exponentials such as e^{-(q_a - q_{a+1})} or
    e^{-2 q_n} overflow, and every caller is better served by a
    diagnostic than by a silent inf.
    """


class CoordinateUnderflowError(CoordinateOverflowError, ValueError):
    """A multiplicative coordinate underflowed to zero.

    Particles more than about 745 apart make w_a = beta^2 e^{-d_a} (or a
    far-off x_a) round to 0, which leaves the Lax matrices singular.  It
    is a numerical breakdown like an overflow, and also a ``ValueError``
    because it reports an invalid (non-positive) coordinate.
    """


@dataclass(frozen=True)
class ModelParams:
    """Chain size and couplings.

    n     : number of particles, an integer >= 3
    beta  : inverse speed of light, > 0
    kappa : boundary coupling, >= 0
    """

    n: int
    beta: float
    kappa: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)) or isinstance(self.n, bool):
            raise ValueError(f"n must be an integer, got {self.n!r}")
        if self.n < 3:
            raise ValueError(f"n must be at least 3, got {self.n}")
        beta = float(self.beta)
        kappa = float(self.kappa)
        if not np.isfinite(beta) or beta <= 0.0:
            raise ValueError(f"beta must be finite and positive, got {self.beta!r}")
        if not np.isfinite(kappa) or kappa < 0.0:
            raise ValueError(f"kappa must be finite and nonnegative, got {self.kappa!r}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "kappa", kappa)


@dataclass(frozen=True, eq=False)
class State:
    """An immutable phase-space point (xi, eta).

    Arrays are copied and made read-only at construction, so states can
    be shared freely across threads and residual evaluations.
    """

    xi: np.ndarray
    eta: np.ndarray

    def __post_init__(self) -> None:
        xi = np.array(self.xi, dtype=float)
        eta = np.array(self.eta, dtype=float)
        if xi.ndim != 1 or eta.ndim != 1 or xi.shape != eta.shape:
            raise ValueError("xi and eta must be one-dimensional and equal length")
        if not (np.all(np.isfinite(xi)) and np.all(np.isfinite(eta))):
            raise ValueError("state entries must be finite")
        xi.flags.writeable = False
        eta.flags.writeable = False
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "eta", eta)

    @property
    def n(self) -> int:
        return self.xi.shape[0]

    @classmethod
    def from_stacks(cls, xi, eta) -> tuple[State, ...]:
        """One state per row of the (samples, n) stacks xi and eta.

        Each stack is copied once as float, checked for finiteness once
        (raising the constructor's ``ValueError``) and made read-only; the
        states' arrays are row views of those copies, set without running
        ``__init__`` per row.
        """
        xi = np.array(xi, dtype=float)
        eta = np.array(eta, dtype=float)
        if xi.ndim != 2 or xi.shape != eta.shape:
            raise ValueError("xi and eta must be two-dimensional and of equal shape")
        if not (np.all(np.isfinite(xi)) and np.all(np.isfinite(eta))):
            raise ValueError("state entries must be finite")
        xi.flags.writeable = False
        eta.flags.writeable = False
        states = tuple(object.__new__(cls) for _ in xi)
        for state, a, b in zip(states, xi, eta):
            state.__dict__.update(xi=a, eta=b)
        return states


def time_reversal(state: State) -> State:
    """The involution (xi, eta) -> (xi, -eta).

    Leaves the energy invariant and exchanges forward and backward
    flow.  IEEE negation makes the double application bitwise exact.
    """
    return State(state.xi, -state.eta)


def shift(state: State, chi) -> State:
    """Shift positions by ln(chi) componentwise; rapidities untouched.

    All chi_a must be strictly positive.  The special case of a constant
    vector chi = (kappa, ..., kappa) realizes the coupling duality
    kappa <-> 1/kappa of the energy function.
    """
    chi = np.asarray(chi, dtype=float)
    if chi.shape != state.xi.shape:
        raise ValueError(f"chi must have length {state.n}")
    if not np.all(np.isfinite(chi)) or np.any(chi <= 0.0):
        raise ValueError("all shift factors must be finite and positive")
    return State(state.xi + np.log(chi), state.eta)


def random_state(n: int, rng: np.random.Generator, box: float = 2.0) -> State:
    """Uniform sample with |xi_a| <= box and |eta_a| <= box.

    The default box of 2 exercises every interaction term without
    pushing any exponential near the overflow guard.
    """
    if not (np.isfinite(box) and box >= 0.0):
        raise ValueError("box must be finite and >= 0")
    return State(rng.uniform(-box, box, n), rng.uniform(-box, box, n))
