"""Deformed relativistic open-chain toolkit.

Phase-space model, energy function and equations of motion, the Lax
triad/pair matrix constructions, residual verification of the matrix
identities, adaptive Runge-Kutta reference dynamics, and the purely
algebraic factorization solver, with a CLI front end (``vdtoda``).

Every module's public names are re-exported here, so ``vdtoda.hamiltonian``
and ``vdtoda.integrate`` are the functions of those names, not the modules;
``importlib.import_module("vdtoda.hamiltonian")`` returns the module.
"""

from . import core, hamiltonian, integrate, lax, solve, verify

_MODULES = (core, hamiltonian, integrate, lax, solve, verify)
from .core import *  # noqa: E402, F403
from .hamiltonian import *  # noqa: E402, F403
from .integrate import *  # noqa: E402, F403
from .lax import *  # noqa: E402, F403
from .solve import *  # noqa: E402, F403
from .verify import *  # noqa: E402, F403

__version__ = "0.1.0"

__all__ = ["__version__", *(name for module in _MODULES for name in module.__all__)]
