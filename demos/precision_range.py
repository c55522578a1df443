"""How far the algebraic route can be trusted: the README "Precision range".

Replays the seeded sweep behind the README's figures: 120 points, each
drawing in order n in 3..6, beta 0.5 or 1, kappa 0, 0.3 or 1, a state
in a box of half-width 0.5 to 2 and t in {1, 3, 10, 30}, from
default_rng(5).  Every point that ``positions_at`` returns is compared
with DOP853 at rtol 1e-13, in units of eps e^(beta (H - n) t); a point it
refuses raises a typed error.  Then one state outside the sweep comes as
close to the documented bound of 100 eps e^(beta (H - n) t) as the
sweep's worst point: both sit at about 0.7 times it.
"""

import numpy as np

from vdtoda import CoordinateOverflowError, ModelParams, State, integrate, random_state
from vdtoda.hamiltonian import hamiltonian
from vdtoda.integrate import TrajectoryCheckError
from vdtoda.solve import FactorizationBreakdownError, positions_at

EPS = 2.2e-16
BOUND = 100  # README: a returned position is off by under 100 eps e^(beta (H - n) t)


def growth_and_error(state, params, t):
    """beta (H - n) t, and the position error (None where the point is refused)."""
    growth = params.beta * (hamiltonian(state, params) - params.n) * t
    try:
        q = positions_at(state, params, t)
    except (TrajectoryCheckError, FactorizationBreakdownError, CoordinateOverflowError):
        return growth, None
    reference = integrate(state, params, t, sample_dt=t, rtol=1e-13, atol=1e-15).states[-1].xi
    return growth, float(np.max(np.abs(q - reference)))


print("== the seeded sweep ==")
rng = np.random.default_rng(5)
returned, refused = [], []
for _ in range(120):
    n = int(rng.integers(3, 7))
    beta = float(rng.choice([0.5, 1.0]))
    kappa = float(rng.choice([0.0, 0.3, 1.0]))
    state = random_state(n, rng, box=rng.uniform(0.5, 2.0))
    t = float(rng.choice([1.0, 3.0, 10.0, 30.0]))
    growth, err = growth_and_error(state, ModelParams(n, beta, kappa), t)
    if err is None:
        refused.append(growth)
    else:
        returned.append((growth, err, err / (EPS * np.exp(growth))))

worst_growth, _, worst_ratio = max(returned, key=lambda row: row[2])
worst_cool = max(e for g, e, _ in returned if g <= 10.0)
edge = max(returned, key=lambda row: row[1])
print(f"  {len(returned)} points returned, {len(refused)} refused")
print(f"  largest error / (eps e^(beta (H - n) t)): {worst_ratio:.1f}"
      f" = {worst_ratio / BOUND:.2f} x {BOUND}, at beta (H - n) t = {worst_growth:.1f}")
print(f"  worst error at beta (H - n) t <= 10: {worst_cool:.1e}")
print(f"  largest error returned: {edge[1]:.1e} at beta (H - n) t = {edge[0]:.1f}")
print(f"  refusals start at beta (H - n) t = {min(refused):.1f};"
      f" the largest returned is {max(g for g, _, _ in returned):.1f}")

assert round(worst_ratio / BOUND, 2) == 0.70
assert f"{worst_cool:.1e}" == "8.5e-12"
assert f"{edge[1]:.1e}" == "7.5e-09" and round(edge[0], 1) == 19.8
assert 22.5 < min(refused) < 24.0 and all(g <= 24.0 for g, _, _ in returned)

print()
print("== a state outside the sweep: n = 3, beta = 0.5, kappa = 0 ==")
params = ModelParams(3, 0.5, 0.0)
state = State(
    np.array([-0.03279118617465904, -0.23579456005953148, 0.3889420380314923]),
    np.array([-0.21368168745738525, 0.2737669316985375, -0.012755138947714628]),
)
for t, off, times in ((25.0, "3.60e-12", 0.02), (27.627479032378567, "3.47e-10", 0.72)):
    growth, err = growth_and_error(state, params, t)
    ratio = err / (EPS * np.exp(growth))
    print(f"  t = {t:.4f}: beta (H - n) t = {growth:.2f}, error {err:.2e}"
          f" = {ratio / BOUND:.2f} x {BOUND} eps e^(beta (H - n) t)")
    assert f"{err:.2e}" == off and abs(ratio / BOUND - times) < 0.005
