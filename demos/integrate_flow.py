"""Adaptive integration of the open chain, with conservation diagnostics."""

import io

import numpy as np

from vdtoda import ModelParams, integrate, random_state
from vdtoda.integrate import backward_via_reversal, spectral_drift, trajectory_to_csv

params = ModelParams(4, 0.5, 1.0)
state = random_state(4, np.random.default_rng(11), box=1.0)

traj = integrate(state, params, t_end=10.0, sample_dt=0.5, rtol=1e-10, atol=1e-12)

print("== positions along the flow (outermost separates ballistically) ==")
print("     t     q1        q2        q3        q4")
for i in range(0, len(traj.t), 4):
    q = traj.states[i].xi
    print(f"  {traj.t[i]:5.1f}  {q[0]:+8.4f}  {q[1]:+8.4f}  {q[2]:+8.4f}  {q[3]:+8.4f}")

h0 = traj.energy[0]
print()
print(f"== conservation over t in [0, 10] ==")
print(f"  energy drift (relative):      {np.max(np.abs(traj.energy - h0)) / abs(h0):.3e}")
print(f"  eigenvalue drift:             {spectral_drift(traj):.3e}")

print()
print("== the flow is reversible: flip rapidities, integrate, flip back ==")
bwd = backward_via_reversal(traj)
print(f"  backward samples share the forward grid: {np.array_equal(bwd.t, traj.t)}")
print(f"  sample 0 rapidities negated exactly:     "
      f"{np.array_equal(bwd.states[0].eta, -traj.states[0].eta)}")

print()
print("== kinematic bounds hold at every accepted sample ==")
rap_cap = np.log(2.0 * h0) / params.beta
worst_rap = max(np.max(np.abs(s.eta)) for s in traj.states)
print(f"  max |rapidity| {worst_rap:.4f}  <  cap {rap_cap:.4f}")
speed_cap = params.beta * h0
steps = [
    np.max(np.abs(a.xi - b.xi)) / (ta - tb)
    for (ta, a), (tb, b) in zip(
        zip(traj.t[1:], traj.states[1:]), zip(traj.t[:-1], traj.states[:-1])
    )
]
print(f"  max per-step speed {max(steps):.4f}  <=  cap {speed_cap:.4f}")

print()
print("== CSV export (first three rows) ==")
buf = io.StringIO()
trajectory_to_csv(traj, buf, method="rk")
for line in buf.getvalue().split("\n")[:3]:
    print("  " + line)
