"""Capture the outputs of the trajectory routes and the suite, and compare two captures.

Usage::

    python tools/capture.py OUT.npz          # capture this checkout's src/
    python tools/capture.py --diff A.npz B.npz

A capture is an ``.npz`` of named arrays, all from fixed seeds:

* ``traj/...``: the samples (``xi``, ``eta``), energies and spectra of
  ``integrate`` and ``solve_trajectory`` on states at n = 3, 8 and 12,
  and of ``integrate`` on grids with one sample, with many samples per
  step, with most steps holding none and with more than three blocks;
* ``backward/...``: the samples and energies of ``backward_via_reversal``
  of the ``integrate`` trajectories of the n = 3 and n = 8 pools, and the
  error it raises on a forged forward trajectory (its energies all set
  to the first, so no drift budget is carried over);
* ``expm/...``: ``matrix_exp`` of ``t Ycal`` stacks and of crafted inputs
  (a scaled stack, one 2-D matrix, the zero matrix, a stack that mixes a
  triangular matrix into full ones);
* ``suite/...``: the fields of every ``run_suite`` report (``names``, the
  ``values`` max_abs, rel_scale, tol, n, beta, kappa, seed, state_index
  as rows, and the ``blocks`` maxima of the reports that carry them) at
  n = 3, 8, 12, kappa 0, 1 and box 2, 10, on clean states and under the
  entry perturbations of ``tests/test_verify.py`` (or the error a run
  raises), the ``jsonl`` bytes of one run, and the errors of runs at
  boxes 200 to 500;
* ``bundle/...``: every field of one stacked and one one-state
  ``build_bundle``;
* ``error/...``: the type and message of what known failing calls raise;
* ``refusal/...``: which failure ``solve_trajectory`` reports on a seeded
  sweep of hot states (n = 3, 8, box 1, 3, seeds 0 to 3, beta = kappa =
  1, t_end 40): the error's ``type`` and ``message``, and ``j_t``, its
  minor index and time (nan where the error carries none);
* ``cli/...``: the stdout, stderr, exit code and written files of
  ``vdtoda simulate``, ``solve`` and ``compare`` runs, as bytes.

``--diff`` prints one line per key: how many elements differ bit for bit,
out of how many, the largest absolute difference among those finite on
both sides, and how many are not finite on either side.  It exits 1 if
any key differs or is missing from one capture, else 0.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import runpy
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from vdtoda import ModelParams, State, build_bundle, integrate, random_state  # noqa: E402
from vdtoda import cli, reports_to_jsonl, run_suite, solve, solve_trajectory  # noqa: E402
from vdtoda.integrate import _sample_stacks, backward_via_reversal, sample_times  # noqa: E402
from vdtoda.integrate import solve_ivp as dop853  # noqa: E402
from vdtoda.lax import _ARRAY_FIELDS  # noqa: E402
from vdtoda.verify import _BLOCKS, _draw_states  # noqa: E402

# (n, number of states, t_end) of the trajectory pools; beta 0.5, kappa 1,
# |xi_a|, |eta_a| <= 1 as in the benchmark's dense pool
POOLS = ((3, 4, 5.0), (8, 6, 5.0), (12, 3, 3.0))
# (label, t_end, sample_dt) of the extra integrate grids at n = 8
GRIDS = (
    ("one_sample", 0.5, 1.0),
    ("dense", 0.5, 0.0005),
    ("sparse", 20.0, 2.5),
    ("blocks", 25.0, 0.05),
)
# (n, box, seed, t_end) of states that solve_trajectory refuses at beta 1
HOT = (
    (8, 2.0, 1, 5.0),
    (6, 2.0, 2, 8.0),
    (5, 3.0, 4, 10.0),
    (8, 3.0, 5, 20.0),
    (3, 4.0, 6, 30.0),
    (10, 2.5, 7, 12.0),
    (4, 1.0, 3, 5.0),
)
# (n, box, seed) of the refusal sweep at beta = kappa = 1, t_end 40
REFUSALS = [(n, box, seed) for n in (3, 8) for box in (1.0, 3.0) for seed in range(4)]
# (n, kappa, box) of the suite runs at beta 0.6, 4 states each; each run
# is repeated under the one-entry perturbations of tests/test_verify.py
SUITE_CELLS = [(n, kappa, box) for n in (3, 8, 12) for kappa in (0.0, 1.0) for box in (2.0, 10.0)]
CLI_RUNS = (
    ("simulate", ["simulate", "--n", "4", "--beta", "0.5", "--t-end", "3"]),
    ("simulate_spectrum", ["simulate", "--n", "3", "--spectrum-output", "{dir}/spec.csv"]),
    ("solve", ["solve", "--n", "4", "--beta", "0.5", "--t-end", "3"]),
    ("solve_refused", ["solve", "--n", "3", "--t-end", "30", "--xi", "0,1,2"]),
    ("compare", ["compare", "--n", "5", "--beta", "0.5", "--dump-trajectories", "{dir}"]),
    ("compare_default", ["compare"]),
)


def _pool(n: int, count: int, seed: int) -> list[State]:
    rng = np.random.default_rng(seed)
    return [State(rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n)) for _ in range(count)]


def _put_traj(out: dict, key: str, traj) -> None:
    xi, eta = _sample_stacks(traj)
    out.update({f"{key}/xi": xi, f"{key}/eta": eta, f"{key}/energy": traj.energy})
    out[f"{key}/spectrum"] = traj.spectrum


def _outcome(call) -> np.ndarray:
    try:
        call()
    except Exception as err:  # noqa: BLE001 - the outcome is the capture
        return np.array(f"{type(err).__name__}: {err}")
    return np.array("no error")


def trajectories(out: dict) -> None:
    for n, count, t_end in POOLS:
        params = ModelParams(n, 0.5, 1.0)
        for k, state in enumerate(_pool(n, count, 811 + n)):
            _put_traj(out, f"traj/rk/n{n}/{k}", integrate(state, params, t_end))
            _put_traj(out, f"traj/algebraic/n{n}/{k}", solve_trajectory(state, params, t_end))
    params = ModelParams(8, 0.5, 1.0)
    state = _pool(8, 1, 2718)[0]
    for label, t_end, dt in GRIDS:
        _put_traj(out, f"traj/rk/grid/{label}", integrate(state, params, t_end, sample_dt=dt))


def reversals(out: dict) -> None:
    for n, count, t_end in POOLS[:2]:
        params = ModelParams(n, 0.5, 1.0)
        forwards = [integrate(state, params, t_end) for state in _pool(n, count, 811 + n)]
        for k, forward in enumerate(forwards):
            traj = backward_via_reversal(forward)
            xi, eta = _sample_stacks(traj)
            key = f"backward/n{n}/{k}"
            out.update({f"{key}/xi": xi, f"{key}/eta": eta, f"{key}/energy": traj.energy})
    # the first n = 8 trajectory with its energies forged flat: no forward
    # drift is carried over, so only the rounding allowance is left
    first = forwards[0]
    forged = dataclasses.replace(first, energy=np.full_like(first.energy, first.energy[0]))
    out["backward/forged/error"] = _outcome(lambda: backward_via_reversal(forged))


def exponentials(out: dict) -> None:
    params = ModelParams(8, 0.5, 1.0)
    times = sample_times(5.0, 0.05)[1:]
    for seed in (7, 811):
        for k, state in enumerate(_pool(8, 4, seed)):
            Y = build_bundle(state, params).Ycal
            out[f"expm/pool{seed}/{k}"] = solve.matrix_exp(times[:, None, None] * Y)
    Y = build_bundle(_pool(5, 1, 3)[0], ModelParams(5, 1.0, 1.0)).Ycal
    out["expm/scaled"] = solve.matrix_exp(np.array([1.0, 4.0, 16.0])[:, None, None] * Y)
    out["expm/matrix"] = solve.matrix_exp(1.5 * Y)
    out["expm/zero"] = solve.matrix_exp(np.zeros((6, 6)))
    mixed = np.array([0.5, 1.0, 2.0])[:, None, None] * Y
    mixed[1] = np.triu(mixed[1])
    out["expm/triangular_mix"] = solve.matrix_exp(mixed)


def _put_reports(out: dict, key: str, reports) -> None:
    out[f"{key}/names"] = np.array([r.name for r in reports])
    out[f"{key}/values"] = np.array([r[1:9] for r in reports], dtype=float)
    blocks = [[r.blocks[b] for b in _BLOCKS] for r in reports if r.blocks is not None]
    out[f"{key}/blocks"] = np.array(blocks).reshape(-1, len(_BLOCKS))


def suites(out: dict) -> None:
    perturbations = runpy.run_path(str(ROOT / "tests" / "test_verify.py"))["PERTURBATIONS"]
    for n, kappa, box in SUITE_CELLS:
        params = ModelParams(n, 0.6, kappa)
        cell = f"suite/n{n}_kappa{kappa:g}_box{box:g}"
        _put_reports(out, f"{cell}/clean", run_suite(params, 4, 811, box=box))
        for target, i, j in perturbations.values():
            key = f"{cell}/{target}_{i}_{j}"
            try:
                reports = run_suite(params, 4, 811, box=box, perturb=(target, i, j, 1e-3))
            except Exception as err:  # noqa: BLE001 - the outcome is the capture
                out[f"{key}/error"] = np.array(f"{type(err).__name__}: {err}")
                continue
            _put_reports(out, key, reports)
    jsonl = reports_to_jsonl(run_suite(ModelParams(5, 0.6, 1.2), 3, 6))
    out["suite/jsonl"] = np.frombuffer(jsonl.encode(), np.uint8)
    # runs that raise, from a bundle field or from a coordinate guard
    for n in (3, 4, 8):
        for box in (200.0, 300.0, 500.0):
            params = ModelParams(n, 1.0, 1.0)
            outcome = _outcome(lambda: run_suite(params, 8, 811, box=box))
            out[f"suite/n{n}_box{box:g}/error"] = outcome


def bundles(out: dict) -> None:
    stack = build_bundle(_draw_states(8, 5, 811, 3.0), ModelParams(8, 0.6, 1.0))
    one = build_bundle(_pool(5, 1, 811)[0], ModelParams(5, 1.0, 2.5))
    for name in _ARRAY_FIELDS:
        out[f"bundle/stack/{name}"] = getattr(stack, name)
        out[f"bundle/state/{name}"] = getattr(one, name)


def errors(out: dict) -> None:
    for n, box, seed, t_end in HOT:
        state = random_state(n, np.random.default_rng(seed), box=box)
        params = ModelParams(n, 1.0, 1.0)
        key = f"n{n}_box{box}_seed{seed}"
        out[f"error/algebraic/{key}"] = _outcome(lambda: solve_trajectory(state, params, t_end))
        out[f"error/rk/{key}"] = _outcome(lambda: integrate(state, params, t_end))
        out[f"error/point/{key}"] = _outcome(lambda: solve.positions_at(state, params, t_end))

    def square(y, f):  # y' = y^2, y(0) = 1 blows up at t = 1
        return np.multiply(y, y, out=f)

    times = np.linspace(0.0, 2.0, 9)
    out["error/blow_up"] = _outcome(lambda: dop853(square, 2.0, np.ones(1), times, 1e-6, 1e-9))
    out["error/expm_overflow_diagonal"] = _outcome(lambda: solve.matrix_exp(np.diag([800.0, 1.0])))
    Y = build_bundle(_pool(5, 1, 3)[0], ModelParams(5, 1.0, 1.0)).Ycal
    out["error/expm_overflow_full"] = _outcome(lambda: solve.matrix_exp(200.0 * Y))


def refusals(out: dict) -> None:
    for n, box, seed in REFUSALS:
        state = random_state(n, np.random.default_rng(seed), box=box)
        key = f"refusal/n{n}_box{box:g}_seed{seed}"
        kind, message, j, t = "no error", "", None, None
        try:
            solve_trajectory(state, ModelParams(n, 1.0, 1.0), 40.0)
        except Exception as err:  # noqa: BLE001 - the outcome is the capture
            kind, message = type(err).__name__, str(err)
            j, t = getattr(err, "j", None), getattr(err, "t", None)
        out[f"{key}/type"], out[f"{key}/message"] = np.array(kind), np.array(message)
        out[f"{key}/j_t"] = np.array([np.nan if v is None else v for v in (j, t)], dtype=float)


def cli_runs(out: dict) -> None:
    for label, argv in CLI_RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main([a.format(dir=tmp) for a in argv])
            out[f"cli/{label}/exit"] = np.array(code)
            out[f"cli/{label}/stdout"] = np.frombuffer(stdout.getvalue().encode(), np.uint8)
            out[f"cli/{label}/stderr"] = np.frombuffer(stderr.getvalue().encode(), np.uint8)
            for path in sorted(Path(tmp).iterdir()):
                out[f"cli/{label}/{path.name}"] = np.frombuffer(path.read_bytes(), np.uint8)


SECTIONS = (trajectories, reversals, exponentials, suites, bundles, errors, refusals, cli_runs)


def capture() -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    # the failing calls may warn on their way to the error they raise
    with np.errstate(all="ignore"):
        for section in SECTIONS:
            section(out)
    return out


def diff(a: dict, b: dict) -> tuple[list[str], int]:
    """One line per key of either capture, and the number of keys that differ."""
    lines, differ = [], 0
    for key in sorted(a.keys() | b.keys()):
        if key not in a or key not in b:
            lines.append(f"{key}: only in {'A' if key in a else 'B'}")
            differ += 1
            continue
        x, y = np.asarray(a[key]), np.asarray(b[key])
        if x.shape != y.shape or x.dtype != y.dtype:
            lines.append(f"{key}: {x.dtype}{x.shape} against {y.dtype}{y.shape}")
            differ += 1
            continue
        if x.dtype.kind in "fiu":
            # the bytes of each element, one row per element
            bits = [np.ascontiguousarray(v).reshape(-1, 1).view(np.uint8) for v in (x, y)]
            mask = (bits[0] != bits[1]).any(axis=1)
            u, v = (w.astype(float).ravel()[mask] for w in (x, y))
            finite = np.isfinite(u) & np.isfinite(v)
            gap = np.abs(u[finite] - v[finite])
            worst = f"{gap.max():.3e}" if finite.any() else "none"
            worst = f"{worst}, {int((~finite).sum())} non-finite" if mask.any() else "0"
        else:
            mask = np.atleast_1d(x != y)
            worst = "strings differ" if mask.any() else "0"
        differ += bool(mask.any())
        lines.append(f"{key}: {int(mask.sum())}/{x.size} differ, largest {worst}")
    return lines, differ


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--diff":
        with np.load(argv[1]) as a, np.load(argv[2]) as b:
            lines, differ = diff(dict(a), dict(b))
        print("\n".join(lines))
        print(f"{len(lines)} keys, {differ} differ")
        return int(differ > 0)
    if len(argv) == 1:
        out = capture()
        np.savez(argv[0], **out)
        print(f"{len(out)} keys written to {argv[0]}")
        return 0
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
