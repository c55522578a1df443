"""Command-line front end.

    vdtoda verify|simulate|solve|compare [--config FILE] [flags]

Configuration is a single JSON document whose keys match the RunConfig
fields; command-line flags override file values, which override the
built-in defaults.  Exit codes: 0 success, 1 check failure, 2 usage or
parse error, 3 numerical breakdown.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .core import ModelParams, State
from .hamiltonian import hamiltonian
from .integrate import (
    Trajectory,
    TrajectoryCheckError,
    _sample_stacks,
    _text_sink,
    _write_table,
    initial_only,
    integrate,
    spectral_drift,
    spectrum_to_csv,
    trajectory_to_csv,
)
from .lax import build_bundle
from .solve import solve_trajectory
from .verify import _MATRIX_FIELDS, reports_to_jsonl, run_suite

__all__ = [
    "RunConfig",
    "cmd_verify",
    "cmd_trajectory",
    "cmd_compare",
    "main",
]

_COMPARE_TOL = 1e-5
_TRAJECTORY_METHODS = {"simulate": "rk", "solve": "algebraic"}
# every perturbable bundle matrix but X_H[W]
_DUMPED_MATRICES = tuple(name for name in _MATRIX_FIELDS if name != "xhw")


@dataclass(frozen=True)
class RunConfig:
    """One run's worth of settings; every command reads a subset."""

    n: int = 3
    beta: float = 1.0
    kappa: float = 1.0
    xi: tuple[float, ...] | None = None
    eta: tuple[float, ...] | None = None
    t_end: float = 5.0
    sample_dt: float = 0.05
    rtol: float = 1e-10
    atol: float = 1e-12
    seed: int = 42
    num_states: int = 25

    def __post_init__(self) -> None:
        ModelParams(self.n, self.beta, self.kappa)  # reuse its validation
        for name in ("t_end", "sample_dt", "rtol", "atol"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.t_end < 0.0:
            raise ValueError("t_end must be >= 0")
        if self.sample_dt <= 0.0:
            raise ValueError("sample_dt must be positive")
        if self.rtol <= 0.0 or self.atol <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.num_states < 1:
            raise ValueError("num_states must be >= 1")
        for name in ("xi", "eta"):
            vec = getattr(self, name)
            if vec is None:
                continue
            vec = tuple(float(v) for v in vec)
            if len(vec) != self.n:
                raise ValueError(f"{name} must have length n = {self.n}")
            if not all(np.isfinite(vec)):
                raise ValueError(f"{name} entries must be finite")
            object.__setattr__(self, name, vec)

    @property
    def params(self) -> ModelParams:
        return ModelParams(self.n, self.beta, self.kappa)

    @property
    def state(self) -> State:
        xi = np.zeros(self.n) if self.xi is None else np.array(self.xi)
        eta = np.zeros(self.n) if self.eta is None else np.array(self.eta)
        return State(xi, eta)


def _load_config(path: str | None, overrides: dict) -> RunConfig:
    values: dict = {}
    if path is not None:
        raw = Path(path).read_text(encoding="utf-8")
        doc = json.loads(raw)
        if not isinstance(doc, dict):
            raise ValueError("config document must be a JSON object")
        known = {f.name for f in fields(RunConfig)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        values.update(doc)
    values.update({k: v for k, v in overrides.items() if v is not None})
    for name in ("xi", "eta"):
        if values.get(name) is not None:
            values[name] = tuple(float(v) for v in values[name])
    return RunConfig(**values)


def _parse_vector(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(","))


def _parse_perturb(text: str) -> tuple[str, int, int, float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("expected NAME,I,J,AMOUNT")
    return parts[0], int(parts[1]), int(parts[2]), float(parts[3])


def _open_target(path: str | None):
    return _text_sink(sys.stdout if path is None or path == "-" else path)


def cmd_verify(
    config: RunConfig,
    output: str | None = None,
    perturb: tuple[str, int, int, float] | None = None,
    box: float = 2.0,
    dump_matrices: str | None = None,
) -> int:
    """Run the residual suite; exit 0 iff every report passes."""
    reports = run_suite(config.params, config.num_states, config.seed, box=box, perturb=perturb)
    with _open_target(output) as target:
        target.write(reports_to_jsonl(reports))
    if dump_matrices is not None:
        _dump_bundle(config, dump_matrices)
    failed = sum(1 for r in reports if not r.passed)
    print(
        f"{len(reports)} residual reports, {failed} failed",
        file=sys.stderr,
    )
    return 0 if failed == 0 else 1


def _dump_bundle(config: RunConfig, directory: str) -> None:
    # One CSV per matrix at the configured state, 17 significant digits.
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    bundle = build_bundle(config.state, config.params)
    for name in _DUMPED_MATRICES:
        _write_table(out / f"{name}.csv", getattr(bundle, name))


def _run_method(config: RunConfig, method: str) -> Trajectory:
    if config.t_end == 0.0:
        return initial_only(config.state, config.params)
    if method == "rk":
        return integrate(
            config.state,
            config.params,
            config.t_end,
            sample_dt=config.sample_dt,
            rtol=config.rtol,
            atol=config.atol,
        )
    if method == "algebraic":
        return solve_trajectory(
            config.state, config.params, config.t_end, sample_dt=config.sample_dt
        )
    raise ValueError(f"unknown method {method!r}")


def cmd_trajectory(
    config: RunConfig,
    method: str,
    output: str | None = None,
    spectrum_output: str | None = None,
) -> int:
    """Trajectory of the configured state; CSV plus drift summary.

    ``method`` is "rk" (the ``simulate`` command) or "algebraic" (``solve``).
    """
    traj = _run_method(config, method)
    with _open_target(output) as target:
        trajectory_to_csv(traj, target)
    if spectrum_output is not None:
        spectrum_to_csv(traj, spectrum_output)
    drift = float(np.max(np.abs(traj.energy - traj.energy[0])))
    print(
        f"energy drift {drift:.3e}, spectral drift {spectral_drift(traj):.3e}",
        file=sys.stderr,
    )
    return 0


def cmd_compare(
    config: RunConfig,
    output: str | None = None,
    method_a: str = "rk",
    method_b: str = "algebraic",
    dump_trajectories: str | None = None,
) -> int:
    """Per-sample deviation between two solution methods.

    Emits `t,max_dq,max_dtheta` rows; exit 0 iff the worst deviation
    stays within 1e-5.
    """
    traj_a = _run_method(config, method_a)
    traj_b = _run_method(config, method_b)
    # largest deviation per sample, in positions and in rapidities
    dq, dtheta = (
        np.max(np.abs(a - b), axis=1)
        for a, b in zip(_sample_stacks(traj_a), _sample_stacks(traj_b))
    )
    rows = np.column_stack([traj_a.t, dq, dtheta])
    with _open_target(output) as target:
        _write_table(target, rows, ["t", "max_dq", "max_dtheta"])
    if dump_trajectories is not None:
        out = Path(dump_trajectories)
        out.mkdir(parents=True, exist_ok=True)
        trajectory_to_csv(traj_a, out / f"trajectory_{method_a}.csv", method=method_a)
        trajectory_to_csv(traj_b, out / f"trajectory_{method_b}.csv", method=method_b)
    print(f"max |dq| = {dq.max():.3e}, max |dtheta| = {dtheta.max():.3e}", file=sys.stderr)
    return 0 if max(dq.max(), dtheta.max()) <= _COMPARE_TOL else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vdtoda",
        description="Deformed relativistic open-chain toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--n", type=int)
        p.add_argument("--beta", type=float)
        p.add_argument("--kappa", type=float)
        p.add_argument("--xi", type=_parse_vector, help="comma-separated positions")
        p.add_argument("--eta", type=_parse_vector, help="comma-separated rapidities")
        p.add_argument("--t-end", dest="t_end", type=float)
        p.add_argument("--sample-dt", dest="sample_dt", type=float)
        p.add_argument("--rtol", type=float)
        p.add_argument("--atol", type=float)
        p.add_argument("--seed", type=int)
        p.add_argument("--num-states", dest="num_states", type=int)
        p.add_argument("--output", "-o", help="output path (default: stdout)")

    p_verify = sub.add_parser("verify", help="run the residual suite")
    add_common(p_verify)
    p_verify.add_argument(
        "--perturb",
        type=_parse_perturb,
        help="corrupt one matrix entry: NAME,I,J,AMOUNT (sensitivity control)",
    )
    p_verify.add_argument("--box", type=float, default=2.0, help="random state box half-width")
    p_verify.add_argument("--dump-matrices", help="directory for per-matrix CSV dumps")

    for name, help_text in (
        ("simulate", "adaptive Runge-Kutta trajectory"),
        ("solve", "algebraic (factorization) trajectory"),
    ):
        p_traj = sub.add_parser(name, help=help_text)
        add_common(p_traj)
        p_traj.add_argument("--spectrum-output", help="also write the spectrum CSV here")

    p_cmp = sub.add_parser("compare", help="dual-method deviation report")
    add_common(p_cmp)
    p_cmp.add_argument("--method-a", choices=("rk", "algebraic"), default="rk")
    p_cmp.add_argument("--method-b", choices=("rk", "algebraic"), default="algebraic")
    p_cmp.add_argument("--dump-trajectories", help="directory for tagged trajectory CSVs")

    return parser


_CONFIG_KEYS = tuple(f.name for f in fields(RunConfig))


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        overrides = {key: getattr(args, key, None) for key in _CONFIG_KEYS}
        config = _load_config(args.config, overrides)
        if args.command == "verify":
            return cmd_verify(
                config,
                output=args.output,
                perturb=args.perturb,
                box=args.box,
                dump_matrices=args.dump_matrices,
            )
        if args.command in _TRAJECTORY_METHODS:
            return cmd_trajectory(
                config,
                _TRAJECTORY_METHODS[args.command],
                output=args.output,
                spectrum_output=args.spectrum_output,
            )
        if args.command == "compare":
            return cmd_compare(
                config,
                output=args.output,
                method_a=args.method_a,
                method_b=args.method_b,
                dump_trajectories=args.dump_trajectories,
            )
        raise ValueError(f"unknown command {args.command!r}")
    except TrajectoryCheckError as err:
        print(f"check failure: {err}", file=sys.stderr)
        return 1
    except ArithmeticError as err:
        print(f"numerical breakdown: {err}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
