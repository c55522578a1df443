"""Command-line front end.

    vdtoda verify|simulate|solve|compare [--config FILE] [flags]

Configuration is a single JSON document whose keys match the RunConfig
fields; command-line flags override file values, which override the
built-in defaults.  ``_COMMAND_KEYS`` lists the fields each command
reads: its parser offers a flag for each of them and for no other, and
its config file may hold those keys only.  A field's default sets its
flag's type and the type check of every value.  Exit codes: 0 success,
1 check failure, 2 usage or parse error, 3 numerical breakdown.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from .core import ModelParams, State
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
from .lax import build_bundle, build_omega
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
# what a value of each scalar field may be, by the type of its default
_KINDS = {int: (Integral, "an integer"), float: (Real, "a real number")}
_VECTOR_HELP = {"xi": "comma-separated positions", "eta": "comma-separated rapidities"}
# every perturbable bundle matrix but X_H[W]
_DUMPED_MATRICES = tuple(name for name in _MATRIX_FIELDS if name != "xhw")
# the RunConfig fields each command reads: its flags and the keys its config file may hold
_COMMAND_KEYS = {
    "verify": ("n", "beta", "kappa", "xi", "eta", "seed", "num_states"),
    "simulate": ("n", "beta", "kappa", "xi", "eta", "t_end", "sample_dt", "rtol", "atol"),
    "solve": ("n", "beta", "kappa", "xi", "eta", "t_end", "sample_dt"),
    "compare": ("n", "beta", "kappa", "xi", "eta", "t_end", "sample_dt", "rtol", "atol"),
}


@dataclass(frozen=True)
class RunConfig:
    """One run's worth of settings; every command reads a subset."""

    n: int = 3
    beta: float = 1.0
    kappa: float = 1.0
    xi: tuple[float, ...] | None = None
    eta: tuple[float, ...] | None = None
    t_end: float = 3.0
    sample_dt: float = 0.05
    rtol: float = 1e-10
    atol: float = 1e-12
    seed: int = 42
    num_states: int = 25

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in _VECTOR_HELP:
                if value is None:
                    continue
                vec = tuple(value) if np.iterable(value) else None
                if vec is None or not all(map(_is_real, vec)):
                    raise ValueError(f"{f.name} must be a sequence of real numbers, got {value!r}")
                object.__setattr__(self, f.name, tuple(map(float, vec)))
            elif not _is_real(value, _KINDS[type(f.default)][0]):
                raise ValueError(f"{f.name} must be {_KINDS[type(f.default)][1]}, got {value!r}")
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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        for name in ("xi", "eta"):
            vec = getattr(self, name)
            if vec is None:
                continue
            if len(vec) != self.n:
                raise ValueError(f"{name} must have length n = {self.n}")
            if not all(np.isfinite(vec)):
                raise ValueError(f"{name} entries must be finite")

    @property
    def params(self) -> ModelParams:
        return ModelParams(self.n, self.beta, self.kappa)

    @property
    def state(self) -> State:
        xi = np.zeros(self.n) if self.xi is None else np.array(self.xi)
        eta = np.zeros(self.n) if self.eta is None else np.array(self.eta)
        return State(xi, eta)


def _is_real(value, kind: type = Real) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


def _load_config(command: str, path: str | None, overrides: dict) -> RunConfig:
    values: dict = {}
    if path is not None:
        raw = Path(path).read_text(encoding="utf-8")
        doc = json.loads(raw)
        if not isinstance(doc, dict):
            raise ValueError("config document must be a JSON object")
        unread = set(doc) - set(_COMMAND_KEYS[command])
        if unread:
            raise ValueError(f"{command} does not read config keys {sorted(unread)}")
        values.update(doc)
    values.update({k: v for k, v in overrides.items() if v is not None})
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
    if dump_matrices is None and (config.xi, config.eta) != (None, None):
        raise ValueError("verify reads xi and eta only with --dump-matrices")
    try:
        reports = run_suite(config.params, config.num_states, config.seed, box=box, perturb=perturb)
    except IndexError as err:  # a --perturb entry outside its matrix
        raise ValueError(f"--perturb {err}") from err
    with _open_target(output) as target:
        target.write(reports_to_jsonl(reports))
    if dump_matrices is not None:
        _dump_bundle(config, dump_matrices)
    failed = sum(1 for r in reports if not r.passed)
    worst = max(reports, key=lambda r: np.nan_to_num(r.margin, nan=np.inf))  # nan ranks worst
    print(
        f"{len(reports)} residual reports, {failed} failed, worst margin {worst.margin:.1e}"
        f" ({worst.name}, state {worst.state_index})",
        file=sys.stderr,
    )
    return 0 if failed == 0 else 1


def _dump_bundle(config: RunConfig, directory: str) -> None:
    # One CSV per matrix at the configured state, 17 significant digits;
    # the bundle holds D and Dcal as diagonals and not Omega or Q.
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    xi = config.state.xi
    bundle = build_bundle(config.state, config.params)
    dense = dict(D=np.diag(bundle.d), Dcal=np.diag(bundle.dcal), Omega=build_omega(config.n),
                 Q=np.diag(np.concatenate([xi, -xi[::-1]])))
    for name in _DUMPED_MATRICES:
        _write_table(out / f"{name}.csv", dense[name] if name in dense else getattr(bundle, name))


def _rk(config: RunConfig) -> Trajectory:
    return integrate(config.state, config.params, config.t_end,
                     sample_dt=config.sample_dt, rtol=config.rtol, atol=config.atol)


def _algebraic(config: RunConfig) -> Trajectory:
    return solve_trajectory(config.state, config.params, config.t_end, sample_dt=config.sample_dt)


def _trajectory(config: RunConfig, route) -> Trajectory:
    # both routes refuse t_end = 0, where the trajectory is the initial sample
    if config.t_end == 0.0:
        return initial_only(config.state, config.params)
    return route(config)


def cmd_trajectory(
    config: RunConfig,
    route,
    output: str | None = None,
    spectrum_output: str | None = None,
) -> int:
    """Trajectory of the configured state; CSV plus drift summary.

    ``route`` maps the config to its trajectory: ``_rk`` (the ``simulate``
    command) or ``_algebraic`` (``solve``).
    """
    traj = _trajectory(config, route)
    with _open_target(output) as target:
        trajectory_to_csv(traj, target)
    if spectrum_output is not None:
        with _open_target(spectrum_output) as target:
            spectrum_to_csv(traj, target)
    drift = float(np.max(np.abs(traj.energy - traj.energy[0])))
    print(
        f"energy drift {drift:.3e}, spectral drift {spectral_drift(traj):.3e}",
        file=sys.stderr,
    )
    return 0


def cmd_compare(
    config: RunConfig, output: str | None = None, dump_trajectories: str | None = None
) -> int:
    """Per-sample deviation between the RK and the algebraic route.

    Emits `t,max_dq,max_dtheta` rows; exit 0 iff the worst deviation
    stays within 1e-5.
    """
    trajs = {"rk": _trajectory(config, _rk), "algebraic": _trajectory(config, _algebraic)}
    rk, algebraic = trajs.values()
    # largest deviation per sample, in positions and in rapidities
    dq, dtheta = (
        np.max(np.abs(a - b), axis=1)
        for a, b in zip(_sample_stacks(rk), _sample_stacks(algebraic))
    )
    rows = np.column_stack([rk.t, dq, dtheta])
    with _open_target(output) as target:
        _write_table(target, rows, ["t", "max_dq", "max_dtheta"])
    if dump_trajectories is not None:
        out = Path(dump_trajectories)
        out.mkdir(parents=True, exist_ok=True)
        for method, traj in trajs.items():
            trajectory_to_csv(traj, out / f"trajectory_{method}.csv", method=method)
    print(f"max |dq| = {dq.max():.3e}, max |dtheta| = {dtheta.max():.3e}", file=sys.stderr)
    return 0 if max(dq.max(), dtheta.max()) <= _COMPARE_TOL else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vdtoda",
        description="Deformed relativistic open-chain toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help_text: str, **defaults) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        for f in (f for f in fields(RunConfig) if f.name in _COMMAND_KEYS[name]):
            kind = _parse_vector if f.name in _VECTOR_HELP else type(f.default)
            flag = "--" + f.name.replace("_", "-")
            p.add_argument(flag, dest=f.name, type=kind, help=_VECTOR_HELP.get(f.name))
        p.add_argument("--output", "-o", help="output path, or - for stdout (the default)")
        p.set_defaults(**defaults)
        return p

    p_verify = command("verify", "run the residual suite", handler=cmd_verify)
    p_verify.add_argument(
        "--perturb",
        type=_parse_perturb,
        help="corrupt one matrix entry: NAME,I,J,AMOUNT (sensitivity control)",
    )
    p_verify.add_argument("--box", type=float, default=2.0, help="random state box half-width")
    p_verify.add_argument("--dump-matrices", help="directory for per-matrix CSV dumps")

    for name, route, help_text in (
        ("simulate", _rk, "adaptive Runge-Kutta trajectory"),
        ("solve", _algebraic, "algebraic (factorization) trajectory"),
    ):
        p_traj = command(name, help_text, handler=cmd_trajectory, route=route)
        p_traj.add_argument(
            "--spectrum-output", help="also write the spectrum CSV here, or - for stdout"
        )

    p_cmp = command("compare", "dual-method deviation report", handler=cmd_compare)
    p_cmp.add_argument("--dump-trajectories", help="directory for tagged trajectory CSVs")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = vars(_build_parser().parse_args(argv))
    # every other argparse dest is a keyword of the handler
    handler, path, command = args.pop("handler"), args.pop("config"), args.pop("command")
    overrides = {key: args.pop(key) for key in _COMMAND_KEYS[command]}
    try:
        return handler(_load_config(command, path, overrides), **args)
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
