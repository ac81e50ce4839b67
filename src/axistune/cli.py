"""Command-line entry point.

Subcommands
-----------
``simulate``   one closed-loop run at fixed gains; trace CSV + metric report
``tune``       Bayesian-optimization gain search; convergence CSV + record
``compare``    grid search, classical baselines, and BO side by side
``sweep-m0``   repeated seeded BO runs over a list of initial-design sizes
``grid``       exhaustive grid search with an on-disk cost-table cache

Each key a command takes is both a flag and a config key: ``simulate``
takes preset, weights and gains; ``tune`` and ``compare`` preset,
weights, seed, m0, beta and max_iters; ``sweep-m0`` those, with m0 a
comma-separated list, plus repeats; ``grid`` preset and weights.  A
command resolves its keys from (in increasing priority) preset
defaults, an optional flat ``key=value`` file given by ``--config``,
and the flags, and reads and checks every one before it simulates
anything or creates its ``--out`` directory; a key it does not take is
an error in the file as on the command line.  Each command writes a
JSON run record whose ``config_hash`` covers the keys set.  Re-running
a command with the same keys reproduces its record and CSVs bitwise,
timestamps excluded.

Exit codes: 0 success; 1 divergence or tuning failure; 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .baselines import TuningError, itae_tune, relay_tune, ziegler_nichols
from .bench import TuningBench
from .metrics import cost as metric_cost
from .presets import DEFAULT_PRESET, PRESETS, Preset, get_preset, get_weights
from .simloop import SimTrace
from .tuner import (
    BoConfig,
    OracleAbort,
    grid_search,
    load_grid_table,
    run_bo,
    save_grid_table,
)

__all__ = ["main"]


class UsageError(Exception):
    """Configuration or argument problem; maps to exit code 2."""


class RunFailure(Exception):
    """Divergence or tuning failure; maps to exit code 1."""


# -- the keys each command takes ----------------------------------------------


@dataclasses.dataclass(frozen=True)
class _Key:
    """One settable value: its flag's help, the ``kind`` of text it takes,
    and ``parse``, which reads that text and raises ValueError on other."""

    name: str
    help: str
    kind: str
    parse: Callable[[str], object]


def _gains(text: str) -> tuple[float, float, float]:
    kp, kv, third = (float(s) for s in text.split(","))
    return kp, kv, third


# sweep-m0's initial design sizes and seeded runs per size
_SWEEP_M0 = (5, 20, 50)
_SWEEP_REPEATS = 10

_PRESET = _Key("preset", f"configuration bundle: {', '.join(sorted(PRESETS))} "
               f"(default: {DEFAULT_PRESET})", "a preset name",
               lambda text: get_preset(text))
_WEIGHTS = _Key("weights", "cost-weight preset override", "a weight preset name",
                lambda text: get_weights(text))
_GAINS = _Key("gains", "KP,KV,KI (native axes of the preset)",
              "three comma-separated numbers", _gains)
_SEED = _Key("seed", "random seed", "an integer", int)
_M0 = _Key("m0", "initial design size", "an integer", int)
_M0_LIST = _Key("m0", f"initial design sizes (default: "
                f"{','.join(map(str, _SWEEP_M0))})",
                "a comma-separated integer list",
                lambda text: tuple(int(s) for s in text.split(",")))
_BETA = _Key("beta", "LCB confidence multiplier", "a number", float)
_MAX_ITERS = _Key("max_iters", "optimization iteration budget", "an integer", int)
_REPEATS = _Key("repeats", f"seeded runs per m0 (default: {_SWEEP_REPEATS})",
                "an integer", int)
# the BoConfig field each key of a BO command sets
_BO_FIELDS = {"seed": "seed", "m0": "m0", "beta": "beta",
              "max_iters": "max_iterations"}


def _parse_config_file(path: str, keys: tuple[_Key, ...]) -> dict[str, str]:
    """Read a flat key=value config file ('#' starts a comment)."""
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"config file not found: {path}")
    names = [key.name for key in keys]
    out: dict[str, str] = {}
    for lineno, raw in enumerate(p.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in names:
            raise UsageError(
                f"{path}:{lineno}: unknown key {key!r}; "
                f"known keys: {', '.join(names)}"
            )
        out[key] = value
    return out


def _read(key: _Key, text: str):
    try:
        return key.parse(text)
    except KeyError as e:   # a preset lookup, whose message names the choices
        raise UsageError(e.args[0]) from None
    except ValueError:
        raise UsageError(f"{key.name} must be {key.kind}, got {text!r}") from None


@dataclasses.dataclass
class Resolved:
    """A command's inputs, every one read and checked."""

    command: str
    config: dict[str, str]   # the text of each key set, as recorded
    preset: Preset
    bench: TuningBench   # scores controller triples (kp, kv, ki)
    out: Path
    gains: tuple[float, float, float] | None = None   # simulate; native axes
    # tune and compare run one; sweep-m0 one per m0, seeded for its first repeat
    bo: tuple[BoConfig, ...] = ()
    repeats: int = 0   # sweep-m0's seeded runs per m0

    @property
    def config_hash(self) -> str:
        canon = "\n".join(f"{k}={self.config[k]}" for k in sorted(self.config))
        return hashlib.sha256(canon.encode()).hexdigest()


def _bo_config(preset: Preset, values: dict, **changes) -> BoConfig:
    """BoConfig defaults overridden by the BO keys set, then ``changes``."""
    fields = {_BO_FIELDS[k]: v for k, v in values.items() if k in _BO_FIELDS}
    try:
        bo = BoConfig(**{**fields, **changes})
    except ValueError as e:
        raise UsageError(str(e)) from None
    if bo.m0 > preset.feasible.size:
        raise UsageError(f"m0 must be at most {preset.feasible.size}, the size "
                         f"of the {preset.name} grid, got {bo.m0}")
    return bo


def _resolve(command: str, args: argparse.Namespace) -> Resolved:
    """Read and check every key of ``command`` (preset defaults, then the
    ``--config`` file, then the flags); create ``--out`` last."""
    keys = _COMMANDS[command].keys
    config = _parse_config_file(args.config, keys) if args.config else {}
    for key in keys:
        flag = getattr(args, key.name)
        if flag is not None:
            config[key.name] = flag
    config.setdefault("preset", DEFAULT_PRESET)
    values = {key.name: _read(key, config[key.name])
              for key in keys if key.name in config}
    preset = values["preset"]
    fset = preset.feasible
    bench = preset.bench(values.get("weights"))
    res = Resolved(command, config, preset, bench, Path(args.out or "."))

    if command == "simulate":
        res.gains = values.get("gains")
        if res.gains is None:
            raise UsageError("simulate requires --gains KP,KV,KI (native axes)")
        if not fset.contains(res.gains):
            raise UsageError(
                f"gains {res.gains} outside the feasible box "
                f"kp={fset.kp}, kv={fset.kv}, {fset.third_axis}={fset.third}"
            )
    elif command == "sweep-m0":
        res.repeats = values.get("repeats", _SWEEP_REPEATS)
        if res.repeats < 1:
            raise UsageError("repeats must be >= 1")
        seed = values.get("seed", BoConfig.seed)
        # disjoint seeds across every (m0, repeat) pair
        res.bo = tuple(
            _bo_config(preset, values, m0=m0, seed=seed + i * res.repeats)
            for i, m0 in enumerate(values.get("m0", _SWEEP_M0)))
    elif command != "grid":
        res.bo = (_bo_config(preset, values),)

    try:
        res.out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise UsageError(f"cannot create output directory {str(res.out)!r}: "
                         f"{e.strerror}") from None
    return res


# -- output plumbing --------------------------------------------------------


def _write_csv(path: Path, header, rows) -> None:
    """Write a header line and one line per row of Python scalars.

    Every cell is ``str`` of its value: text as it is, and for an int or
    a float its ``repr``, which reads back to the same number.
    """
    with path.open("w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(map(str, row)) + "\n")


def _write_trace_csv(path: Path, trace: SimTrace) -> None:
    """One column per array channel of the trace, in field order."""
    names = [f.name for f in dataclasses.fields(trace)
             if isinstance(getattr(trace, f.name), np.ndarray)]
    cols = [getattr(trace, n) for n in names]
    # converted a block of rows at a time, so a long trace's Python
    # floats are not all alive at once
    block = 1024
    _write_csv(path, names, (
        row for k in range(0, len(trace), block)
        for row in zip(*(c[k:k + block].tolist() for c in cols))
    ))


def _write_record(res: Resolved, payload: dict) -> Path:
    record = {
        "command": res.command,
        "config": res.config,
        "config_hash": res.config_hash,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        # simulate and grid draw no random numbers
        **({"seed": res.bo[0].seed} if res.bo else {}),
        **payload,
    }
    path = res.out / f"record_{res.command.replace('-', '_')}.json"
    path.write_text(json.dumps(record, sort_keys=True, indent=2) + "\n")
    return path


def _run_bo(res: Resolved, bo: BoConfig):
    """`run_bo` on the command's bench; an oracle failure exits 1."""
    try:
        return run_bo(res.bench.evaluate_many, res.preset.feasible, bo)
    except OracleAbort as e:
        raise RunFailure(f"oracle failed during tuning: {e}") from e


def _fmt_gains(point) -> str:
    kp, kv, third = (float(v) for v in np.asarray(point).reshape(3))
    return f"({kp:g}, {kv:g}, {third:g})"


# -- subcommands -------------------------------------------------------------


def cmd_simulate(res: Resolved) -> int:
    gains = res.preset.feasible.gains(res.gains)
    trace = res.bench.trace(gains)
    metrics = res.bench.score(trace)
    total = metric_cost(metrics, res.bench.weights)

    trace_path = res.out / "trace_simulate.csv"
    _write_trace_csv(trace_path, trace)
    _write_record(res, {
        "gains": list(gains),
        "metrics": metrics.as_dict(),
        "cost": total,
        "diverged": bool(trace.diverged),
        "traces": [trace_path.name],
    })
    for name, value in metrics.as_dict().items():
        print(f"{name} = {value!r}")
    print(f"cost = {total!r}")
    if trace.diverged:
        raise RunFailure(f"simulation diverged at t={trace.t_diverged}")
    return 0


def cmd_tune(res: Resolved) -> int:
    (bo,) = res.bo
    state = _run_bo(res, bo)

    for rec in state.records:
        print(
            f"m={rec.m:3d}  x={_fmt_gains(rec.point)}  y={rec.y:.6g}  "
            f"incumbent={rec.incumbent_cost:.6g}"
        )
    conv_path = res.out / "convergence.csv"
    _write_csv(conv_path, (
        "m", "x1", "x2", "x3", "y", "mu", "sigma", "beta", "incumbent_cost",
        "mu_minus_3sigma", "mu_plus_3sigma",
    ), (
        (rec.m, *rec.point, rec.y, rec.mu, rec.sigma, rec.beta,
         rec.incumbent_cost, rec.mu - 3.0 * rec.sigma, rec.mu + 3.0 * rec.sigma)
        for rec in state.records
    ))

    gains = res.preset.feasible.gains(state.incumbent_point)
    metrics = res.bench.metrics(gains)
    total = metric_cost(metrics, res.bench.weights)
    trace_path = res.out / "trace_tune.csv"
    _write_trace_csv(trace_path, res.bench.trace(gains))
    _write_record(res, {
        "bo": {
            "m0": bo.m0, "beta": bo.beta, "max_iterations": bo.max_iterations,
            "stop_reason": state.stop_reason, "evaluations": state.evaluations,
            "iterations": state.iterations,
        },
        "iteration_log": [dataclasses.asdict(rec) for rec in state.records],
        "gains": list(gains),
        "metrics": metrics.as_dict(),
        "cost": total,
        "traces": [trace_path.name, conv_path.name],
    })
    print(f"incumbent {_fmt_gains(state.incumbent_point)}  cost {total!r}  "
          f"stop={state.stop_reason}  evaluations={state.evaluations}")
    if metrics.is_diverged:
        raise RunFailure("tuning returned a diverging configuration")
    return 0


def cmd_grid(res: Resolved) -> int:
    fset = res.preset.feasible
    # the cost table is served from the on-disk cache when it is valid
    cache = res.out / f"grid_cache_{res.preset.name.replace('-', '_')}.npz"
    key = res.bench.fingerprint
    table = load_grid_table(cache, fset, key)
    if table is None:
        _, _, table = grid_search(fset, batch_oracle=res.bench.evaluate_many)
        save_grid_table(cache, fset, table, key)
    best_flat = int(np.argmin(table[:, 3]))
    best, best_cost = table[best_flat, :3], float(table[best_flat, 3])
    csv_path = res.out / "grid.csv"
    _write_csv(csv_path, ("kp", "kv", fset.third_axis, "cost"), table.tolist())
    _write_record(res, {
        "best_gains_native": [float(v) for v in best],
        "best_gains": list(fset.gains(best)),
        "best_cost": best_cost,
        "grid_shape": list(fset.shape),
        "traces": [csv_path.name],
    })
    print(f"grid best {_fmt_gains(best)}  cost {best_cost!r}  "
          f"({table.shape[0]} points)")
    return 0


def cmd_compare(res: Resolved) -> int:
    (bo,) = res.bo
    fset = res.preset.feasible
    bench = res.bench
    rows: list[dict] = []
    traces: list[str] = []
    # what each classical baseline measured on its way to its gains
    diagnostics: dict[str, dict] = {}

    def add_row(method: str, gains, cost_value: float,
                clamped: bool = False) -> None:
        kp, kv, ki = gains
        trace_path = res.out / f"trace_{method.replace('-', '_')}.csv"
        _write_trace_csv(trace_path, bench.trace(gains))
        traces.append(trace_path.name)
        rows.append({
            "method": method, "kp": kp, "kv": kv, "ki": ki,
            "cost": float(cost_value), "clamped": clamped,
        })

    # scored through the bench memo, which the ITAE baseline reads too
    best, best_cost, _ = grid_search(fset, batch_oracle=bench.evaluate_many)
    add_row("grid", fset.gains(best), best_cost)

    for tuner_fn in (ziegler_nichols, itae_tune, relay_tune):
        try:
            result = tuner_fn(bench, fset)
        except TuningError as e:
            raise RunFailure(f"{tuner_fn.__name__} failed: {e}") from e
        # TuningResult gains are already canonical (kp, kv, ki)
        add_row(result.method, result.gains, result.cost, result.clamped)
        diagnostics[result.method] = result.diagnostics

    state = _run_bo(res, bo)
    add_row("bo", fset.gains(state.incumbent_point), state.incumbent_cost)

    table_path = res.out / "comparison.csv"
    _write_csv(table_path, rows[0], (
        (r["method"], r["kp"], r["kv"], r["ki"], r["cost"], int(r["clamped"]))
        for r in rows
    ))

    _write_record(res, {
        "rows": rows,
        "diagnostics": diagnostics,
        "traces": traces + [table_path.name],
    })
    width = max(len(r["method"]) for r in rows)
    print(f"{'method':<{width}}  {'kp':>10}  {'kv':>8}  {'ki':>10}  {'cost':>14}")
    for r in rows:
        flag = " (clamped)" if r["clamped"] else ""
        print(f"{r['method']:<{width}}  {r['kp']:>10.4g}  {r['kv']:>8.4g}  "
              f"{r['ki']:>10.4g}  {r['cost']:>14.6g}{flag}")
    return 0


def cmd_sweep_m0(res: Resolved) -> int:
    summary = []
    for bo in res.bo:
        iters, costs = [], []
        for r in range(res.repeats):
            state = _run_bo(res, dataclasses.replace(bo, seed=bo.seed + r))
            iters.append(state.iterations)
            costs.append(state.incumbent_cost)
        q10, q50, q90 = np.quantile(np.asarray(costs), (0.1, 0.5, 0.9))
        summary.append({
            "m0": bo.m0,
            "repeats": res.repeats,
            "median_iterations": float(np.median(np.asarray(iters))),
            "cost_q10": float(q10),
            "cost_q50": float(q50),
            "cost_q90": float(q90),
        })

    csv_path = res.out / "sweep_m0.csv"
    _write_csv(csv_path, summary[0], (row.values() for row in summary))
    _write_record(res, {"summary": summary, "traces": [csv_path.name]})
    print("m0  median_iters  cost_q10       cost_q50       cost_q90")
    for row in summary:
        print(f"{row['m0']:<3d}  {row['median_iterations']:<12g}  "
              f"{row['cost_q10']:<13.6g}  {row['cost_q50']:<13.6g}  "
              f"{row['cost_q90']:<13.6g}")
    return 0


# -- argument parsing ---------------------------------------------------------


class _Command(NamedTuple):
    run: Callable[[Resolved], int]
    help: str
    keys: tuple[_Key, ...]


_COMMANDS = {
    "simulate": _Command(cmd_simulate, "one closed-loop run at fixed gains",
                         (_PRESET, _WEIGHTS, _GAINS)),
    "tune": _Command(cmd_tune, "Bayesian-optimization gain search",
                     (_PRESET, _WEIGHTS, _SEED, _M0, _BETA, _MAX_ITERS)),
    "compare": _Command(cmd_compare, "grid, classical baselines, and BO",
                        (_PRESET, _WEIGHTS, _SEED, _M0, _BETA, _MAX_ITERS)),
    "sweep-m0": _Command(cmd_sweep_m0, "BO repeatability vs initial design size",
                         (_PRESET, _WEIGHTS, _SEED, _M0_LIST, _BETA, _MAX_ITERS,
                          _REPEATS)),
    "grid": _Command(cmd_grid, "exhaustive grid search (cached)",
                     (_PRESET, _WEIGHTS)),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="axistune",
        description="Servo-axis gain tuning: simulate, tune, and compare.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for key in command.keys:
            p.add_argument(f"--{key.name.replace('_', '-')}", dest=key.name,
                           help=key.help)
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out", help="output directory (default: current)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.subcommand].run(_resolve(args.subcommand, args))
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RunFailure as e:
        print(f"failure: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
