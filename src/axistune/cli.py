"""Command-line entry point.

Subcommands
-----------
``simulate``   one closed-loop run at fixed gains; trace CSV + metric report
``tune``       Bayesian-optimization gain search; convergence CSV + record
``compare``    grid search, classical baselines, and BO side by side
``sweep-m0``   repeated seeded BO runs over a list of initial-design sizes
``grid``       exhaustive grid search with an on-disk cost-table cache

Every command resolves its configuration from (in increasing priority)
preset defaults, an optional flat ``key=value`` config file, and
command-line flags, then writes a JSON run record whose ``config_hash``
covers the resolved experiment configuration.  Re-running a command
with the same configuration and seed reproduces its record and CSVs
bitwise, timestamps excluded.

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

import numpy as np

from .baselines import TuningError, itae_tune, relay_tune, ziegler_nichols
from .bench import SetOracle, TuningBench
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


# -- configuration plumbing ------------------------------------------------

# recognized flat config keys, i.e. the experiment-defining knobs
_CONFIG_KEYS = ("preset", "weights", "gains", "seed", "m0", "beta",
                "max_iters", "repeats")


def _parse_config_file(path: str) -> dict[str, str]:
    """Read a flat key=value config file ('#' starts a comment)."""
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"config file not found: {path}")
    out: dict[str, str] = {}
    for lineno, raw in enumerate(p.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise UsageError(
                f"{path}:{lineno}: unknown key {key!r}; "
                f"known keys: {', '.join(_CONFIG_KEYS)}"
            )
        out[key] = value
    return out


def _resolve_config(args: argparse.Namespace) -> dict[str, str]:
    """Merge preset defaults, config file, and flags into flat strings."""
    cfg: dict[str, str] = {}
    if getattr(args, "config", None):
        cfg.update(_parse_config_file(args.config))
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = str(flag)
    cfg.setdefault("preset", DEFAULT_PRESET)
    return cfg


def _number(cfg: dict[str, str], key: str, kind: type):
    """``cfg[key]`` as ``kind``, ``int`` or ``float``; None if unset."""
    if key not in cfg:
        return None
    try:
        return kind(cfg[key])
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise UsageError(f"{key} must be {what}, got {cfg[key]!r}") from None


def _parse_gains(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(f"gains must be three comma-separated numbers, got {text!r}")
    try:
        kp, kv, third = (float(s) for s in parts)
    except ValueError:
        raise UsageError(f"gains must be numeric, got {text!r}") from None
    return kp, kv, third


@dataclasses.dataclass
class Resolved:
    """Fully resolved experiment configuration for one command."""

    command: str
    config: dict[str, str]
    preset: Preset
    bench: TuningBench
    oracle: SetOracle   # the bench in the preset's feasible-set coordinates
    seed: int
    out: Path

    @property
    def config_hash(self) -> str:
        canon = "\n".join(f"{k}={self.config[k]}" for k in sorted(self.config))
        return hashlib.sha256(canon.encode()).hexdigest()


def _resolve(command: str, args: argparse.Namespace) -> Resolved:
    cfg = _resolve_config(args)
    try:
        preset = get_preset(cfg["preset"])
        weights = get_weights(cfg["weights"]) if "weights" in cfg else None
    except KeyError as e:
        raise UsageError(str(e).strip('"')) from None
    seed = _number(cfg, "seed", int)
    seed = BoConfig().seed if seed is None else seed
    out = Path(getattr(args, "out", None) or ".")
    out.mkdir(parents=True, exist_ok=True)
    bench = preset.bench(weights)
    return Resolved(
        command=command,
        config=cfg,
        preset=preset,
        bench=bench,
        oracle=bench.oracle(preset.feasible),
        seed=seed,
        out=out,
    )


def _bo_config(res: Resolved, skip_m0: bool = False):
    """Default BO config with any m0/beta/max_iters/seed overrides."""
    cfg = res.config
    changes: dict[str, object] = {"seed": res.seed}
    if not skip_m0:
        m0 = _number(cfg, "m0", int)
        if m0 is not None:
            changes["m0"] = m0
    beta = _number(cfg, "beta", float)
    if beta is not None:
        changes["beta"] = beta
    iters = _number(cfg, "max_iters", int)
    if iters is not None:
        changes["max_iterations"] = iters
    try:
        return BoConfig(**changes)
    except ValueError as e:
        raise UsageError(str(e)) from None


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
        "seed": res.seed,
        **payload,
    }
    path = res.out / f"record_{res.command.replace('-', '_')}.json"
    path.write_text(json.dumps(record, sort_keys=True, indent=2) + "\n")
    return path


def _run_bo(res: Resolved, bo: BoConfig):
    """`run_bo` on the command's oracle; an oracle failure exits 1."""
    try:
        return run_bo(res.oracle, res.preset.feasible, bo)
    except OracleAbort as e:
        raise RunFailure(f"oracle failed during tuning: {e}") from e


def _fmt_gains(point) -> str:
    kp, kv, third = (float(v) for v in np.asarray(point).reshape(3))
    return f"({kp:g}, {kv:g}, {third:g})"


# -- subcommands -------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    res = _resolve("simulate", args)
    if "gains" not in res.config:
        raise UsageError("simulate requires --gains KP,KV,KI (native axes)")
    native = _parse_gains(res.config["gains"])
    fset = res.preset.feasible
    if not fset.contains(native):
        raise UsageError(
            f"gains {native} outside the feasible box "
            f"kp={fset.kp}, kv={fset.kv}, {fset.third_axis}={fset.third}"
        )
    gains = res.oracle.gains(native)
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


def cmd_tune(args: argparse.Namespace) -> int:
    res = _resolve("tune", args)
    bo = _bo_config(res)
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
        (rec.m, *np.asarray(rec.point, dtype=float).reshape(3).tolist(), rec.y,
         rec.mu, rec.sigma, rec.beta, rec.incumbent_cost,
         rec.mu - 3.0 * rec.sigma, rec.mu + 3.0 * rec.sigma)
        for rec in state.records
    ))

    gains = res.oracle.gains(state.incumbent_point)
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
        "iteration_log": [
            {
                "m": rec.m,
                "point": [float(v) for v in np.asarray(rec.point).reshape(3)],
                "y": rec.y, "mu": rec.mu, "sigma": rec.sigma,
                "beta": rec.beta, "incumbent_cost": rec.incumbent_cost,
            }
            for rec in state.records
        ],
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


def cmd_grid(args: argparse.Namespace) -> int:
    res = _resolve("grid", args)
    fset = res.preset.feasible
    # the cost table is served from the on-disk cache when it is valid
    cache = res.out / f"grid_cache_{res.preset.name.replace('-', '_')}.npz"
    key = res.bench.fingerprint
    table = load_grid_table(cache, fset, key)
    if table is None:
        _, _, table = grid_search(fset, batch_oracle=res.oracle.evaluate_many)
        save_grid_table(cache, fset, table, key)
    best_flat = int(np.argmin(table[:, 3]))
    best, best_cost = table[best_flat, :3], float(table[best_flat, 3])
    csv_path = res.out / "grid.csv"
    _write_csv(csv_path, ("kp", "kv", fset.third_axis, "cost"), table.tolist())
    _write_record(res, {
        "best_gains_native": [float(v) for v in best],
        "best_gains": list(res.oracle.gains(best)),
        "best_cost": best_cost,
        "grid_shape": list(fset.shape),
        "traces": [csv_path.name],
    })
    print(f"grid best {_fmt_gains(best)}  cost {best_cost!r}  "
          f"({table.shape[0]} points)")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    res = _resolve("compare", args)
    fset = res.preset.feasible
    bench = res.bench
    rows: list[dict] = []
    traces: list[str] = []

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
    best, best_cost, _ = grid_search(fset, batch_oracle=res.oracle.evaluate_many)
    add_row("grid", res.oracle.gains(best), best_cost)

    for tuner_fn in (ziegler_nichols, itae_tune, relay_tune):
        try:
            result = tuner_fn(bench, fset)
        except TuningError as e:
            raise RunFailure(f"{tuner_fn.__name__} failed: {e}") from e
        # TuningResult gains are already canonical (kp, kv, ki)
        add_row(result.method, result.gains, result.cost, result.clamped)

    state = _run_bo(res, _bo_config(res))
    add_row("bo", res.oracle.gains(state.incumbent_point), state.incumbent_cost)

    table_path = res.out / "comparison.csv"
    _write_csv(table_path, rows[0], (
        (r["method"], r["kp"], r["kv"], r["ki"], r["cost"], int(r["clamped"]))
        for r in rows
    ))

    _write_record(res, {
        "rows": rows,
        "traces": traces + [table_path.name],
    })
    width = max(len(r["method"]) for r in rows)
    print(f"{'method':<{width}}  {'kp':>10}  {'kv':>8}  {'ki':>10}  {'cost':>14}")
    for r in rows:
        flag = " (clamped)" if r["clamped"] else ""
        print(f"{r['method']:<{width}}  {r['kp']:>10.4g}  {r['kv']:>8.4g}  "
              f"{r['ki']:>10.4g}  {r['cost']:>14.6g}{flag}")
    return 0


def cmd_sweep_m0(args: argparse.Namespace) -> int:
    res = _resolve("sweep-m0", args)
    cfg = res.config
    m0_text = cfg.get("m0", "5,20,50")
    try:
        m0_list = [int(s) for s in m0_text.split(",") if s.strip()]
    except ValueError:
        raise UsageError(f"m0 must be a comma-separated integer list, "
                         f"got {m0_text!r}") from None
    if not m0_list:
        raise UsageError("m0 list is empty")
    repeats = _number(cfg, "repeats", int)
    repeats = 10 if repeats is None else repeats
    if repeats < 1:
        raise UsageError("repeats must be >= 1")

    base = _bo_config(res, skip_m0=True)
    summary = []
    for i, m0 in enumerate(m0_list):
        iters, costs = [], []
        for r in range(repeats):
            # disjoint seeds across every (m0, repeat) pair
            seed = res.seed + i * repeats + r
            state = _run_bo(res, dataclasses.replace(base, m0=m0, seed=seed))
            iters.append(state.iterations)
            costs.append(state.incumbent_cost)
        q10, q50, q90 = np.quantile(np.asarray(costs), (0.1, 0.5, 0.9))
        summary.append({
            "m0": m0,
            "repeats": repeats,
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


def _add_common(p: argparse.ArgumentParser, with_bo: bool = False) -> None:
    p.add_argument("--preset", choices=sorted(PRESETS),
                   help=f"configuration bundle (default: {DEFAULT_PRESET})")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--weights", help="cost-weight preset override")
    p.add_argument("--seed", help="random seed")
    p.add_argument("--out", help="output directory (default: current)")
    if with_bo:
        p.add_argument("--m0", help="initial design size")
        p.add_argument("--beta", help="LCB confidence multiplier")
        p.add_argument("--max-iters", dest="max_iters",
                       help="optimization iteration budget")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="axistune",
        description="Servo-axis gain tuning: simulate, tune, and compare.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("simulate", help="one closed-loop run at fixed gains")
    _add_common(p)
    p.add_argument("--gains", help="KP,KV,KI (native axes of the preset)")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("tune", help="Bayesian-optimization gain search")
    _add_common(p, with_bo=True)
    p.set_defaults(fn=cmd_tune)

    p = sub.add_parser("compare", help="grid, classical baselines, and BO")
    _add_common(p, with_bo=True)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("sweep-m0", help="BO repeatability vs initial design size")
    _add_common(p, with_bo=True)
    p.add_argument("--repeats", help="seeded runs per m0 (default 10)")
    p.set_defaults(fn=cmd_sweep_m0)

    p = sub.add_parser("grid", help="exhaustive grid search (cached)")
    _add_common(p)
    p.set_defaults(fn=cmd_grid)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RunFailure as e:
        print(f"failure: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
