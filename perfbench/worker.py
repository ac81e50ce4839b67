"""One benchmark process: import, set up, run a workload's CLI calls, check them.

Run as ``python3 perfbench/worker.py '<json spec>'`` with the package's
``src`` directory on PYTHONPATH; ``run.py`` starts it in a fresh process
for every measurement so each pays import and set-up the way a command-
line user does.  The result is written as JSON to ``spec["result"]``.

The module itself imports nothing from the package, so the import can
be timed and the pure helpers below can be tested on their own.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

# The search seeds are fixed: BO stops adaptively, so a run's work and
# its search quality depend on the seed (28 to 80 evaluations per desk
# seed).  The workload seed only draws the desk-grid path sample.
DESK_SEEDS = (0, 1, 2, 3, 4)
PATH_SAMPLE = 64

# The host's speed drifts by up to 2x over tens of seconds, so each
# timed span is scaled by a calibration loop run next to it.  CAL_REF_S
# is the loop's time in a quiet period on the reference VM; it only
# fixes the unit.
CAL_LOOPS = 150_000
CAL_REF_S = 0.25

WORKLOADS = {
    # batch tick loop and metric extraction; gpr and tuner do no work
    "desk-grid": ("desk", [["grid", "--preset", "desk"]]),
    # hyperparameter fitting and single-run simulation; search quality
    "desk-tune": ("desk", [["tune", "--preset", "desk", "--seed", str(s)]
                           for s in DESK_SEEDS]),
    # four acquisition sweeps over 2.52 M grid points set time and memory
    "fine-tune": ("fine", [["tune", "--preset", "fine", "--max-iters", "4",
                            "--seed", "0"]]),
    # 25,009-tick single runs with the rails pinned; the Tn axis
    "plc-tune": ("plc", [["tune", "--preset", "plc", "--max-iters", "10",
                          "--seed", "0"]]),
}


# -- pure helpers ----------------------------------------------------------------


def run_calls(main, calls, out_dirs, log_path, after=None) -> list[dict]:
    """Run each argv through ``main`` with its own --out; time every call.

    A call fails when it returns non-zero, exits non-zero or raises; the
    failure is recorded and the remaining calls still run.  ``after()``,
    when given, runs untimed after each call and its value is kept as
    the call's ``cal_s``.
    """
    results = []
    with open(log_path, "a") as log, redirect_stdout(log), redirect_stderr(log):
        for argv, out in zip(calls, out_dirs):
            argv = [*argv, "--out", str(out)]
            error = None
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                rc = main(argv)
            except SystemExit as e:
                rc = e.code if isinstance(e.code, int) else 1
            except Exception as e:  # a crash is a failed call, not a crashed run
                rc, error = None, f"{type(e).__name__}: {e}"
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            results.append({"argv": argv, "rc": rc, "error": error,
                            "wall_s": wall, "cpu_s": cpu})
            if after is not None:
                results[-1]["cal_s"] = after()
    return results


def calibrate(n: int = CAL_LOOPS) -> float:
    """Seconds for a fixed loop of small numpy operations, like a tick loop's."""
    import numpy as np

    x, a, s = np.zeros(7), np.eye(7) * 0.5, 0.0
    t0 = time.perf_counter()
    for _ in range(n):
        x = a @ x + 1.0
        s += float(x[0])
    return time.perf_counter() - t0


def to_reference(wall: float, cal_before: float, cal_after: float) -> float:
    """Scale a time to the host speed at which the calibration loop takes CAL_REF_S."""
    return wall * CAL_REF_S / ((cal_before + cal_after) / 2.0)


def fail_frac(results) -> float:
    """Share of CLI calls that did not exit 0."""
    return sum(r["rc"] != 0 for r in results) / len(results)


def rank_and_regret(costs, flat: int) -> tuple[int, float]:
    """Grid points strictly below the incumbent's table cost, and its regret.

    The incumbent is located by its grid point, not by the cost the
    search reported: the single-run cost can differ from the batch table
    cost in the last digits, which would rank the optimum below itself.
    """
    t_inc = float(costs[flat])
    t_min = float(min(costs))
    return sum(1 for c in costs if c < t_inc), (t_inc - t_min) / t_min


def output_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of each record (timestamp removed) and CSV in an output dir."""
    digests = {}
    for path in sorted(out_dir.iterdir()):
        if path.name.startswith("record_") and path.suffix == ".json":
            rec = json.loads(path.read_text())
            rec.pop("timestamp", None)
            data = json.dumps(rec, sort_keys=True).encode()
        elif path.suffix == ".csv":
            data = path.read_bytes()
        else:
            continue
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests


def read_csv_floats(path: Path) -> list[list[float]]:
    lines = path.read_text().splitlines()
    return [[float(v) for v in line.split(",")] for line in lines[1:]]


class Checks:
    """Named pass/fail output checks of one run."""

    def __init__(self):
        self.items: list[dict] = []

    def add(self, name: str, ok: bool, detail: str = "") -> bool:
        self.items.append({"name": name, "ok": bool(ok), "detail": detail})
        return bool(ok)


# -- checks that need the package ---------------------------------------------------


def on_grid_index(fset, gains) -> int | None:
    """Flat index of the grid point whose controller triple is ``gains``."""
    kp, kv, ki = gains
    third = ki if fset.third_axis == "ki" else kv / ki
    flat = fset.flat_index((kp, kv, third))
    point = fset.point_at(flat)
    if not fset.contains(point):
        return None
    if [float(v) for v in fset.canonical(point)[0]] != [kp, kv, ki]:
        return None
    return flat


def check_grid(preset, out: Path, sample_seed: int, checks: Checks) -> dict:
    """Table shape and order, record best, and the single-vs-batch sample."""
    import numpy as np

    fset = preset.feasible
    rows = np.array(read_csv_floats(out / "grid.csv"))
    rec = json.loads((out / "record_grid.json").read_text())
    if not checks.add("grid.table_shape", rows.shape == (fset.size, 4),
                      f"shape {rows.shape}"):
        return {}
    costs = rows[:, 3]
    checks.add("grid.table_finite", bool(np.all(np.isfinite(costs))))
    checks.add("grid.table_order", np.array_equal(rows[:, :3], fset.grid()))
    best = int(np.argmin(costs))
    checks.add("grid.record_best_is_argmin",
               rec["best_cost"] == costs[best]
               and rec["best_gains_native"] == [float(v) for v in rows[best, :3]],
               f"record {rec['best_cost']!r}, table {float(costs[best])!r}")
    checks.add("grid.best_cost_finite", math.isfinite(rec["best_cost"]))

    rng = np.random.default_rng(sample_seed)
    picks = rng.choice(fset.size, PATH_SAMPLE, replace=False)
    bench = preset.bench()
    # the same rows the batch path scored, through the single-run path
    single = np.array([bench.cost(rows[i, :3]) for i in picks])
    batch = costs[picks]
    rel = np.abs(single - batch) / np.abs(batch)
    return {
        "evaluations": float(fset.size),
        "best_cost": float(costs[best]),
        "path_mismatch_frac": float(np.mean(single != batch)),
        "path_mismatch_frac_1e-6": float(np.mean(rel > 1e-6)),
        "path_rel_err_max": float(np.max(rel)),
    }


def check_tune(preset, out: Path, tag: str, checks: Checks) -> dict:
    """Record invariants of one tune call; returns its quality fields."""
    fset = preset.feasible
    rec = json.loads((out / "record_tune.json").read_text())
    bo, log = rec["bo"], rec["iteration_log"]
    n_conv = len((out / "convergence.csv").read_text().splitlines()) - 1
    checks.add(f"{tag}.evaluations",
               bo["evaluations"] == bo["m0"] + bo["iterations"]
               <= bo["m0"] + bo["max_iterations"],
               f"{bo['evaluations']} = {bo['m0']} + {bo['iterations']}")
    checks.add(f"{tag}.convergence_rows",
               n_conv == bo["iterations"] == len(log),
               f"{n_conv} rows, {bo['iterations']} iterations")
    checks.add(f"{tag}.cost_finite", math.isfinite(rec["cost"]))
    flat = on_grid_index(fset, rec["gains"])
    checks.add(f"{tag}.incumbent_on_grid", flat is not None, repr(rec["gains"]))
    searched = log[-1]["incumbent_cost"] if log else None
    return {
        "evaluations": bo["evaluations"],
        "cost": rec["cost"],
        "score_mismatch": searched is not None and rec["cost"] != searched,
        "flat": flat,
    }


def desk_table(cli, cache_dir: Path, log_path: Path) -> list[float] | None:
    """The desk grid cost table, computed once per source tree and cached."""
    cache_dir.mkdir(parents=True, exist_ok=True)
    (res,) = run_calls(cli.main, [["grid", "--preset", "desk"]], [cache_dir], log_path)
    if res["rc"] != 0:
        return None
    return [row[3] for row in read_csv_floats(cache_dir / "grid.csv")]


def score(workload, preset, cli, outs, spec, checks) -> dict:
    """Check one pass's outputs; return the workload's quality values."""
    if workload == "desk-grid":
        return check_grid(preset, outs[0], spec["seed"], checks)
    tunes = [check_tune(preset, out, f"tune{i}", checks) for i, out in enumerate(outs)]
    q = {
        "evaluations": sum(t["evaluations"] for t in tunes) / len(tunes),
        "best_cost": sum(t["cost"] for t in tunes) / len(tunes),
        "score_mismatch_frac": sum(t["score_mismatch"] for t in tunes) / len(tunes),
        "evaluations_each": [t["evaluations"] for t in tunes],
    }
    if workload == "desk-tune" and all(t["flat"] is not None for t in tunes):
        table = desk_table(cli, Path(spec["cache"]) / "desk-grid",
                           outs[0].parent / "cli.log")
        if checks.add("desk_table", table is not None):
            rr = [rank_and_regret(table, t["flat"]) for t in tunes]
            q["rank"] = sum(r for r, _ in rr) / len(rr)
            q["regret"] = sum(g for _, g in rr) / len(rr)
            q["rank_each"] = [r for r, _ in rr]
    return q


def environment() -> dict:
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- the process -------------------------------------------------------------------


def main(spec: dict) -> dict:
    preset_name, calls = WORKLOADS[spec["workload"]]
    import axistune.cli as cli
    from axistune.presets import get_preset

    preset = get_preset(preset_name)
    preset.bench()
    preset.feasible.grid()
    setup_s = time.perf_counter() - T_START
    cal = calibrate()
    out = {"setup_raw_s": setup_s, "setup_s": to_reference(setup_s, cal, cal)}
    if spec.get("setup_only"):
        return out

    work = Path(spec["dir"])
    tracer = patches = None
    if spec["trace"]:
        from layers import install
        from spans import Tracer

        tracer = Tracer()
        patches = install(tracer)

    passes = []
    while True:
        pass_dir = work / f"pass{len(passes)}"
        outs = [pass_dir / f"call{i}" for i in range(len(calls))]
        for d in outs:
            d.mkdir(parents=True)
        # look main up at call time: the traced run wraps it
        results = run_calls(lambda argv: cli.main(argv), calls, outs,
                            pass_dir / "cli.log", after=calibrate)
        for r in results:
            r["ref_s"], cal = to_reference(r["wall_s"], cal, r["cal_s"]), r["cal_s"]
        passes.append({"dir": pass_dir, "results": results,
                       "wall_s": sum(r["wall_s"] for r in results),
                       "ref_s": sum(r["ref_s"] for r in results)})
        if sum(p["wall_s"] for p in passes) >= spec["seconds"]:
            break
    if patches is not None:
        patches.undo()
    out["peak_rss_mb"] = peak_rss_mb()

    checks = Checks()
    all_results = [r for p in passes for r in p["results"]]
    for i, r in enumerate(all_results):
        checks.add(f"call{i}.exit_0", r["rc"] == 0,
                   f"{' '.join(r['argv'][:-2])}: rc={r['rc']} {r['error'] or ''}")
    digests = [{f"call{i}/{k}": v for i in range(len(calls))
                for k, v in output_digests(p["dir"] / f"call{i}").items()}
               for p in passes]
    checks.add("passes_identical", all(d == digests[0] for d in digests[1:]),
               f"{len(passes)} passes")
    out.update({
        "pass_walls": [p["wall_s"] for p in passes],
        "pass_refs": [p["ref_s"] for p in passes],
        "calls": all_results,
        "digests": digests[0],
    })
    quality = {}
    if all(r["rc"] == 0 for r in passes[0]["results"]):
        outs = [passes[0]["dir"] / f"call{i}" for i in range(len(calls))]
        try:
            quality = score(spec["workload"], preset, cli, outs, spec, checks)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
            checks.add("outputs_readable", False, f"{type(e).__name__}: {e}")
    out["quality"] = quality
    out["checks"] = checks.items
    if tracer is not None:
        from layers import layer_metrics

        out["layers"] = layer_metrics(tracer)
        spans_path = Path(spec["spans"])
        spans_path.write_text(json.dumps(tracer.spans))
    return out


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    result = main(spec)
    Path(spec["result"]).write_text(json.dumps(result))
