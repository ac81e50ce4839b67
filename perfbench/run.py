"""Benchmark of the axistune tuning loop, run through its command line.

    python3 perfbench/run.py --workload desk-tune --seed 0 --seconds 10 --trace 0

Each measurement is a fresh worker process (``worker.py``) that imports
the package from ``src``, resolves the workload's preset and runs the
workload's CLI calls through ``axistune.cli.main``, repeating them until
``--seconds`` of calls have been timed.  BLAS is pinned to one thread.
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it runs the calls once with wrappers on every layer
boundary, checks that they wrote the same outputs as the untraced runs
of the same source tree, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything the
run leaves behind is under ``.perfbench_work`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
from layers import PER_LAYER_UNITS  # noqa: E402
from worker import WORKLOADS, environment, fail_frac  # noqa: E402

BLAS_THREADS = 1
SETUP_SAMPLES = 3
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "evaluations": "count",
    "best_cost": "cost",
}
# reported by name on every run that defines them, and checked for
# invariance, but not gated: they are zero or undefined on some workloads
QUALITY_UNITS = {
    "fail_frac": "ratio",
    "regret": "ratio",
    "rank": "count",
    "path_mismatch_frac": "ratio",
    "score_mismatch_frac": "ratio",
}
# values that must repeat exactly across runs of one source tree
INVARIANT = (
    "evaluations", "best_cost", "regret", "rank", "path_mismatch_frac",
    "score_mismatch_frac", "simloop.ticks", "simloop.rail_i_frac",
    "simloop.rail_v_frac", "simloop.diverged", "gpr.nlml.calls",
    "tuner.acq.points",
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, timeout=30)
    return res.stdout.strip() or None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(spec: dict, deadline: float) -> dict:
    """Run one worker process to completion and return its result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            env=child_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out: {spec['workload']}") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(Path(spec["result"]).read_text())
    for check in result.get("checks", []):
        check["name"] = f"{Path(spec['dir']).name}.{check['name']}"
    return result


class Ledger:
    """Earlier runs of the same inputs on the same source tree.

    One JSON line per run in ``.perfbench_work/ledger.jsonl``.  A run's
    deterministic values must equal those of every earlier run with the
    same key; values that depend on the workload seed are compared only
    between runs of the same seed.
    """

    SEEDED = ("path_mismatch_frac",)

    def __init__(self, path: Path, key: str):
        self.path = path
        self.key = key
        self.entries = []
        if path.exists():
            for line in path.read_text().splitlines():
                entry = json.loads(line)
                if entry["key"] == key:
                    self.entries.append(entry)

    def plain_runs(self) -> list[dict]:
        return [e for e in self.entries if not e["trace"]]

    def add(self, entry: dict) -> list[dict]:
        """Record a run; return a failed check per value that differs."""
        checks = []
        for other in self.entries:
            pairs = [("outputs", entry["outputs"], other["outputs"])]
            pairs += [(name, value, other["values"].get(name))
                      for name, value in entry["values"].items()
                      if name not in self.SEEDED or other["seed"] == entry["seed"]]
            checks += [{"name": f"invariance.{name}", "ok": False,
                        "detail": f"{mine!r} in {entry['run']}, {theirs!r} in {other['run']}"}
                       for name, mine, theirs in pairs
                       if theirs is not None and mine != theirs]
        self.entries.append(entry)
        with self.path.open("a") as f:
            f.write(json.dumps({"key": self.key, **entry}) + "\n")
        return checks


def ledger_entry(worker: dict, run: str, seed: int, trace: bool, extra=None) -> dict:
    values = {k: v for k, v in {**worker["quality"], **(extra or {})}.items()
              if k in INVARIANT}
    outputs = hashlib.sha256(json.dumps(worker["digests"], sort_keys=True).encode())
    return {"run": run, "seed": seed, "trace": trace, "outputs": outputs.hexdigest(),
            "pass_refs": worker["pass_refs"], "values": values}


def measure(args, run_dir: Path, cache: Path, ledger: Ledger, deadline: float):
    """Spawn the workers of one run; return (metrics, workers, checks)."""
    run_id = run_dir.name

    def spawn_worker(name: str, trace: bool = False, setup_only: bool = False,
                     seconds: float = 0.0) -> dict:
        return spawn({
            "workload": args.workload, "seed": args.seed, "seconds": seconds,
            "trace": trace, "setup_only": setup_only, "dir": str(run_dir / name),
            "result": str(run_dir / f"{name}.json"), "cache": str(cache),
            "spans": str(WORK / f"spans_{args.workload}.json"),
        }, deadline)

    if not args.trace:
        setups = [spawn_worker(f"setup{i}", setup_only=True)
                  for i in range(SETUP_SAMPLES - 1)]
        plain = spawn_worker("plain", seconds=args.seconds)
        setups.append(plain)
        checks = ledger.add(ledger_entry(plain, run_id, args.seed, False))
        q = plain["quality"]
        metrics = {
            "setup_s": statistics.median(w["setup_s"] for w in setups),
            "wall_s": statistics.median(plain["pass_refs"]),
            "peak_rss_mb": plain["peak_rss_mb"],
            **{k: q[k] for k in ("evaluations", "best_cost") if k in q},
            "setup_raw_s": statistics.median(w["setup_raw_s"] for w in setups),
            "wall_raw_s": statistics.median(plain["pass_walls"]),
        }
        return metrics, [plain], checks

    # One traced pass, compared with the untraced runs of this source
    # tree; one untraced pass is made first if there are none yet.
    workers, checks = [], []
    if not ledger.plain_runs():
        plain = spawn_worker("plain")
        workers.append(plain)
        checks += ledger.add(ledger_entry(plain, f"{run_id}-plain", args.seed, False))
    traced = spawn_worker("traced", trace=True)
    workers.append(traced)
    entry = ledger_entry(traced, run_id, args.seed, True, traced["layers"])
    refs = ledger.plain_runs()
    same = [r["outputs"] == entry["outputs"] for r in refs]
    checks.append({"name": "trace_equivalence", "ok": all(same),
                   "detail": f"outputs equal those of {sum(same)} of {len(refs)} "
                             f"untraced runs"})
    checks += ledger.add(entry)
    base = statistics.median(w for r in refs for w in r["pass_refs"])
    metrics = dict(traced["layers"])
    metrics["bench.path_rel_err_max"] = traced["quality"].get("path_rel_err_max", 0.0)
    metrics["trace.overhead_frac"] = (traced["pass_refs"][0] - base) / base
    return metrics, workers, checks


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="minimum measured time; the workload repeats until it is reached")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "axistune" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    src = source_digest()
    run_dir = WORK / "runs" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    versions = environment()
    key = hashlib.sha256(json.dumps(
        [src, versions, BLAS_THREADS, WORKLOADS[args.workload]]).encode()).hexdigest()
    ledger = Ledger(WORK / "ledger.jsonl", key)
    try:
        metrics, workers, checks = measure(args, run_dir, WORK / "cache" / src[:16],
                                           ledger, deadline)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        **versions,
        "git_commit": git_commit(),
        "source_sha256": src,
        "workload": args.workload,
        "workload_seed": args.seed,
        "trace": args.trace,
    }
    calls = [c for w in workers for c in w["calls"]]
    quality = {**workers[-1]["quality"], "fail_frac": fail_frac(calls)}
    checks = [c for w in workers for c in w["checks"]] + checks
    correct = all(c["rc"] == 0 for c in calls) and all(c["ok"] for c in checks)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    result = {
        "correct": correct,
        "attempted": len(calls),
        "failed": sum(c["rc"] != 0 for c in calls),
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items() if k in metrics},
    }
    (WORK / f"result_{args.workload}_t{args.trace}.json").write_text(json.dumps(
        {**result, "env": env, "quality": quality, "checks": checks,
         "calls": calls}, indent=1))

    print("env " + json.dumps(env))
    for c in calls:
        print(f"call {' '.join(c['argv'][:-2])}: rc={c['rc']} wall={c['wall_s']:.3f} s "
              f"cpu={c['cpu_s']:.3f} s calibration={c['cal_s']:.3f} s")
    for c in checks:
        print(f"check {c['name']}: {'ok' if c['ok'] else 'FAIL'} {c['detail']}".rstrip())
    named = {**END_TO_END_UNITS, **QUALITY_UNITS, "setup_raw_s": "s", "wall_raw_s": "s"}
    extra = {k: v for k, v in metrics.items() if k.endswith("_raw_s")}
    for name, value in {**quality, **extra}.items():
        if name not in result["metrics"]:
            unit = named.get(name)
            print(f"metric {name} = {value!r} {unit}" if unit else f"info {name} = {value!r}")
    for name, m in result["metrics"].items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
