"""End-to-end command-line checks, run in-process via main()."""

import dataclasses
import io
import os
import shutil
import struct
import subprocess
import sys
import zipfile
import zlib

import numpy as np
import pytest

import axistune
from axistune import simloop
from axistune.cli import main
from axistune.presets import get_preset
from axistune.tuner import FeasibleSet

from conftest import (COMPARE_DESK, GRID_DESK, SIMULATE_DESK, SWEEP_M0_DESK,
                      load_record)


def _run_script(script, out):
    """Run ``script`` in a fresh interpreter on this checkout's package,
    with ``out`` as its one argument; returns its stdout."""
    src = os.path.dirname(os.path.dirname(axistune.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script, str(out)],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True,
        text=True, check=True)
    return done.stdout


def test_importing_the_cli_loads_no_scipy_and_the_gp_no_scipy_stats(tmp_path):
    # only the GP needs scipy: importing the cli, a simulate call and a
    # grid search must run on numpy alone; the first hyperparameter fit
    # and posterior load scipy's LAPACK wrappers and optimizer, and never
    # scipy.stats
    script = """
import contextlib, io, sys
import numpy as np
import axistune.cli
from axistune.gpr import Dataset, GpHyperparams, fit, fit_hyperparams, predict
from axistune.presets import get_preset
from axistune.tuner import FeasibleSet, grid_search

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

print(scipy_modules())
with contextlib.redirect_stdout(io.StringIO()):
    rc = axistune.cli.main(["simulate", "--preset", "desk", "--gains",
                            "150,0.5,90", "--out", sys.argv[1]])
assert rc == 0
fset = FeasibleSet(kp=(150.0, 300.0), kv=(0.2, 0.5), third=(30.0, 90.0),
                   n_kp=2, n_kv=2, n_third=2)
_, cost, _ = grid_search(fset, get_preset("desk").bench().evaluate_many)
assert np.isfinite(cost)
print(scipy_modules())
data = Dataset(fset.grid(), np.arange(fset.size, dtype=float), fset.bounds())
h = fit_hyperparams(data, GpHyperparams(1.0, (0.3, 0.3, 0.3), 1e-3), seed=0)
mu, var = predict(fit(data, h), fset.grid())
assert np.isfinite(mu).all() and np.isfinite(var).all()
print("scipy.optimize" in sys.modules, "scipy.stats" in sys.modules)
"""
    assert _run_script(script, tmp_path) == "[]\n[]\nTrue False\n"


def test_compare_loads_no_scipy_stats(tmp_path):
    # the classical probes find their peaks in numpy, so compare loads
    # only the scipy modules its GP search needs
    script = """
import contextlib, io, sys
import axistune.cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = axistune.cli.main(["compare", "--preset", "desk", "--seed", "0",
                            "--max-iters", "2", "--out", sys.argv[1]])
assert rc == 0
print("scipy.optimize" in sys.modules, "scipy.stats" in sys.modules)
"""
    assert _run_script(script, tmp_path) == "True False\n"


# -- simulate ----------------------------------------------------------------


def test_simulate_writes_trace_and_record(cli_run):
    rc, stdout, out = cli_run(*SIMULATE_DESK)
    assert rc == 0
    assert "cost = " in stdout
    trace = (out / "trace_simulate.csv").read_text().splitlines()
    assert trace[0] == "t,r_pos,y_pos,r_speed,y_speed,i_q,i_ref,v_q,e_pos,e_speed"
    assert len(trace) > 1000
    rec = load_record(out / "record_simulate.json")
    assert rec["command"] == "simulate"
    assert rec["gains"] == [150.0, 0.5, 90.0]
    assert rec["diverged"] is False
    assert rec["cost"] > 0.0
    assert set(rec["metrics"]) >= {"pos_itae", "spd_itae", "pos_settling"}
    assert rec["traces"] == ["trace_simulate.csv"]
    assert len(rec["config_hash"]) == 64


def test_simulate_rejects_gains_outside_the_box(tmp_path, capsys):
    rc = main(["simulate", "--preset", "desk", "--gains", "1,1,1",
               "--out", str(tmp_path)])
    assert rc == 2
    assert "outside the feasible box" in capsys.readouterr().err


def test_simulate_requires_gains(tmp_path, capsys):
    rc = main(["simulate", "--preset", "desk", "--out", str(tmp_path)])
    assert rc == 2
    assert "--gains" in capsys.readouterr().err


def test_simulate_divergence_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(simloop, "DIVERGENCE_LIMIT", 1e-9)
    rc = main(["simulate", "--preset", "desk", "--gains", "150,0.5,90",
               "--out", str(tmp_path)])
    assert rc == 1
    assert "diverged" in capsys.readouterr().err
    # the record is still written so the failure can be inspected
    rec = load_record(tmp_path / "record_simulate.json")
    assert rec["diverged"] is True


# -- configuration plumbing ----------------------------------------------------


def test_config_file_merging_and_flag_priority(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# smoke config\nseed = 11\nm0=3\nmax_iters = 1\n")
    rc = main(["tune", "--preset", "desk", "--config", str(cfg),
               "--seed", "3", "--out", str(tmp_path)])
    assert rc == 0
    capsys.readouterr()
    rec = load_record(tmp_path / "record_tune.json")
    assert rec["seed"] == 3  # flag beats file
    assert rec["config"]["max_iters"] == "1"
    assert rec["bo"]["m0"] == 3


def test_config_error_paths(tmp_path, capsys):
    missing = main(["simulate", "--config", str(tmp_path / "nope.cfg"),
                    "--out", str(tmp_path)])
    assert missing == 2
    assert "config file not found" in capsys.readouterr().err

    bad_key = tmp_path / "bad_key.cfg"
    bad_key.write_text("frobnicate=1\n")
    assert main(["simulate", "--config", str(bad_key),
                 "--out", str(tmp_path)]) == 2
    assert "unknown key" in capsys.readouterr().err

    bad_line = tmp_path / "bad_line.cfg"
    bad_line.write_text("this is not a pair\n")
    assert main(["simulate", "--config", str(bad_line),
                 "--out", str(tmp_path)]) == 2
    assert "expected key=value" in capsys.readouterr().err

    bad_preset = tmp_path / "bad_preset.cfg"
    bad_preset.write_text("preset=bogus\n")
    assert main(["simulate", "--config", str(bad_preset),
                 "--out", str(tmp_path)]) == 2
    assert "unknown preset" in capsys.readouterr().err

    bad_seed = tmp_path / "bad_seed.cfg"
    bad_seed.write_text("seed=three\nm0=3\n")
    assert main(["tune", "--preset", "desk", "--config",
                 str(bad_seed), "--out", str(tmp_path)]) == 2
    assert "seed must be an integer" in capsys.readouterr().err

    # a key another command takes is still unknown to this one
    gains_key = tmp_path / "gains_key.cfg"
    gains_key.write_text("preset=desk\n\ngains=1,2,3\n")
    assert main(["grid", "--config", str(gains_key),
                 "--out", str(tmp_path / "grid")]) == 2
    err = capsys.readouterr().err
    assert "unknown key 'gains'" in err and f"{gains_key}:3:" in err
    assert not (tmp_path / "grid").exists()


def test_flags_and_config_files_record_the_same_config(tmp_path, capsys):
    # one text gives one record, whether it came by flag or by file
    keys = {"seed": "0", "m0": "3", "beta": "2", "max_iters": "1"}
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in keys.items()))
    flags = [a for k, v in keys.items()
             for a in (f"--{k.replace('_', '-')}", v)]
    assert main(["tune", "--preset", "desk", *flags,
                 "--out", str(tmp_path / "flags")]) == 0
    assert main(["tune", "--preset", "desk", "--config", str(cfg),
                 "--out", str(tmp_path / "file")]) == 0
    capsys.readouterr()
    by_flag = load_record(tmp_path / "flags" / "record_tune.json")
    by_file = load_record(tmp_path / "file" / "record_tune.json")
    assert by_flag["config"] == by_file["config"] == {"preset": "desk", **keys}
    assert by_flag["config_hash"] == by_file["config_hash"]

    assert main(["tune", "--preset", "desk", "--seed", "x",
                 "--out", str(tmp_path)]) == 2
    assert "seed must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["simulate", "--gains", "150,0.5,90"], ["grid"]], ids=["simulate", "grid"])
def test_commands_that_draw_no_random_numbers_take_no_seed(tmp_path, capsys,
                                                           command):
    with pytest.raises(SystemExit) as exit_:
        main([*command, "--seed", "1", "--out", str(tmp_path / "out")])
    assert exit_.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_every_key_is_checked_before_the_command_runs(tmp_path, monkeypatch,
                                                      capsys):
    monkeypatch.chdir(tmp_path)

    def no_search(*args, **kwargs):
        raise AssertionError("a search ran before every key was checked")

    monkeypatch.setattr("axistune.cli.run_bo", no_search)
    monkeypatch.setattr("axistune.cli.grid_search", no_search)
    assert main(["compare", "--preset", "desk", "--beta", "-1"]) == 2
    assert "beta" in capsys.readouterr().err
    # the second design size is below the minimum, the first within it
    assert main(["sweep-m0", "--preset", "desk", "--m0", "5,2",
                 "--out", "sweep"]) == 2
    assert "m0 must be at least 3" in capsys.readouterr().err
    # nor may a design size exceed the grid it is drawn from
    assert main(["tune", "--preset", "desk", "--m0", "2801",
                 "--out", "tune"]) == 2
    assert "m0 must be at most 2800" in capsys.readouterr().err
    assert main(["tune", "--preset", "desk", "--seed", "-1",
                 "--out", "tune"]) == 2
    assert "seed must be non-negative" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_out_that_cannot_be_a_directory_is_a_usage_error(tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("")
    assert main(["simulate", "--preset", "desk", "--gains", "150,0.5,90",
                 "--out", str(afile)]) == 2
    assert str(afile) in capsys.readouterr().err
    assert afile.read_text() == ""


def test_malformed_gains_and_bo_overrides(tmp_path, capsys):
    assert main(["simulate", "--preset", "desk", "--gains", "1,2",
                 "--out", str(tmp_path)]) == 2
    assert "three comma-separated" in capsys.readouterr().err
    # the initial design must support a hyperparameter fit
    assert main(["tune", "--preset", "desk", "--m0", "2",
                 "--out", str(tmp_path)]) == 2
    assert "m0" in capsys.readouterr().err
    # a non-finite confidence multiplier is refused, not searched with
    for beta in ("nan", "inf"):
        assert main(["tune", "--preset", "desk", "--beta", beta,
                     "--out", str(tmp_path)]) == 2
        assert "beta" in capsys.readouterr().err
    assert not (tmp_path / "record_tune.json").exists()


# -- tune ------------------------------------------------------------------------


def test_tune_is_reproducible_bitwise(tmp_path, capsys):
    args = ["tune", "--preset", "desk", "--seed", "7", "--m0", "5",
            "--max-iters", "3"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    conv_a = (a / "convergence.csv").read_bytes()
    assert conv_a == (b / "convergence.csv").read_bytes()
    assert conv_a.splitlines()[0].decode() == (
        "m,x1,x2,x3,y,mu,sigma,beta,incumbent_cost,"
        "mu_minus_3sigma,mu_plus_3sigma"
    )
    ra = load_record(a / "record_tune.json")
    rb = load_record(b / "record_tune.json")
    assert ra == rb
    assert ra["seed"] == 7
    assert ra["bo"]["m0"] == 5
    assert ra["bo"]["evaluations"] <= 5 + 3
    assert len(ra["iteration_log"]) == ra["bo"]["iterations"]
    kp, kv, ki = ra["gains"]
    fset = get_preset("desk").feasible
    assert fset.contains((kp, kv, ki))
    assert (a / "trace_tune.csv").is_file()


# -- grid and compare ---------------------------------------------------------------


def test_grid_command_and_cache(cli_run, tmp_path, capsys):
    rc, stdout, out = cli_run(*GRID_DESK)
    assert rc == 0
    assert "grid best" in stdout
    assert (out / "grid_cache_desk.npz").is_file()
    rec1 = load_record(out / "record_grid.json")
    lines = (out / "grid.csv").read_text().splitlines()
    assert lines[0] == "kp,kv,ki,cost"
    assert len(lines) == 1 + 2800
    assert rec1["grid_shape"] == [28, 10, 10]
    costs = [float(ln.rsplit(",", 1)[1]) for ln in lines[1:]]
    assert rec1["best_cost"] == min(costs)

    # a second run into a copy of the first's directory is served from
    # the cache and reproduces the record
    again = tmp_path / "again"
    shutil.copytree(out, again)
    assert main([*GRID_DESK, "--out", str(again)]) == 0
    capsys.readouterr()
    rec2 = load_record(again / "record_grid.json")
    assert rec1 == rec2


def test_compare_lists_all_methods(cli_run):
    rc, stdout, out = cli_run(*COMPARE_DESK)
    assert rc == 0
    lines = (out / "comparison.csv").read_text().splitlines()
    assert lines[0] == "method,kp,kv,ki,cost,clamped"
    methods = [ln.split(",", 1)[0] for ln in lines[1:]]
    assert methods == ["grid", "ziegler-nichols", "itae", "relay", "bo"]
    rec = load_record(out / "record_compare.json")
    rows = {r["method"]: r for r in rec["rows"]}
    # the oscillation-boundary methods land outside the box and get clamped
    assert rows["ziegler-nichols"]["clamped"]
    assert rows["relay"]["clamped"]
    assert not rows["grid"]["clamped"]
    # exhaustive search bounds every method scored on the same bench
    grid_cost = rows["grid"]["cost"]
    for method in ("ziegler-nichols", "itae", "relay"):
        assert grid_cost <= rows[method]["cost"] * 1.001
        assert method in stdout
    for method in methods:
        assert (out / f"trace_{method.replace('-', '_')}.csv").is_file()


# -- sweep-m0 ------------------------------------------------------------------------


def test_sweep_m0_summary(cli_run, tmp_path):
    rc, _, out = cli_run(*SWEEP_M0_DESK)
    assert rc == 0
    lines = (out / "sweep_m0.csv").read_text().splitlines()
    assert lines[0] == ("m0,repeats,median_iterations,"
                        "cost_q10,cost_q50,cost_q90")
    assert len(lines) == 3
    rec = load_record(out / "record_sweep_m0.json")
    assert [row["m0"] for row in rec["summary"]] == [3, 4]
    for row in rec["summary"]:
        assert row["repeats"] == 1
        # a single repeat collapses the quantiles
        assert row["cost_q10"] == row["cost_q50"] == row["cost_q90"]

    bad = main(["sweep-m0", "--preset", "desk", "--m0", "3;4",
                "--out", str(tmp_path)])
    assert bad == 2


# -- search-space mapping and the grid cache ------------------------------------------


def _desk_with(monkeypatch, **changes):
    """The desk preset with some fields replaced, served for every name."""
    pre = dataclasses.replace(get_preset("desk"), **changes)
    monkeypatch.setattr("axistune.cli.get_preset", lambda name: pre)
    return pre


def test_reset_time_points_are_scored_as_their_gains(tmp_path, monkeypatch,
                                                      capsys):
    # a reset-time axis over the desk bench: ki = kv/tn spans 60 to 500
    tn_set = FeasibleSet(kp=(150.0, 450.0), kv=(0.3, 0.5), third=(1e-3, 5e-3),
                         n_kp=3, n_kv=3, n_third=3, third_axis="tn")
    pre = _desk_with(monkeypatch, feasible=tn_set)
    bench = pre.bench()

    tune, grid = tmp_path / "tune", tmp_path / "grid"
    assert main(["tune", "--seed", "0", "--m0", "5", "--max-iters", "3",
                 "--out", str(tune)]) == 0
    assert main(["grid", "--out", str(grid)]) == 0
    capsys.readouterr()

    rec = load_record(tune / "record_tune.json")
    assert rec["iteration_log"]
    for it in rec["iteration_log"]:
        kp, kv, tn = it["point"]
        assert it["y"] == bench.cost((kp, kv, kv / tn))
    assert rec["cost"] == rec["iteration_log"][-1]["incumbent_cost"]

    lines = (grid / "grid.csv").read_text().splitlines()
    assert lines[0] == "kp,kv,tn,cost"
    table = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    # the bench above memoized single-run costs; a triple has one cost,
    # whichever path scored it
    expected = bench.evaluate_many(tn_set.canonical(table[:, :3]))
    assert np.array_equal(table[:, 3], expected)


def test_grid_cache_is_keyed_on_the_bench(tmp_path, monkeypatch, capsys):
    small = FeasibleSet(kp=(150.0, 450.0), kv=(0.3, 0.5), third=(90.0, 270.0),
                        n_kp=3, n_kv=3, n_third=3)
    _desk_with(monkeypatch, feasible=small)
    shared, cold = tmp_path / "shared", tmp_path / "cold"
    assert main(["grid", "--out", str(shared)]) == 0
    sim = load_record(shared / "record_grid.json")
    # other weights into the same directory must not replay the cached table
    assert main(["grid", "--weights", "exp-tracking", "--out", str(shared)]) == 0
    assert main(["grid", "--weights", "exp-tracking", "--out", str(cold)]) == 0
    capsys.readouterr()
    warm = load_record(shared / "record_grid.json")
    fresh = load_record(cold / "record_grid.json")
    assert warm["best_cost"] == fresh["best_cost"] != sim["best_cost"]
    assert (shared / "grid.csv").read_bytes() == (cold / "grid.csv").read_bytes()

    # nor may a wider settling band, which moves the costs of the same bench
    monkeypatch.setattr("axistune.metrics.SETTLE_BAND", 0.05)
    cold = tmp_path / "cold-band"
    for out in (shared, cold):
        assert main(["grid", "--weights", "exp-tracking", "--out", str(out)]) == 0
    capsys.readouterr()
    banded = load_record(cold / "record_grid.json")
    assert load_record(shared / "record_grid.json") == banded
    assert banded["best_cost"] != fresh["best_cost"]
    assert (shared / "grid.csv").read_bytes() == (cold / "grid.csv").read_bytes()


def test_truncated_grid_cache_is_recomputed(tmp_path, monkeypatch, capsys):
    small = FeasibleSet(kp=(150.0, 450.0), kv=(0.3, 0.5), third=(90.0, 270.0),
                        n_kp=3, n_kv=3, n_third=3)
    _desk_with(monkeypatch, feasible=small)
    cold, cut = tmp_path / "cold", tmp_path / "cut"
    assert main(["grid", "--out", str(cold)]) == 0
    whole = (cold / "grid_cache_desk.npz").read_bytes()
    expected = (cold / "grid.csv").read_bytes()
    cache = cut / "grid_cache_desk.npz"
    for size in (0, 10, len(whole) // 2, len(whole) - 10):
        # a save cut short, e.g. by an interrupted run, is a cache miss
        cut.mkdir(exist_ok=True)
        cache.write_bytes(whole[:size])
        assert main(["grid", "--out", str(cut)]) == 0
        assert (cut / "grid.csv").read_bytes() == expected
        with np.load(cache) as data:
            assert data["table"].shape == (small.size, 4)
    # a flipped byte inside the compressed table fails in zlib before the
    # zip CRC check can reject it; that too is a cache miss.  Which bytes
    # do depends on the table and on where its data starts, after the
    # compressed key, whose fingerprint covers the source code; so the
    # flip is the first byte of the table's data that zlib rejects
    with zipfile.ZipFile(io.BytesIO(whole)) as z:
        info = z.getinfo("table.npy")
    name_len, extra_len = struct.unpack_from("<HH", whole, info.header_offset + 26)
    start = info.header_offset + 30 + name_len + extra_len

    def flip(at):
        flipped = bytearray(whole)
        flipped[at] ^= 0xFF
        return flipped

    def fails_in_zlib(data):
        try:
            with np.load(io.BytesIO(data)) as npz:
                npz["table"]
        except zlib.error:
            return True
        except (zipfile.BadZipFile, ValueError):  # a CRC or header error
            pass
        return False

    flipped = next(flip(at) for at in range(start, start + info.compress_size)
                   if fails_in_zlib(flip(at)))
    cache.write_bytes(flipped)
    assert main(["grid", "--out", str(cut)]) == 0
    assert (cut / "grid.csv").read_bytes() == expected
    capsys.readouterr()
    # the save leaves no temporary file behind
    assert sorted(p.name for p in cut.iterdir()) == sorted(
        p.name for p in cold.iterdir())
