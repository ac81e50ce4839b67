"""End-to-end command-line checks, run in-process via main()."""

import dataclasses
import hashlib
import io
import json
import zlib

import numpy as np
import pytest

from axistune import simloop
from axistune.cli import main
from axistune.presets import get_preset
from axistune.tuner import FeasibleSet


def _load_record(path):
    rec = json.loads(path.read_text())
    assert rec.pop("timestamp")
    return rec


# -- simulate ----------------------------------------------------------------


def test_simulate_writes_trace_and_record(tmp_path, capsys):
    rc = main(["simulate", "--preset", "desk", "--gains", "150,0.5,90",
               "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "cost = " in out
    trace = (tmp_path / "trace_simulate.csv").read_text().splitlines()
    assert trace[0] == "t,r_pos,y_pos,r_speed,y_speed,i_q,i_ref,v_q,e_pos,e_speed"
    assert len(trace) > 1000
    rec = _load_record(tmp_path / "record_simulate.json")
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
    rec = _load_record(tmp_path / "record_simulate.json")
    assert rec["diverged"] is True


# the trace, metrics and cost of one run per preset, bitwise: a change
# that is meant to leave every output as it is must leave these
SIMULATE_PINS = {
    ("desk", "150,0.5,90"): (
        "3faab74c3e0b147edbc409f6e989b702aed11bd49b6f222241a9d1cd5573d90f",
        {"pos_inf": 7.745881246606912e-05, "pos_itae": 1.3636935850280566e-06,
         "pos_overshoot": 2.0539966866281456e-05, "pos_settling": 0.0,
         "pos_ss": 1.2060782927925117e-13, "pos_undershoot": 3.0146122093177574e-05,
         "pos_zero": 0.0, "spd_inf": 0.017085223229421992,
         "spd_itae": 0.0004353211767909535, "spd_overshoot": 0.011108148443800647,
         "spd_settling": 0.098, "spd_ss": 6.072798842694992e-06,
         "spd_undershoot": 0.014101786767055341},
        61.99755248866082,
    ),
    ("plc", "1000,100,10000"): (
        "7f9421f41a2118c522271688eb7d16b31e4b8fe2d88cde7583c75c6889b67837",
        {"pos_inf": 0.004568522268926234, "pos_itae": 0.3861546418038293,
         "pos_overshoot": 0.004568522268926234, "pos_settling": 0.0,
         "pos_ss": 0.0013932739200721018, "pos_undershoot": 0.003491380668290578,
         "pos_zero": 0.0019295690772794735, "spd_inf": 0.3797660276086224,
         "spd_itae": 40.940424483686634, "spd_overshoot": 0.2674174427749417,
         "spd_settling": 2.499, "spd_ss": 0.1245605017605208,
         "spd_undershoot": 0.2726738325840223},
        10236680.955415104,
    ),
}


def test_simulate_outputs_are_pinned(tmp_path, capsys):
    for (preset, gains), (trace_sha, metrics, cost) in SIMULATE_PINS.items():
        out = tmp_path / preset
        assert main(["simulate", "--preset", preset, "--gains", gains,
                     "--out", str(out)]) == 0
        capsys.readouterr()
        trace = (out / "trace_simulate.csv").read_bytes()
        assert hashlib.sha256(trace).hexdigest() == trace_sha, preset
        rec = _load_record(out / "record_simulate.json")
        assert rec["metrics"] == metrics, preset
        assert rec["cost"] == cost, preset


# -- configuration plumbing ----------------------------------------------------


def test_config_file_merging_and_flag_priority(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# smoke config\nseed = 11\ngains=150,0.5,90\n")
    rc = main(["simulate", "--preset", "desk", "--config", str(cfg),
               "--seed", "3", "--out", str(tmp_path)])
    assert rc == 0
    rec = _load_record(tmp_path / "record_simulate.json")
    assert rec["seed"] == 3  # flag beats file
    assert rec["config"]["gains"] == "150,0.5,90"


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
    bad_seed.write_text("seed=three\ngains=150,0.5,90\n")
    assert main(["simulate", "--preset", "desk", "--config",
                 str(bad_seed), "--out", str(tmp_path)]) == 2
    assert "seed must be an integer" in capsys.readouterr().err


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
    by_flag = _load_record(tmp_path / "flags" / "record_tune.json")
    by_file = _load_record(tmp_path / "file" / "record_tune.json")
    assert by_flag["config"] == by_file["config"] == {"preset": "desk", **keys}
    assert by_flag["config_hash"] == by_file["config_hash"]

    assert main(["simulate", "--preset", "desk", "--gains", "150,0.5,90",
                 "--seed", "x", "--out", str(tmp_path)]) == 2
    assert "seed must be an integer" in capsys.readouterr().err


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
    ra = _load_record(a / "record_tune.json")
    rb = _load_record(b / "record_tune.json")
    assert ra == rb
    assert ra["seed"] == 7
    assert ra["bo"]["m0"] == 5
    assert ra["bo"]["evaluations"] <= 5 + 3
    assert len(ra["iteration_log"]) == ra["bo"]["iterations"]
    kp, kv, ki = ra["gains"]
    fset = get_preset("desk").feasible
    assert fset.contains((kp, kv, ki))
    assert (a / "trace_tune.csv").is_file()


def test_desk_tune_seed_0_is_pinned(tmp_path, capsys):
    # the whole search path of one default run, bitwise: any change to
    # the GP arithmetic, the design or the stopping rule moves it
    assert main(["tune", "--preset", "desk", "--seed", "0",
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    rec = _load_record(tmp_path / "record_tune.json")
    assert rec["bo"]["evaluations"] == 28
    assert rec["bo"]["stop_reason"] == "repeat"
    assert rec["gains"] == [300.0, 0.5, 90.0]
    assert rec["cost"] == 562.6692477212425
    last = rec["iteration_log"][-1]
    assert last["mu"] == 562.6692432324635
    assert last["sigma"] == 0.007164213829885256


# -- grid and compare ---------------------------------------------------------------


def test_grid_command_and_cache(tmp_path, capsys):
    assert main(["grid", "--preset", "desk", "--out", str(tmp_path)]) == 0
    first = capsys.readouterr().out
    assert "grid best" in first
    assert (tmp_path / "grid_cache_desk.npz").is_file()
    rec1 = _load_record(tmp_path / "record_grid.json")
    lines = (tmp_path / "grid.csv").read_text().splitlines()
    assert lines[0] == "kp,kv,ki,cost"
    assert len(lines) == 1 + 2800
    assert rec1["grid_shape"] == [28, 10, 10]
    costs = [float(ln.rsplit(",", 1)[1]) for ln in lines[1:]]
    assert rec1["best_cost"] == min(costs)

    # the second run is served from the cache and reproduces the record
    assert main(["grid", "--preset", "desk", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    rec2 = _load_record(tmp_path / "record_grid.json")
    assert rec1 == rec2


def test_compare_lists_all_methods(tmp_path, capsys):
    rc = main(["compare", "--preset", "desk", "--seed", "0", "--m0", "5",
               "--max-iters", "2", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    lines = (tmp_path / "comparison.csv").read_text().splitlines()
    assert lines[0] == "method,kp,kv,ki,cost,clamped"
    methods = [ln.split(",", 1)[0] for ln in lines[1:]]
    assert methods == ["grid", "ziegler-nichols", "itae", "relay", "bo"]
    rec = _load_record(tmp_path / "record_compare.json")
    rows = {r["method"]: r for r in rec["rows"]}
    # the oscillation-boundary methods land outside the box and get clamped
    assert rows["ziegler-nichols"]["clamped"]
    assert rows["relay"]["clamped"]
    assert not rows["grid"]["clamped"]
    # exhaustive search bounds every method scored on the same bench
    grid_cost = rows["grid"]["cost"]
    for method in ("ziegler-nichols", "itae", "relay"):
        assert grid_cost <= rows[method]["cost"] * 1.001
        assert method in out
    for method in methods:
        assert (tmp_path / f"trace_{method.replace('-', '_')}.csv").is_file()
    assert hashlib.sha256((tmp_path / "comparison.csv").read_bytes()).hexdigest() == (
        "8e108a3fb36e58b5f89577d1f515fd6d7b5bc4b02a934d0e952df374bf849f7f")


# -- sweep-m0 ------------------------------------------------------------------------


def test_sweep_m0_summary(tmp_path, capsys):
    rc = main(["sweep-m0", "--preset", "desk", "--m0", "3,4",
               "--repeats", "1", "--max-iters", "2", "--seed", "1",
               "--out", str(tmp_path)])
    assert rc == 0
    capsys.readouterr()
    lines = (tmp_path / "sweep_m0.csv").read_text().splitlines()
    assert lines[0] == ("m0,repeats,median_iterations,"
                        "cost_q10,cost_q50,cost_q90")
    assert len(lines) == 3
    assert hashlib.sha256((tmp_path / "sweep_m0.csv").read_bytes()).hexdigest() == (
        "bc63c0a77fb32749874ad04c42234143aa9783f9774882cc85e7b41a785cfd27")
    rec = _load_record(tmp_path / "record_sweep_m0.json")
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

    rec = _load_record(tune / "record_tune.json")
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
    sim = _load_record(shared / "record_grid.json")
    # other weights into the same directory must not replay the cached table
    assert main(["grid", "--weights", "exp-tracking", "--out", str(shared)]) == 0
    assert main(["grid", "--weights", "exp-tracking", "--out", str(cold)]) == 0
    capsys.readouterr()
    warm = _load_record(shared / "record_grid.json")
    fresh = _load_record(cold / "record_grid.json")
    assert warm["best_cost"] == fresh["best_cost"] != sim["best_cost"]
    assert (shared / "grid.csv").read_bytes() == (cold / "grid.csv").read_bytes()

    # nor may a wider settling band, which moves the costs of the same bench
    monkeypatch.setattr("axistune.metrics.SETTLE_BAND", 0.05)
    cold = tmp_path / "cold-band"
    for out in (shared, cold):
        assert main(["grid", "--weights", "exp-tracking", "--out", str(out)]) == 0
    capsys.readouterr()
    banded = _load_record(cold / "record_grid.json")
    assert _load_record(shared / "record_grid.json") == banded
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
    # zip CRC check can reject it; that too is a cache miss
    flipped = bytearray(whole)
    flipped[394] ^= 0xFF
    with pytest.raises(zlib.error), np.load(io.BytesIO(flipped)) as data:
        data["table"]
    cache.write_bytes(flipped)
    assert main(["grid", "--out", str(cut)]) == 0
    assert (cut / "grid.csv").read_bytes() == expected
    capsys.readouterr()
    # the save leaves no temporary file behind
    assert sorted(p.name for p in cut.iterdir()) == sorted(
        p.name for p in cold.iterdir())
