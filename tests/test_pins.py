"""Every value that a deliberate change to the arithmetic moves, stated once.

A change to the drive, metrics, GP or search arithmetic re-pins this
file alone, so one diff shows each value before and after; a value
that several pins share is a named constant.  The pinned command lines
run once per session (``cli_run``), and the command tests read the
same runs.  The pins were made on numpy 2.4.6, scipy 1.17.1 and
OpenBLAS 0.3.31; railed costs and GP bits rest on that BLAS build.
"""

import hashlib
import math

import numpy as np
import pytest

import axistune.bench as bench_module
from axistune.baselines import relay_tune, ziegler_nichols
from axistune.gpr import GpHyperparams, fit, fit_hyperparams, nlml, predict
from axistune.presets import get_preset

from conftest import (COMPARE_DESK, GRID_DESK, LOG_FAILS, LOG_INSIDE,
                      LOG_JITTER, SIMULATE_DESK, SWEEP_M0_DESK, decades_dataset,
                      load_record)


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# -- costs ---------------------------------------------------------------------

# desk's optimum (150, 0.5, 90), which every desk search commits; it never
# touches a rail, so its cost is not chaotic
DESK_OPTIMUM_COST = 61.99758024795093
# plc at (1000, 100, 10000), and plc-tune's incumbent (10, 10, 8000)
PLC_RAILED_COST = 10236681.414856032
PLC_TUNE_COST = 1337352.4195559786

# rail-free points, where a cost is not chaotic: (preset, triple, the
# cost with the screw modelled as a 3e7 N*m/rad spring, the rigid cost)
RAIL_FREE_COSTS = [
    pytest.param("desk", (150.0, 0.5, 90.0), 61.99755248866082,
                 DESK_OPTIMUM_COST, id="desk-150-0.5-90"),
    pytest.param("desk", (15.93, 1.339, 1.0), 32.21171816185186,
                 32.21172093508339, id="desk-15.93-1.339-1"),
    pytest.param("plc", (40.0, 1.0, 20.0), 17002.2403402572,
                 17002.236176815306, id="plc-40-1-20"),
]


@pytest.mark.parametrize("preset, triple, sprung, rigid", RAIL_FREE_COSTS)
def test_rail_free_costs_do_not_see_the_screw_spring(preset, triple, sprung,
                                                     rigid):
    # the screw's axial mode sits at 172 kHz, so a rigid axis scores
    # settled gains as the sprung one did, to well within 1e-6
    got = get_preset(preset).bench().cost(triple)
    assert got == rigid
    assert got == pytest.approx(sprung, rel=1e-6)


# named by preset and point, not cost, so a deliberate re-pin keeps the ids
COST_PINS = [
    # rail-free: any change to the drive maps shows up here
    pytest.param("desk", (150.0, 0.5, 90.0), DESK_OPTIMUM_COST,
                 id="desk-150-0.5-90"),
    pytest.param("desk", (450.0, 0.25, 720.0), 97450.96663779316,
                 id="desk-450-0.25-720"),
    pytest.param("desk", (600.0, 0.3, 360.0), 1444.9880072696371,
                 id="desk-600-0.3-360"),
    pytest.param("plc", (1000.0, 100.0, 10000.0), PLC_RAILED_COST,
                 id="plc-1000-100-10000"),
    # plc-tune's incumbent, the most railed path here: 5,009 of its 6,741
    # railed ticks run frozen-integrator segments, then closed-loop ones
    pytest.param("plc", (10.0, 10.0, 8000.0), PLC_TUNE_COST,
                 id="plc-10-10-8000"),
]


@pytest.mark.parametrize("preset, point, cost", COST_PINS)
def test_single_and_batch_costs_are_bitwise_equal(monkeypatch, preset, point,
                                                  cost):
    # a gain triple has one cost, whichever path simulated it; the rails
    # amplify roundoff, so railed costs move with any change to the tick
    # arithmetic or its order
    pre = get_preset(preset)
    single = pre.bench().cost(pre.feasible.gains(point))
    # with the break-even at two rows, a second row makes the query a
    # batch run
    monkeypatch.setattr(bench_module, "BATCH_ROWS", 2)
    other = pre.feasible.grid()[0]
    batch = pre.bench().evaluate_many(pre.feasible.canonical([point, other]))
    assert single == batch[0] == cost


# -- command outputs -------------------------------------------------------------

# the trace, metrics and cost of one run per preset, bitwise
SIMULATE_PINS = {
    SIMULATE_DESK: (
        "b0e242c60346eec9c282d7a41d1d1e581abec59b909fd2eda1e6a0ae69e7ff8e",
        {"pos_inf": 7.745899622899066e-05, "pos_itae": 1.3637003416485804e-06,
         "pos_overshoot": 2.053991387709897e-05, "pos_settling": 0.0,
         "pos_ss": 2.9941354950935307e-13, "pos_undershoot": 3.0146154731000574e-05,
         "pos_zero": 0.0, "spd_inf": 0.017085251612297098,
         "spd_itae": 0.0004353225313744616, "spd_overshoot": 0.011108070220529231,
         "spd_settling": 0.098, "spd_ss": 6.073081932755908e-06,
         "spd_undershoot": 0.014101743483037082},
        DESK_OPTIMUM_COST,
    ),
    ("simulate", "--preset", "plc", "--gains", "1000,100,10000"): (
        "99ffbb46f763dd0e5fbcfbd0b7fd1803a5d264bc32fdecc3777571f1a88d47d1",
        {"pos_inf": 0.004568517887347023, "pos_itae": 0.3861544973983139,
         "pos_overshoot": 0.004568517887347023, "pos_settling": 0.0,
         "pos_ss": 0.0013932757303929094, "pos_undershoot": 0.0034913860284002673,
         "pos_zero": 0.001929687512746693, "spd_inf": 0.3797660026259875,
         "spd_itae": 40.94042627571073, "spd_overshoot": 0.26741744691305264,
         "spd_settling": 2.499, "spd_ss": 0.12456050879036339,
         "spd_undershoot": 0.2726738435157636},
        PLC_RAILED_COST,
    ),
}


def test_simulate_outputs_are_pinned(cli_run):
    for argv, (trace_sha, metrics, cost) in SIMULATE_PINS.items():
        rc, _, out = cli_run(*argv)
        assert rc == 0
        assert _sha256(out / "trace_simulate.csv") == trace_sha, argv
        rec = load_record(out / "record_simulate.json")
        assert rec["metrics"] == metrics, argv
        assert rec["cost"] == cost, argv


# the whole search path of each default desk run, bitwise: any change to
# the GP arithmetic, the design or the stopping rule moves it.  Per seed:
# evaluations, stop reason, the last proposal's posterior mean and
# deviation, and the digest of every proposal's (convergence.csv)
DESK_TUNE_PINS = {
    0: (80, "max_iterations", 52720.11771667532, 32483.344654359636,
        "f349cbd1031e75f3eb7e612d1ed3657d1edf4aff03fb40b24488f271573ead46"),
    1: (43, "repeat", -10300.169635731203, 11333.14895425837,
        "c506c86096f568bee42da641c36837de57b4e2fd5421b13bd6e5042392f0ace8"),
    2: (27, "repeat", 61.938220019394066, 0.34167677591204537,
        "e0da84169ca78c5cf99f1b678c4af32e2a2ef52d4144d9bb7541e47c75ad8d26"),
    3: (77, "repeat", 220.45209423810593, 56.02951688380421,
        "d3833ece28fda1cf6e8f6683092496b023972a20b8a320cb585a7a14818ca2f5"),
    4: (57, "repeat", 61.99758024774201, 0.0,
        "7b7210565e36cba0b7d382b35da2d0595f42ee20f36e30464ac76ad359899f5e"),
}


@pytest.mark.parametrize("seed", sorted(DESK_TUNE_PINS))
def test_desk_tune_is_pinned(cli_run, seed):
    evaluations, stop_reason, mu, sigma, digest = DESK_TUNE_PINS[seed]
    rc, _, out = cli_run("tune", "--preset", "desk", "--seed", str(seed))
    assert rc == 0
    rec = load_record(out / "record_tune.json")
    assert rec["bo"]["evaluations"] == evaluations
    assert rec["bo"]["stop_reason"] == stop_reason
    assert rec["gains"] == [150.0, 0.5, 90.0]
    assert rec["cost"] == DESK_OPTIMUM_COST
    last = rec["iteration_log"][-1]
    assert (last["mu"], last["sigma"]) == (mu, sigma)
    assert _sha256(out / "convergence.csv") == digest


def test_plc_tune_is_pinned(cli_run):
    # the benchmark's plc-tune call, bitwise: nearly every plc tick is
    # railed, so any change to the single run's tick arithmetic moves it
    rc, _, out = cli_run("tune", "--preset", "plc", "--max-iters", "10", "--seed", "0")
    assert rc == 0
    rec = load_record(out / "record_tune.json")
    assert rec["cost"] == PLC_TUNE_COST
    assert rec["bo"]["evaluations"] == 30
    digests = {name: _sha256(out / name)
               for name in ("convergence.csv", "trace_tune.csv")}
    assert digests == {
        "convergence.csv":
            "504862dd4db5d89ec4623c51b1886036cd69cc95a47b39922f3e0c2d3ab049cf",
        "trace_tune.csv":
            "0dc6f5f74e5337dbdff2f12270a42982502a64576c520549f828964abd7659f8",
    }


# tables of railed costs, bitwise: each holds roundoff chaos, so any
# change to the simulator's arithmetic moves its digest
TABLE_PINS = {
    GRID_DESK: ("grid.csv",
                "91fc97a8688428caa13c9dac61760e43bc972fd48bc6803c1065c8723a980a8f"),
    COMPARE_DESK: ("comparison.csv",
                   "98ebb7f674f33aeff005d7a897c7bfcc201aed98adb6712002e97497efaa039e"),
    SWEEP_M0_DESK: ("sweep_m0.csv",
                    "a96bdf281f4976632e6f24a46136c7267ac2eec07f62c002977c40f2e1a38ef8"),
}


def test_command_tables_are_pinned(cli_run):
    for argv, (table, digest) in TABLE_PINS.items():
        rc, _, out = cli_run(*argv)
        assert rc == 0
        assert _sha256(out / table) == digest, argv


# -- classical probes --------------------------------------------------------------

# the Ziegler-Nichols probe's ultimate gain and period on desk
ZN_KU, ZN_TU = 1.4384765625, 0.007
# the relay probe's limit-cycle amplitude [rad/s] and period on desk
RELAY_A, RELAY_TU = 1.147887767751502, 0.008


def test_probe_results_are_pinned():
    # the speed-loop probes on a fresh desk bench, so every cost is a
    # single run; any change to the probe loop shows up here
    fset = get_preset("desk").feasible
    zn = ziegler_nichols(get_preset("desk").bench(), fset)
    assert zn.diagnostics["ku"] == ZN_KU
    assert zn.diagnostics["tu"] == ZN_TU
    assert len(zn.diagnostics["probes"]) == 14
    assert zn.gains == (4200.0, 0.5, 110.96819196428571)
    assert zn.cost == 147071.96948305838

    ry = relay_tune(get_preset("desk").bench(), fset)
    assert ry.diagnostics["a"] == RELAY_A
    assert ry.diagnostics["tu"] == RELAY_TU
    assert ry.gains == (4200.0, 0.4991409536954476, 90.0)
    assert ry.cost == 147100.30764053456


def test_compare_records_what_the_probes_measured(cli_run):
    _, _, out = cli_run(*COMPARE_DESK)
    diagnostics = load_record(out / "record_compare.json")["diagnostics"]
    zn, relay = diagnostics["ziegler-nichols"], diagnostics["relay"]
    assert (zn["ku"], zn["tu"]) == (ZN_KU, ZN_TU)
    assert (relay["a"], relay["tu"]) == (RELAY_A, RELAY_TU)


# -- the GP --------------------------------------------------------------------------

# Two of conftest's decades datasets.  Every value below must hold bit
# for bit, so an operation reordered or fused anywhere in the kernel,
# the factorization, the NLML, its gradient, the fit or the prediction
# shows here.
PINNED = {
    20: dict(
        seed=1,
        inside=(51.57797166562317,
                [-70.76105043576395, 65.31620538757589, 31.540216420425185,
                 27.382851303258207, -0.5805267111921875]),
        jitter=(1e-09, 776629268.3350302,
                [-654311424.0, 1074183156.588507, 449058109.06074035,
                 339240022.5083888, -90.4232348170884]),
        fit=(1.7532455372052334,
             (0.16613574156870733, 0.3949497320119368, 100.00000000000004),
             1.046539714694744e-06),
        mu=[280.5384465402167, 30433.90583653831, 5531.8981567746705,
            74.19218013988393, 78.03759083149816],
        var=[57212.714844498165, 87001.17880190667, 25520.462847063307,
             5640.655898041262, 9877.866251717804],
    ),
    60: dict(
        seed=2,
        inside=(326.7876230443814,
                [-625.0456520018652, 683.8452668303582, 459.6525296744345,
                 417.4119027502919, -42.4048470779692]),
        jitter=(1e-08, 769279811.8771584,
                [-243793920.0, 329992320.7383651, 404565419.29876506,
                 51489353.619767174, -12.73902872008271]),
        fit=(3.2444429871273717,
             (0.3040024203902, 0.24351635845758254, 2.1474457852008686),
             5.658086945254029e-08),
        mu=[208.3237510266208, 236.38906246742954, -84.39586061763839,
            730.245789407134, -121.69408462670435],
        var=[11863.100848366274, 80040.60974397682, 30400.69043924076,
             65648.55436365395, 36921.93907344145],
    ),
}


def _same_bytes(a, pinned):
    return np.asarray(a, dtype=float).tobytes() == np.array(pinned).tobytes()


@pytest.mark.parametrize("m", sorted(PINNED))
def test_nlml_fit_and_predict_reproduce_pinned_bits(m, descent_calls):
    pin = PINNED[m]
    data = decades_dataset(m, pin["seed"])

    value, grad = nlml(data, GpHyperparams.from_log_vector(np.array(LOG_INSIDE)))
    assert value == pin["inside"][0] and _same_bytes(grad, pin["inside"][1])

    h_jitter = GpHyperparams.from_log_vector(np.array(LOG_JITTER))
    jitter, value, grad_pin = pin["jitter"]
    assert fit(data, h_jitter).jitter_used == jitter
    value_j, grad_j = nlml(data, h_jitter)
    assert value_j == value and _same_bytes(grad_j, grad_pin)

    with pytest.raises(np.linalg.LinAlgError):
        nlml(data, GpHyperparams.from_log_vector(np.array(LOG_FAILS)))

    h = fit_hyperparams(data, GpHyperparams(1.0, (0.3, 0.3, 0.3), 1e-3),
                        seed=pin["seed"])
    assert (h.sigma_f, h.lengthscales, h.sigma_w) == pin["fit"]
    # a failed evaluation is an infinite NLML with a flat gradient: the
    # descent's objective, caught on its way into the optimizer
    f, g = descent_calls[0][0](np.array(LOG_FAILS))
    assert f == math.inf and _same_bytes(g, [0.0] * 5)

    mu, var = predict(fit(data, h), data.X[:5] * 1.01)
    assert _same_bytes(mu, pin["mu"]) and _same_bytes(var, pin["var"])
