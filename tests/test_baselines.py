"""Classical autotuner checks: oscillation measurement, ZN, relay, ITAE."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from axistune import baselines, simloop
from axistune.baselines import (
    PROBE_GAIN_REACH,
    TuningError,
    TuningResult,
    _position_gain,
    itae_tune,
    measure_limit_cycle,
    relay_tune,
    ziegler_nichols,
)
from axistune.metrics import MetricVector
from axistune.presets import get_preset
from axistune.tuner import FeasibleSet


# -- limit-cycle measurement -----------------------------------------------------


def test_limit_cycle_of_a_pure_sine():
    dt = 1e-4
    A, T = 0.5, 0.02
    t = np.arange(0, 0.2, dt)
    amp, period, n = measure_limit_cycle(A * np.sin(2 * np.pi * t / T), dt)
    assert amp == pytest.approx(A, rel=0.02)
    assert period == pytest.approx(T, rel=0.02)
    assert n >= 5


def test_limit_cycle_of_a_relay_driven_integrator():
    # dx/dt = K*u with a hysteretic relay u = -d*sign-ish(x): the state
    # sweeps a triangle between -h and +h, so the amplitude equals the
    # hysteresis and the period is 4h/(K*d)
    K, d, h, dt = 2.0, 0.5, 0.05, 1e-5
    x, u = 0.0, -d
    xs = []
    for _ in range(320000):
        if x > h:
            u = -d
        elif x < -h:
            u = d
        x += K * u * dt
        xs.append(x)
    amp, period, n = measure_limit_cycle(np.array(xs[len(xs) // 2 :]), dt)
    assert amp == pytest.approx(h, rel=0.05)
    assert period == pytest.approx(4.0 * h / (K * d), rel=0.05)
    assert n >= 5


def test_limit_cycle_degenerate_signals():
    amp, period, n = measure_limit_cycle(np.zeros(500), 1e-3)
    assert amp == 0.0 and period is None and n == 0
    # too few cycles: amplitude still measured, period withheld
    t = np.arange(0, 0.03, 1e-4)
    amp, period, n = measure_limit_cycle(np.sin(2 * np.pi * t / 0.02), 1e-4)
    assert amp > 0.9
    assert period is None
    assert n < 6


# -- ultimate-gain methods ---------------------------------------------------------


def test_ziegler_nichols_finds_the_oscillation_boundary(desk_bench):
    fset = get_preset("desk").feasible
    res = ziegler_nichols(desk_bench, fset)
    assert isinstance(res, TuningResult)
    assert res.method == "ziegler-nichols"
    ku, tu = res.diagnostics["ku"], res.diagnostics["tu"]
    # one tick of command latency puts the boundary near kv = 1.4 with a
    # 7 ms oscillation period
    assert 1.30 <= ku <= 1.55
    assert tu == pytest.approx(0.007, rel=0.2)
    # the PI table values before clamping
    assert res.diagnostics["table_kv"] == pytest.approx(0.45 * ku, rel=1e-9)
    assert res.diagnostics["table_ki"] == pytest.approx(
        0.45 * ku / (tu / 1.2), rel=1e-9
    )
    # the committed gains live inside the box even though the table's
    # speed gain lands above its ceiling
    kp, kv, ki = res.gains
    assert fset.contains((kp, kv, ki))
    assert res.clamped
    assert kv == fset.kv[1]
    assert ki == pytest.approx(res.diagnostics["table_ki"], rel=1e-9)
    # this plant tolerates full position gain at that speed tuning
    assert kp == fset.kp[1]
    assert res.cost == desk_bench.cost(res.gains)


def test_ziegler_nichols_is_deterministic(desk_bench):
    fset = get_preset("desk").feasible
    a = ziegler_nichols(desk_bench, fset)
    b = ziegler_nichols(desk_bench, fset)
    assert a.gains == b.gains
    assert [p["kv"] for p in a.diagnostics["probes"]] == [
        p["kv"] for p in b.diagnostics["probes"]
    ]
    assert a.diagnostics["tu"] == b.diagnostics["tu"]


def test_relay_agrees_with_ziegler_nichols(desk_bench):
    fset = get_preset("desk").feasible
    zn = ziegler_nichols(desk_bench, fset)
    ry = relay_tune(desk_bench, fset)
    assert ry.method == "relay"
    assert ry.diagnostics["d"] == pytest.approx(1.0)  # 10% of the 10 A limit
    assert ry.diagnostics["n_cycles"] >= 5
    # describing-function identity on the recorded quantities
    d, a = ry.diagnostics["d"], ry.diagnostics["a"]
    assert ry.diagnostics["ku"] == pytest.approx(4.0 * d / (math.pi * a), rel=1e-12)
    # the two experiments see the same loop: ultimate gains within 25%
    assert abs(ry.diagnostics["ku"] - zn.diagnostics["ku"]) <= 0.25 * zn.diagnostics["ku"]
    assert ry.diagnostics["tu"] == pytest.approx(zn.diagnostics["tu"], rel=0.25)
    assert fset.contains(ry.gains)


def test_relay_respects_a_reset_time_axis(desk_bench):
    pre = get_preset("desk")
    f = pre.feasible
    tn_set = FeasibleSet(kp=f.kp, kv=f.kv, third=(0.5, 5.0),
                         n_kp=4, n_kv=4, n_third=4, third_axis="tn")
    res = relay_tune(desk_bench, tn_set)
    kp, kv, ki = res.gains
    # the clamp works in reset-time units: tn = kv/ki must sit in the box
    assert tn_set.contains((kp, kv, kv / ki))


def test_ziegler_nichols_respects_a_reset_time_axis(desk_bench):
    f = get_preset("desk").feasible
    # at the clamped kv = 0.5 the table's ki gives kv / ki = 4.5 ms,
    # below this box, so the reset time is raised to its floor
    tn_set = FeasibleSet(kp=f.kp, kv=f.kv, third=(0.01, 0.1),
                         n_kp=4, n_kv=4, n_third=4, third_axis="tn")
    res = ziegler_nichols(desk_bench, tn_set)
    kp, kv, ki = res.gains
    assert res.clamped
    assert tn_set.contains(tn_set.native(res.gains)[0])
    assert kv / ki == pytest.approx(0.01, rel=1e-12)


def test_probe_results_are_pinned():
    # the speed-loop probes on a fresh desk bench, so every cost is a
    # single run; any change to the probe loop shows up here
    fset = get_preset("desk").feasible
    zn = ziegler_nichols(get_preset("desk").bench(), fset)
    assert zn.diagnostics["ku"] == 1.4384765625
    assert zn.diagnostics["tu"] == 0.007
    assert len(zn.diagnostics["probes"]) == 14
    assert zn.gains == pytest.approx((4200.0, 0.5, 110.96819196428571), rel=1e-9)
    assert zn.cost == pytest.approx(147071.96948305838, rel=1e-9)

    ry = relay_tune(get_preset("desk").bench(), fset)
    assert ry.diagnostics["a"] == pytest.approx(1.147887767751502, rel=1e-9)
    assert ry.diagnostics["tu"] == 0.008
    assert ry.gains == pytest.approx((4200.0, 0.4991409536954476, 90.0), rel=1e-9)
    assert ry.cost == pytest.approx(147100.30764053456, rel=1e-9)


def test_ziegler_nichols_searches_below_an_oscillating_box(desk_bench):
    # every speed gain of this box oscillates, so the search halves below
    # it to kv = 1, then bisects the same [1, 2] as on the desk box
    f = get_preset("desk").feasible
    box = FeasibleSet(kp=f.kp, kv=(2.0, 5.0), third=f.third,
                      n_kp=4, n_kv=4, n_third=4)
    res = ziegler_nichols(desk_bench, box)
    assert res.diagnostics["ku"] == 1.4384765625
    assert res.diagnostics["tu"] == 0.007
    probes = res.diagnostics["probes"]
    assert len(probes) == 12
    assert [p["oscillating"] for p in probes[:2]] == [True, False]
    assert res.gains[1] == 2.0
    assert res.clamped


def _fake_probe(monkeypatch, e_speed):
    """Make every probe run return ``e_speed(t)`` as its speed error."""

    def probe(gains, profile, relay=None):
        return SimpleNamespace(e_speed=e_speed(profile.t), diverged=False)

    monkeypatch.setattr(baselines, "simulate", probe)


def test_always_oscillating_plant_raises_at_the_floor(monkeypatch):
    _fake_probe(monkeypatch, lambda t: 0.01 * np.sin(2 * np.pi * t / 0.01))
    fset = get_preset("desk").feasible
    bottom = fset.kv[0] / PROBE_GAIN_REACH
    with pytest.raises(TuningError) as exc:
        ziegler_nichols(get_preset("desk").bench(), fset)
    assert f"no stable speed gain found above {bottom:.4g}" in str(exc.value)
    probes = exc.value.diagnostics["probes"]
    assert all(p["oscillating"] for p in probes)
    # the downward sweep halved to the floor before giving up
    assert bottom <= probes[-1]["kv"] < 2.0 * bottom
    assert len(probes) == 7


def test_never_oscillating_plant_raises_with_diagnostics(monkeypatch):
    _fake_probe(monkeypatch, lambda t: 0.1 * np.exp(-t / 0.05))  # pure decay
    fset = get_preset("desk").feasible
    with pytest.raises(TuningError) as exc:
        ziegler_nichols(get_preset("desk").bench(), fset)
    assert "no oscillation boundary" in str(exc.value)
    probes = exc.value.diagnostics["probes"]
    assert len(probes) >= 3
    assert all(not p["oscillating"] for p in probes)
    # the upward sweep doubled past the ceiling before giving up
    assert probes[-1]["kv"] > PROBE_GAIN_REACH * fset.kv[1] / 2.0


def test_relay_without_a_limit_cycle_raises(monkeypatch):
    _fake_probe(monkeypatch, np.zeros_like)
    fset = get_preset("desk").feasible
    with pytest.raises(TuningError) as exc:
        relay_tune(get_preset("desk").bench(), fset)
    assert "no limit cycle" in str(exc.value)


# -- position gain -------------------------------------------------------------------


def test_position_gain_reads_the_overshoot_from_the_bench(desk_bench):
    fset = get_preset("desk").feasible
    kv, ki = 0.35, 90.0
    _, history = _position_gain(desk_bench, fset, kv, ki)
    for kp, pct in history:
        m = desk_bench.metrics((kp, kv, ki))
        # a percentage of the 0.1 m move
        assert pct == pytest.approx(100.0 * m.pos_overshoot / 0.1, rel=1e-9)
        assert pct >= 0.0


def test_position_gain_counts_a_diverged_run_as_infinite_overshoot(monkeypatch):
    monkeypatch.setattr(simloop, "DIVERGENCE_LIMIT", 1e-9)
    fset = get_preset("desk").feasible
    with pytest.raises(TuningError) as exc:
        _position_gain(get_preset("desk").bench(), fset, 0.35, 90.0)
    history = exc.value.diagnostics["overshoot_history"]
    assert [kp for kp, _ in history] == [fset.kp[1], fset.kp[0]]
    assert all(math.isinf(pct) for _, pct in history)


# -- exhaustive ITAE -----------------------------------------------------------------


class _TableBench:
    """Fake bench with prescribed per-point ITAE and weighted costs."""

    def __init__(self, fset, itae_map, cost_map):
        self._fset = fset
        self._itae = itae_map
        self._cost = cost_map

    @staticmethod
    def _key(triple):
        return tuple(round(float(v), 9) for v in np.asarray(triple).reshape(3))

    def metric_table(self, triples):
        out = []
        for row in np.atleast_2d(triples):
            half = self._itae[self._key(row)] / 2.0
            out.append(MetricVector(pos_itae=half, spd_itae=half))
        return out

    def cost(self, triple):
        return self._cost[self._key(triple)]

    def metrics(self, triple):
        half = self._itae[self._key(triple)] / 2.0
        return MetricVector(pos_itae=half, spd_itae=half)


def test_itae_minimizes_its_own_criterion_not_the_cost():
    fset = FeasibleSet(kp=(1.0, 2.0), kv=(0.1, 0.2), third=(10.0, 20.0),
                       n_kp=2, n_kv=2, n_third=2)
    grid = fset.canonical(fset.grid())
    keys = [_TableBench._key(row) for row in grid]
    itae_map = {k: 10.0 for k in keys}
    cost_map = {k: 1.0 for k in keys}
    itae_map[keys[5]] = 1.0   # the ITAE winner...
    cost_map[keys[5]] = 99.0  # ...is expensive under the weighted cost
    cost_map[keys[2]] = 0.1   # the weighted-cost winner is elsewhere
    bench = _TableBench(fset, itae_map, cost_map)
    res = itae_tune(bench, fset)
    assert res.method == "itae"
    assert _TableBench._key(res.gains) == keys[5]
    assert res.diagnostics["grid_index"] == 5
    assert res.diagnostics["itae"] == 1.0
    # the reported cost is the weighted bench cost at the ITAE argmin
    assert res.cost == 99.0
    assert not res.clamped


def test_itae_ties_keep_the_first_grid_point():
    fset = FeasibleSet(kp=(1.0, 2.0), kv=(0.1, 0.2), third=(10.0, 20.0),
                       n_kp=2, n_kv=2, n_third=2)
    grid = fset.canonical(fset.grid())
    keys = [_TableBench._key(row) for row in grid]
    bench = _TableBench(fset, {k: 5.0 for k in keys}, {k: 1.0 for k in keys})
    res = itae_tune(bench, fset)
    assert res.diagnostics["grid_index"] == 0
    assert _TableBench._key(res.gains) == keys[0]


def test_itae_skips_diverged_points():
    fset = FeasibleSet(kp=(1.0, 2.0), kv=(0.1, 0.2), third=(10.0, 20.0),
                       n_kp=2, n_kv=2, n_third=2)
    grid = fset.canonical(fset.grid())
    keys = [_TableBench._key(row) for row in grid]

    class DivergingTable(_TableBench):
        def metric_table(self, triples):
            out = []
            for row in np.atleast_2d(triples):
                k = self._key(row)
                if self._itae[k] == math.inf:
                    out.append(MetricVector.diverged())
                else:
                    out.append(MetricVector(pos_itae=self._itae[k]))
            return out

    itae_map = {k: math.inf for k in keys}
    itae_map[keys[3]] = 2.0
    bench = DivergingTable(fset, itae_map, {k: 7.0 for k in keys})
    res = itae_tune(bench, fset)
    assert res.diagnostics["grid_index"] == 3
