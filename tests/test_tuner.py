"""Feasible-set geometry, the GP-LCB loop, and grid search."""

import numpy as np
import pytest

from axistune.gpr import Dataset, GpHyperparams, fit
from axistune.tuner import (
    REPEAT_THRESHOLD,
    BoConfig,
    FeasibleSet,
    OracleAbort,
    grid_search,
    lcb,
    load_grid_table,
    next_point,
    run_bo,
    save_grid_table,
)

SMALL = FeasibleSet(kp=(1.0, 4.0), kv=(0.1, 0.5), third=(10.0, 40.0),
                    n_kp=4, n_kv=5, n_third=4)


def _quadratic_oracle(fset, center=None, scale=1.0):
    """Separable bowl with a known grid argmin, in normalized units."""
    bounds = fset.bounds()
    lo, hi = bounds[:, 0], bounds[:, 1]
    c = (0.6 if center is None else center) * np.ones(3)

    def oracle(x):
        u = (np.asarray(x, dtype=float) - lo) / (hi - lo)
        return scale * float(((u - c) ** 2).sum())

    return oracle


# -- feasible set geometry -----------------------------------------------------


def test_axes_are_inclusive_linear_spacings():
    ax_kp, ax_kv, ax_th = SMALL.axes
    assert np.allclose(ax_kp, [1.0, 2.0, 3.0, 4.0])
    assert np.allclose(ax_kv, [0.1, 0.2, 0.3, 0.4, 0.5])
    assert np.allclose(ax_th, [10.0, 20.0, 30.0, 40.0])
    assert SMALL.shape == (4, 5, 4)
    assert SMALL.size == 80
    assert np.array_equal(SMALL.bounds(), [[1.0, 4.0], [0.1, 0.5], [10.0, 40.0]])


def test_grid_is_row_major_over_the_axes():
    g = SMALL.grid()
    assert g.shape == (80, 3)
    # last axis varies fastest, first axis slowest
    assert np.allclose(g[0], [1.0, 0.1, 10.0])
    assert np.allclose(g[1], [1.0, 0.1, 20.0])
    assert np.allclose(g[4], [1.0, 0.2, 10.0])
    assert np.allclose(g[20], [2.0, 0.1, 10.0])
    assert np.allclose(g[-1], [4.0, 0.5, 40.0])


def test_index_round_trips():
    for flat in (0, 1, 17, 79):
        p = SMALL.point_at(flat)
        assert SMALL.flat_index(p) == flat
    assert SMALL.nearest_index((2.2, 0.26, 33.0)) == (1, 2, 2)
    snapped = SMALL.point_at(SMALL.flat_index((2.2, 0.26, 33.0)))
    assert np.allclose(snapped, [2.0, 0.3, 30.0])


def test_index_distance_is_chebyshev_in_cells():
    a = SMALL.point_at(0)          # indices (0, 0, 0)
    b = SMALL.point_at(79)         # indices (3, 4, 3)
    assert SMALL.index_distance(a, b) == 4
    assert SMALL.index_distance(a, a) == 0
    c = SMALL.point_at(SMALL.flat_index((2.0, 0.2, 10.0)))  # (1, 1, 0)
    assert SMALL.index_distance(a, c) == 1


def test_containment_with_boundary_tolerance():
    assert SMALL.contains((1.0, 0.1, 10.0))
    assert SMALL.contains((4.0, 0.5, 40.0))
    assert SMALL.contains((2.5, 0.3, 25.0))
    assert not SMALL.contains((0.9, 0.3, 25.0))
    assert not SMALL.contains((2.5, 0.51, 25.0))
    assert not SMALL.contains((2.5, 0.3, 40.5))
    # a rounding hair outside the box still counts as inside
    assert SMALL.contains((4.0 + 1e-13, 0.5, 40.0))


def test_canonical_converts_reset_time_to_integral_gain():
    tn_set = FeasibleSet(kp=(10.0, 100.0), kv=(10.0, 50.0), third=(2.0, 8.0),
                         n_kp=3, n_kv=3, n_third=3, third_axis="tn")
    pts = np.array([[10.0, 10.0, 2.0], [100.0, 50.0, 8.0]])
    canon = tn_set.canonical(pts)
    assert np.allclose(canon, [[10.0, 10.0, 5.0], [100.0, 50.0, 6.25]])
    # a ki-axis set is already canonical
    assert np.allclose(SMALL.canonical(pts), pts)


def test_latin_hypercube_sampling_properties():
    rng1 = np.random.default_rng(12)
    rng2 = np.random.default_rng(12)
    s1 = SMALL.lhs_sample(12, rng1)
    s2 = SMALL.lhs_sample(12, rng2)
    assert np.array_equal(s1, s2)  # same stream, same design
    assert s1.shape == (12, 3)
    flats = {SMALL.flat_index(p) for p in s1}
    assert len(flats) == 12  # distinct grid points
    axes = SMALL.axes
    for j in range(3):
        assert all(any(np.isclose(v, a) for a in axes[j]) for v in s1[:, j])
    with pytest.raises(ValueError):
        SMALL.lhs_sample(81, np.random.default_rng(0))
    with pytest.raises(ValueError):
        SMALL.lhs_sample(0, np.random.default_rng(0))


def test_feasible_set_validation():
    with pytest.raises(ValueError):
        FeasibleSet(kp=(0.0, 4.0), kv=(0.1, 0.5), third=(10.0, 40.0),
                    n_kp=4, n_kv=5, n_third=4)
    with pytest.raises(ValueError):
        FeasibleSet(kp=(4.0, 1.0), kv=(0.1, 0.5), third=(10.0, 40.0),
                    n_kp=4, n_kv=5, n_third=4)
    with pytest.raises(ValueError):
        FeasibleSet(kp=(1.0, 4.0), kv=(0.1, 0.5), third=(10.0, 40.0),
                    n_kp=1, n_kv=5, n_third=4)
    with pytest.raises(ValueError):
        FeasibleSet(kp=(1.0, 4.0), kv=(0.1, 0.5), third=(10.0, 40.0),
                    n_kp=4, n_kv=5, n_third=4, third_axis="td")


def test_bo_config_validation():
    with pytest.raises(ValueError):
        BoConfig(m0=2)
    with pytest.raises(ValueError):
        BoConfig(beta=-0.1)
    with pytest.raises(ValueError):
        BoConfig(max_iterations=-1)
    assert BoConfig() == BoConfig(m0=20, beta=2.0, max_iterations=60, seed=0)


# -- acquisition ----------------------------------------------------------------


def test_lcb_closed_form():
    mu = np.array([1.0, 2.0])
    var = np.array([0.25, 4.0])
    assert np.allclose(lcb(mu, var, 2.0), [0.0, -2.0])
    assert np.allclose(lcb(mu, var, 0.0), mu)


def test_next_point_explores_away_from_a_single_high_observation():
    fset = FeasibleSet(kp=(1.0, 5.0), kv=(1.0, 5.0), third=(1.0, 5.0),
                       n_kp=5, n_kv=5, n_third=5)
    center = np.array([3.0, 3.0, 3.0])
    h = GpHyperparams(1.0, (0.3, 0.3, 0.3), 1e-3)
    g = fit(Dataset(center.reshape(1, 3), np.array([10.0])),
            h, input_bounds=fset.bounds())
    point, mu, sigma, flat = next_point(g, fset, beta=100.0)
    # far from the only (bad) observation the bound is dominated by the
    # exploration term, and the all-corners tie resolves to flat index 0
    assert flat == 0
    assert np.allclose(point, [1.0, 1.0, 1.0])
    assert fset.index_distance(point, center) == 2
    assert sigma == pytest.approx(1.0, rel=1e-3)
    # residual mean pull from the lone observation, nearly faded out here
    assert 0.0 < mu < 0.2 * 10.0 * sigma


# -- the optimization loop -------------------------------------------------------


def test_constant_cost_stops_by_the_repeat_rule():
    calls = []

    def oracle(x):
        calls.append(tuple(x))
        return 5.0

    cfg = BoConfig(m0=8, max_iterations=30, seed=4)
    state = run_bo(oracle, SMALL, cfg)
    assert state.stop_reason == "repeat"
    assert len(calls) == cfg.m0 + REPEAT_THRESHOLD
    assert state.iterations == REPEAT_THRESHOLD
    assert state.costs == [5.0] * len(calls)
    # ties keep the earliest observation as incumbent
    assert state.incumbent_index == 0


def test_quadratic_bowl_is_found_across_seeds():
    fset = FeasibleSet(kp=(1.0, 10.0), kv=(1.0, 10.0), third=(1.0, 10.0),
                       n_kp=12, n_kv=12, n_third=12)
    oracle = _quadratic_oracle(fset)
    best, best_cost, _table = grid_search(
        fset, batch_oracle=lambda X: np.array([oracle(x) for x in X])
    )
    hits = 0
    for seed in range(8):
        cfg = BoConfig(m0=10, max_iterations=40, seed=seed)
        state = run_bo(oracle, fset, cfg)
        inc = np.array(state.points[state.incumbent_index])
        if fset.index_distance(inc, best) <= 1:
            hits += 1
    assert hits >= 7


def test_loop_invariants_hold():
    oracle = _quadratic_oracle(SMALL)
    state = run_bo(oracle, SMALL, BoConfig(m0=6, max_iterations=25, seed=9))
    m0 = 6
    assert len(state.points) == len(state.costs) == m0 + state.iterations
    assert len(state.records) == state.iterations
    # every evaluated point sits on the grid
    for p in state.points:
        assert SMALL.contains(p)
        assert np.allclose(SMALL.point_at(SMALL.flat_index(p)), p)
    # the incumbent is the running strict minimum
    inc_cost = state.costs[state.incumbent_index]
    assert inc_cost == min(state.costs)
    assert state.incumbent_index == state.costs.index(inc_cost)
    # records carry a non-increasing incumbent trajectory
    trail = [r.incumbent_cost for r in state.records]
    assert all(a >= b for a, b in zip(trail, trail[1:]))
    assert trail[-1] == inc_cost
    # the design alone can never beat the final incumbent
    assert inc_cost <= min(state.costs[:m0])
    # record bookkeeping: m counts all evaluations so far
    assert [r.m for r in state.records] == list(
        range(m0 + 1, m0 + state.iterations + 1)
    )
    assert state.posterior is not None
    assert state.hyperparams is not None


def test_cost_scale_invariance_of_the_search_path():
    oracle1 = _quadratic_oracle(SMALL, scale=1.0)
    oracle4 = _quadratic_oracle(SMALL, scale=4.0)
    cfg = BoConfig(m0=6, max_iterations=20, seed=2)
    s1 = run_bo(oracle1, SMALL, cfg)
    s4 = run_bo(oracle4, SMALL, cfg)
    assert [SMALL.flat_index(p) for p in s1.points] == [
        SMALL.flat_index(p) for p in s4.points
    ]
    assert s1.incumbent_index == s4.incumbent_index
    assert s1.stop_reason == s4.stop_reason


def test_max_iterations_stop():
    # an oracle that keeps changing keeps the loop alive to the cap
    oracle = _quadratic_oracle(SMALL)
    state = run_bo(oracle, SMALL, BoConfig(m0=5, max_iterations=4, seed=1))
    assert state.iterations <= 4
    if state.stop_reason == "max_iterations":
        assert state.iterations == 4


def test_oracle_failure_carries_partial_state():
    boom_at = 7

    def oracle(x):
        if oracle.count == boom_at:
            raise RuntimeError("sensor glitch")
        oracle.count += 1
        return float(np.sum(x))

    oracle.count = 0
    with pytest.raises(OracleAbort) as exc:
        run_bo(oracle, SMALL, BoConfig(m0=5, max_iterations=20, seed=0))
    state = exc.value.state
    assert len(state.points) == boom_at
    assert len(state.costs) == boom_at
    assert "sensor glitch" in str(exc.value)


# -- grid search and its cache ----------------------------------------------------


def test_grid_search_matches_a_direct_argmin():
    oracle = _quadratic_oracle(SMALL)

    def batch(X):
        return np.array([oracle(x) for x in X])

    best, best_cost, table = grid_search(SMALL, batch_oracle=batch)
    g = SMALL.grid()
    costs = batch(g)
    k = int(np.argmin(costs))
    assert np.allclose(best, g[k])
    assert best_cost == costs[k]
    assert table.shape == (SMALL.size, 4)
    assert np.array_equal(table[:, :3], g)
    assert np.array_equal(table[:, 3], costs)

    # pointwise fallback produces the same table
    _, _, table_pw = grid_search(SMALL, oracle=oracle)
    assert np.array_equal(table_pw, table)

    # constant costs tie everywhere; the first flat index wins
    best_tie, _, _ = grid_search(SMALL, batch_oracle=lambda X: np.ones(len(X)))
    assert np.allclose(best_tie, g[0])

    with pytest.raises(ValueError):
        grid_search(SMALL)
    with pytest.raises(ValueError):
        grid_search(SMALL, batch_oracle=lambda X: np.ones(3))


def test_grid_table_cache_round_trip(tmp_path):
    oracle = _quadratic_oracle(SMALL)
    _, _, table = grid_search(
        SMALL, batch_oracle=lambda X: np.array([oracle(x) for x in X])
    )
    path = tmp_path / "table.npz"
    save_grid_table(path, SMALL, table, "bench-a")
    loaded = load_grid_table(path, SMALL, "bench-a")
    assert loaded is not None
    assert np.array_equal(loaded, table)

    # a different feasible set or a different oracle must refuse the cache
    other = FeasibleSet(kp=(1.0, 4.0), kv=(0.1, 0.5), third=(10.0, 40.0),
                        n_kp=5, n_kv=5, n_third=4)
    assert load_grid_table(path, other, "bench-a") is None
    assert load_grid_table(path, SMALL, "bench-b") is None

    # missing or corrupt files load as None
    assert load_grid_table(tmp_path / "absent.npz", SMALL, "bench-a") is None
    bad = tmp_path / "bad.npz"
    bad.write_bytes(b"not an archive")
    assert load_grid_table(bad, SMALL, "bench-a") is None
