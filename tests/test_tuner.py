"""Feasible-set geometry, the GP-LCB loop, and grid search."""

import numpy as np
import pytest

from axistune import tuner
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
# the same box with a reset-time axis: ki = kv/tn spans 2.5 to 50
SMALL_TN = FeasibleSet(kp=(1.0, 4.0), kv=(0.1, 0.5), third=(0.01, 0.04),
                       n_kp=4, n_kv=5, n_third=4, third_axis="tn")


def _quadratic_oracle(fset, center=None, scale=1.0):
    """Separable bowl with a known grid argmin, in normalized units.

    A batch oracle: (N, 3) rows to (N,) costs.
    """
    bounds = fset.bounds()
    lo, hi = bounds[:, 0], bounds[:, 1]
    c = (0.6 if center is None else center) * np.ones(3)

    def oracle(X):
        u = (np.asarray(X, dtype=float) - lo) / (hi - lo)
        return scale * ((u - c) ** 2).sum(axis=1)

    return oracle


# -- feasible set geometry -----------------------------------------------------


def test_axes_are_inclusive_linear_spacings():
    ax_kp, ax_kv, ax_th = SMALL.axes
    assert np.allclose(ax_kp, [1.0, 2.0, 3.0, 4.0])
    assert np.allclose(ax_kv, [0.1, 0.2, 0.3, 0.4, 0.5])
    assert np.allclose(ax_th, [10.0, 20.0, 30.0, 40.0])
    # built once, and shared read-only like the grid
    assert SMALL.axes is SMALL.axes
    assert not any(ax.flags.writeable for ax in SMALL.axes)
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
    gains = tn_set.gains(pts[1])
    assert gains == (100.0, 50.0, 6.25)
    assert all(type(g) is float for g in gains)


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


@pytest.mark.parametrize("name, value", [
    ("n_kp", 2.5), ("n_kv", 5.0), ("n_third", True), ("n_kp", "4"),
])
def test_feasible_set_counts_must_be_integers(name, value):
    counts = {"n_kp": 4, "n_kv": 5, "n_third": 4}
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        FeasibleSet(kp=(1.0, 4.0), kv=(0.1, 0.5), third=(10.0, 40.0),
                    **{**counts, name: value})
    # numpy integers are counts too
    fset = FeasibleSet(kp=(1.0, 4.0), kv=(0.1, 0.5), third=(10.0, 40.0),
                       **{**counts, name: np.int64(counts[name])})
    assert fset.grid().shape == (80, 3)


def test_bo_config_validation():
    with pytest.raises(ValueError):
        BoConfig(m0=2)
    for beta in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="beta"):
            BoConfig(beta=beta)
    with pytest.raises(ValueError):
        BoConfig(max_iterations=-1)
    with pytest.raises(ValueError, match="seed"):
        BoConfig(seed=-1)
    assert BoConfig() == BoConfig(m0=20, beta=2.0, max_iterations=60, seed=0)


@pytest.mark.parametrize("name, value", [
    ("m0", 3.5), ("m0", True), ("max_iterations", 2.5), ("seed", 1.5),
    ("seed", True), ("max_iterations", np.float64(4.0)),
])
def test_bo_config_counts_must_be_integers(name, value):
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        BoConfig(**{name: value})
    # numpy integers are counts too
    assert BoConfig(**{name: np.int64(5)}) == BoConfig(**{name: 5})


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
    g = fit(Dataset(center.reshape(1, 3), np.array([10.0]), fset.bounds()), h)
    point, mu, sigma, flat = next_point(g, fset, beta=100.0)
    # far from the only (bad) observation the bound is dominated by the
    # exploration term, and the all-corners tie resolves to flat index 0
    assert flat == 0
    assert np.allclose(point, [1.0, 1.0, 1.0])
    assert fset.index_distance(point, center) == 2
    assert sigma == pytest.approx(1.0, rel=1e-3)
    # a lone observation standardizes to zero, so the posterior mean is
    # that observation everywhere and only the deviation steers the bound
    assert mu == 10.0


# -- the optimization loop -------------------------------------------------------


def test_constant_cost_stops_by_the_repeat_rule():
    rows = []

    def oracle(X):
        rows.extend(map(tuple, X))
        return np.full(len(X), 5.0)

    cfg = BoConfig(m0=8, max_iterations=30, seed=4)
    state = run_bo(oracle, SMALL, cfg)
    assert state.stop_reason == "repeat"
    assert len(rows) == cfg.m0 + REPEAT_THRESHOLD
    assert state.iterations == REPEAT_THRESHOLD
    assert state.costs == [5.0] * len(rows)
    # ties keep the earliest observation as incumbent
    assert state.incumbent_index == 0


def test_quadratic_bowl_is_found_across_seeds():
    fset = FeasibleSet(kp=(1.0, 10.0), kv=(1.0, 10.0), third=(1.0, 10.0),
                       n_kp=12, n_kv=12, n_third=12)
    oracle = _quadratic_oracle(fset)
    best, best_cost, _table = grid_search(fset, oracle)
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


def _spy_on_the_gp(monkeypatch):
    """Log each hyperparameter fit as ("hyperfit", data, seed) and each
    posterior fit as ("fit", data), in call order."""
    log = []
    real_hyperfit, real_fit = tuner.fit_hyperparams, tuner.fit

    def hyperfit(data, h, seed):
        log.append(("hyperfit", data, seed))
        return real_hyperfit(data, h, seed=seed)

    def fit(data, h):
        log.append(("fit", data))
        return real_fit(data, h)

    monkeypatch.setattr(tuner, "fit_hyperparams", hyperfit)
    monkeypatch.setattr(tuner, "fit", fit)
    return log


def test_no_iterations_fit_no_hyperparameters(monkeypatch):
    log = _spy_on_the_gp(monkeypatch)
    state = run_bo(_quadratic_oracle(SMALL), SMALL,
                   BoConfig(m0=5, max_iterations=0, seed=3))
    assert log == []
    assert state.hyperparams is None
    assert state.evaluations == 5 and state.records == []
    assert state.stop_reason == "max_iterations"


@pytest.mark.parametrize("every", [1, 3])
def test_hyperparameters_are_refitted_on_the_iterations_dataset(monkeypatch,
                                                                every):
    # iteration t refits when (t - 1) % REFIT_EVERY == 0, seeded seed + t,
    # on the m0 + t - 1 points so far, and fits its posterior on that
    # same dataset
    monkeypatch.setattr(tuner, "REFIT_EVERY", every)
    log = _spy_on_the_gp(monkeypatch)
    fset = FeasibleSet(kp=(1.0, 3.0), kv=(1.0, 3.0), third=(1.0, 3.0),
                       n_kp=7, n_kv=7, n_third=7)

    def oracle(X):
        return np.sum((X - 2.1) ** 2 + 0.01 * np.sin(13.0 * X), axis=1)

    cfg = BoConfig(m0=5, max_iterations=10, seed=4)
    state = run_bo(oracle, fset, cfg)
    assert state.iterations == cfg.max_iterations
    fits = [entry for entry in log if entry[0] == "fit"]
    assert [data.m for _, data in fits] == [cfg.m0 + t for t in range(10)]
    refits = [t for t in range(1, state.iterations + 1) if (t - 1) % every == 0]
    assert [(data.m, seed) for _, data, seed in
            (entry for entry in log if entry[0] == "hyperfit")] == [
        (cfg.m0 + t - 1, cfg.seed + t) for t in refits]
    for entry, after in zip(log, log[1:]):
        if entry[0] == "hyperfit":
            assert after[0] == "fit" and after[1] is entry[1]
    assert state.hyperparams is not None


def test_oracle_failure_carries_partial_state():
    boom_at = 7

    def oracle(X):
        if oracle.count == boom_at:
            raise RuntimeError("sensor glitch")
        oracle.count += len(X)
        return X.sum(axis=1)

    oracle.count = 0
    with pytest.raises(OracleAbort) as exc:
        run_bo(oracle, SMALL, BoConfig(m0=5, max_iterations=20, seed=0))
    state = exc.value.state
    assert len(state.points) == boom_at
    assert len(state.costs) == boom_at
    assert "sensor glitch" in str(exc.value)


def test_the_design_is_one_oracle_call_and_each_iteration_one_row():
    shapes = []

    def oracle(X):
        shapes.append(np.shape(X))
        return _quadratic_oracle(SMALL)(X)

    cfg = BoConfig(m0=6, max_iterations=8, seed=3)
    state = run_bo(oracle, SMALL, cfg)
    assert state.iterations >= 1
    assert shapes == [(cfg.m0, 3)] + [(1, 3)] * state.iterations


def test_oracle_abort_names_the_failed_point_in_plain_floats():
    def oracle(X):
        if len(X) == 1:
            oracle.failed = tuple(float(v) for v in X[0])
            raise RuntimeError("boom")
        return X.sum(axis=1)

    with pytest.raises(OracleAbort) as exc:
        run_bo(oracle, SMALL, BoConfig(m0=5, max_iterations=3, seed=0))
    # on a ki axis the set point is the controller triple
    assert str(exc.value) == f"oracle failed at {oracle.failed}: boom"
    assert "np." not in str(exc.value)
    assert len(exc.value.state.points) == 5


def test_a_failed_design_is_named_and_leaves_no_points():
    def oracle(X):
        raise RuntimeError("boom")

    with pytest.raises(OracleAbort) as exc:
        run_bo(oracle, SMALL, BoConfig(m0=5, max_iterations=3, seed=0))
    assert str(exc.value) == "oracle failed on the 5-point design: boom"
    state = exc.value.state
    assert state.points == [] and state.costs == []
    assert state.stop_reason == "oracle_error"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_cost_aborts_the_search_naming_its_point(bad):
    fset = SMALL_TN

    def design_oracle(X):
        costs = X.sum(axis=1)
        costs[2] = bad
        return costs

    with pytest.raises(OracleAbort, match="non-finite cost") as exc:
        run_bo(design_oracle, fset, BoConfig(m0=5, max_iterations=3, seed=0))
    assert exc.value.state.points == []
    point = tuple(float(v) for v in fset.lhs_sample(5, np.random.default_rng(0))[2])
    # the cost and the point are plain floats, the point in set coordinates
    assert f"cost {float(bad)!r} at {point}" in str(exc.value)

    def iteration_oracle(X):
        return X.sum(axis=1) if len(X) > 1 else np.array([bad])

    with pytest.raises(OracleAbort, match="non-finite cost") as exc:
        run_bo(iteration_oracle, fset, BoConfig(m0=5, max_iterations=3, seed=0))
    assert len(exc.value.state.points) == 5

    costs = fset.canonical(fset.grid()).sum(axis=1)
    costs[7] = bad
    with pytest.raises(ValueError, match="non-finite cost") as exc:
        grid_search(fset, lambda X: costs)
    assert f"at {tuple(float(v) for v in fset.grid()[7])}" in str(exc.value)


def test_an_oracle_of_the_wrong_shape_aborts_the_search():
    with pytest.raises(OracleAbort, match=r"shape \(\), expected \(5,\)"):
        run_bo(lambda X: X.sum(), SMALL, BoConfig(m0=5, max_iterations=3))
    with pytest.raises(OracleAbort, match=r"shape \(1, 3\), expected \(1,\)"):
        run_bo(lambda X: X.sum(axis=1) if len(X) > 1 else X, SMALL,
               BoConfig(m0=5, max_iterations=3))


def test_run_bo_hands_its_oracle_controller_gains():
    seen = []

    def oracle(X):
        seen.append(np.array(X))
        return X.sum(axis=1)

    state = run_bo(oracle, SMALL_TN, BoConfig(m0=3, max_iterations=4, seed=0))
    assert sum(map(len, seen)) == state.evaluations
    for got, (kp, kv, tn) in zip(np.vstack(seen), state.points):
        assert got.shape == (3,)
        assert got.tolist() == [kp, kv, kv / tn]
    # the state and its records stay in set coordinates
    assert all(SMALL_TN.contains(p) for p in state.points)
    assert [r.point for r in state.records] == state.points[3:]


# -- grid search and its cache ----------------------------------------------------


def test_grid_search_matches_a_direct_argmin():
    batch = _quadratic_oracle(SMALL)
    best, best_cost, table = grid_search(SMALL, batch)
    g = SMALL.grid()
    costs = batch(g)
    k = int(np.argmin(costs))
    assert np.allclose(best, g[k])
    assert best_cost == costs[k]
    assert table.shape == (SMALL.size, 4)
    assert np.array_equal(table[:, :3], g)
    assert np.array_equal(table[:, 3], costs)

    # constant costs tie everywhere; the first flat index wins
    best_tie, _, _ = grid_search(SMALL, lambda X: np.ones(len(X)))
    assert np.allclose(best_tie, g[0])

    with pytest.raises(ValueError):
        grid_search(SMALL, lambda X: np.ones(3))


def test_grid_search_hands_its_oracle_controller_gains():
    seen = []

    def batch(X):
        seen.append(np.array(X))
        return X.sum(axis=1)

    best, best_cost, table = grid_search(SMALL_TN, batch)
    (rows,) = seen
    assert np.array_equal(rows, SMALL_TN.canonical(SMALL_TN.grid()))
    # the best point and the table stay in set coordinates
    assert np.array_equal(table[:, :3], SMALL_TN.grid())
    k = int(np.argmin(rows.sum(axis=1)))
    assert np.array_equal(best, SMALL_TN.grid()[k])
    assert best_cost == rows[k].sum()


def test_grid_table_cache_round_trip(tmp_path):
    _, _, table = grid_search(SMALL, _quadratic_oracle(SMALL))
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


def test_a_changed_search_layer_misses_the_grid_cache(tmp_path, monkeypatch):
    # the table's rows are the costs of the triples `canonical` gave the
    # grid points; a set whose repr is unchanged but whose points or
    # triples moved must not be served them
    _, _, table = grid_search(SMALL, _quadratic_oracle(SMALL))
    path = tmp_path / "table.npz"
    save_grid_table(path, SMALL, table, "bench-a")
    real_canonical = FeasibleSet.canonical

    def doubled_ki(self, points):
        pts = real_canonical(self, points)
        pts[:, 2] *= 2.0
        return pts

    monkeypatch.setattr(FeasibleSet, "canonical", doubled_ki)
    assert load_grid_table(path, SMALL, "bench-a") is None
    monkeypatch.setattr(FeasibleSet, "canonical", real_canonical)
    assert np.array_equal(load_grid_table(path, SMALL, "bench-a"), table)

    moved = SMALL.grid() + 1.0
    moved.setflags(write=False)
    monkeypatch.setattr(FeasibleSet, "grid", lambda self: moved)
    assert load_grid_table(path, SMALL, "bench-a") is None


def test_a_damaged_grid_table_loads_as_a_miss_or_unchanged(tmp_path):
    # every byte of a small saved table, inverted and with its low bit
    # flipped: zipfile and numpy reject the damage in many ways, and each
    # must read as a cache miss, never as an exception or other numbers
    fset = FeasibleSet(kp=(1.0, 4.0), kv=(0.1, 0.4), third=(10.0, 40.0),
                       n_kp=3, n_kv=3, n_third=3)
    table = np.column_stack([fset.grid(), np.arange(fset.size, dtype=float)])
    path = tmp_path / "table.npz"
    save_grid_table(path, fset, table, "bench-a")
    raw = path.read_bytes()
    damaged = tmp_path / "damaged.npz"
    for mask in (0xFF, 0x01):
        for offset in range(len(raw)):
            data = bytearray(raw)
            data[offset] ^= mask
            damaged.write_bytes(data)
            loaded = load_grid_table(damaged, fset, "bench-a")
            assert loaded is None or np.array_equal(loaded, table), (
                mask, offset)


def test_failed_grid_table_save_leaves_no_file(tmp_path, monkeypatch):
    def cut_short(f, **arrays):
        f.write(b"PK\x03\x04")
        raise OSError("no space left")

    monkeypatch.setattr(np, "savez_compressed", cut_short)
    path = tmp_path / "table.npz"
    with pytest.raises(OSError, match="no space left"):
        save_grid_table(path, SMALL, np.zeros((SMALL.size, 4)), "bench-a")
    assert list(tmp_path.glob("*.tmp")) == []
    assert load_grid_table(path, SMALL, "bench-a") is None
