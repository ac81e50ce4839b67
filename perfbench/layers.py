"""Wrappers around the package's layer boundaries, and the per-layer metrics.

Every wrapper goes on the name the caller looks up at call time, so the
package runs unmodified: ``cli.run_bo`` rather than ``tuner.run_bo``,
``bench.simulate`` rather than ``simloop.simulate``, and so on.  Span
names are ``<layer>.<what>``; the layer is the package module whose
work the span covers.
"""

from __future__ import annotations

import numpy as np

from spans import Patches, Tracer, self_times, totals

# name -> unit, in the order the traced run reports them
PER_LAYER_UNITS = {
    "cli.calls": "count",
    "cli.self_s": "s",
    "presets.bench_s": "s",
    "bench.queries": "count",
    "bench.memo_hits": "count",
    "bench.hit_ratio": "ratio",
    "bench.self_s": "s",
    "bench.path_rel_err_max": "ratio",
    "simloop.single.runs": "count",
    "simloop.single.s": "s",
    "simloop.single.ms_per_run": "ms",
    "simloop.batch.runs": "count",
    "simloop.batch.s": "s",
    "simloop.batch.ms_per_run": "ms",
    "simloop.ticks": "count",
    "simloop.ticks_per_s": "1/s",
    "simloop.first_call_s": "s",
    "simloop.rail_i_frac": "ratio",
    "simloop.rail_v_frac": "ratio",
    "simloop.diverged": "count",
    "metrics.calls": "count",
    "metrics.s": "s",
    "metrics.us_per_run": "us",
    "gpr.hyperfit.calls": "count",
    "gpr.hyperfit.s": "s",
    "gpr.nlml.calls": "count",
    "gpr.nlml.us_per_call": "us",
    "gpr.fit.calls": "count",
    "gpr.fit.s": "s",
    "gpr.jitter_fits": "count",
    "tuner.run_bo.s": "s",
    "tuner.self_s": "s",
    "tuner.design.s": "s",
    "tuner.acq.sweeps": "count",
    "tuner.acq.s": "s",
    "tuner.acq.points": "count",
    "tuner.acq.ns_per_point": "ns",
    "tuner.grid_search.s": "s",
    "tuner.grid_io.s": "s",
    "tuner.evaluations": "count",
    "tuner.iterations": "count",
    "tuner.repeat_stops": "count",
    "trace.overhead_frac": "ratio",
}


def _per(total: float, n: float, scale: float) -> float:
    return scale * total / n if n else 0.0


def install(tracer: Tracer) -> Patches:
    """Wrap the package's layer boundaries; undo with ``.undo()``."""
    from axistune import bench, cli, gpr, tuner
    from axistune.presets import Preset
    from axistune.simloop import SimConfig

    p = Patches()
    t = tracer

    def on_sim(kind, cfg, trace) -> None:
        n = len(trace.t)
        t.count(kind + ".runs")
        t.count("simloop.ticks", n)
        t.count("simloop.rail_i", int(np.count_nonzero(
            np.abs(trace.i_ref) >= cfg.current_limit)))
        t.count("simloop.rail_v", int(np.count_nonzero(
            np.abs(trace.v_q) >= cfg.voltage_limit)))
        t.count("simloop.diverged", int(bool(trace.diverged)))

    def sim_cfg(args, kwargs):
        return args[4] if len(args) > 4 else kwargs.get("cfg", SimConfig())

    p.set(bench, "simulate", t.wrap(
        bench.simulate, "simloop.single",
        after=lambda a, k, trace: on_sim("simloop.single", sim_cfg(a, k), trace)))
    p.set(bench, "simulate_batch", t.wrap_generator(
        bench.simulate_batch, "simloop.batch",
        on_item=lambda a, k, trace: on_sim("simloop.batch", sim_cfg(a, k), trace)))
    p.set(bench, "extract_metrics", t.wrap(bench.extract_metrics, "metrics.extract"))

    tb = bench.TuningBench
    orig_metrics, orig_many = tb.metrics, tb.evaluate_many

    def metrics(self, triple):
        before = self.n_sims
        with t.span("bench.metrics"):
            m = orig_metrics(self, triple)
        t.count("bench.queries")
        t.count("bench.memo_hits", int(self.n_sims == before))
        return m

    def evaluate_many(self, triples):
        before = self.n_sims
        with t.span("bench.evaluate_many"):
            costs = orig_many(self, triples)
        t.count("bench.queries", len(costs))
        t.count("bench.memo_hits", len(costs) - (self.n_sims - before))
        return costs

    p.set(tb, "metrics", metrics)
    p.set(tb, "evaluate_many", evaluate_many)
    p.set(tb, "cost", t.wrap(tb.cost, "bench.cost"))
    p.set(tb, "trace", t.wrap(tb.trace, "bench.trace"))
    p.set(Preset, "bench", t.wrap(Preset.bench, "presets.bench"))

    p.set(gpr, "nlml", t.wrap(gpr.nlml, "gpr.nlml"))
    p.set(tuner, "fit_hyperparams", t.wrap(tuner.fit_hyperparams, "gpr.hyperfit"))
    p.set(tuner, "fit", t.wrap(
        tuner.fit, "gpr.fit",
        after=lambda a, k, g: t.count("gpr.jitter_fits", int(g.jitter_used > 0.0))))
    p.set(tuner, "next_point", t.wrap(
        tuner.next_point, "tuner.acq",
        after=lambda a, k, r: t.count("tuner.acq.points", a[1].size)))
    p.set(tuner.FeasibleSet, "lhs_sample",
          t.wrap(tuner.FeasibleSet.lhs_sample, "tuner.design"))

    def on_bo(a, k, state) -> None:
        t.count("tuner.evaluations", state.evaluations)
        t.count("tuner.iterations", state.iterations)
        t.count("tuner.repeat_stops", int(state.stop_reason == "repeat"))

    p.set(cli, "run_bo", t.wrap(cli.run_bo, "tuner.run_bo", after=on_bo))
    p.set(cli, "grid_search", t.wrap(cli.grid_search, "tuner.grid_search"))
    p.set(cli, "load_grid_table", t.wrap(cli.load_grid_table, "tuner.grid_io"))
    p.set(cli, "save_grid_table", t.wrap(cli.save_grid_table, "tuner.grid_io"))
    p.set(cli, "main", t.wrap(cli.main, "cli.main"))
    return p


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values from the spans and counters of one traced pass set.

    ``bench.path_rel_err_max`` and ``trace.overhead_frac`` come from
    outside the trace and are filled in by the caller.
    """
    spans, c = tracer.spans, tracer.counters
    selfs = self_times(spans)

    def tot(key):
        return totals(spans, key, selfs)

    cli_n, _, cli_self = tot("cli.main")
    single_n, single_s, _ = tot("simloop.single")
    _, batch_s, _ = tot("simloop.batch")
    batch_n = c["simloop.batch.runs"]
    sim = [s for s in spans if s[0] in ("simloop.single", "simloop.batch")]
    ticks = c["simloop.ticks"]
    met_n, met_s, _ = tot("metrics.extract")
    hf_n, hf_s, _ = tot("gpr.hyperfit")
    nlml_n, nlml_s, _ = tot("gpr.nlml")
    fit_n, fit_s, _ = tot("gpr.fit")
    acq_n, acq_s, _ = tot("tuner.acq")
    queries = c["bench.queries"]
    return {
        "cli.calls": cli_n,
        "cli.self_s": cli_self,
        "presets.bench_s": tot("presets.bench")[1],
        "bench.queries": queries,
        "bench.memo_hits": c["bench.memo_hits"],
        "bench.hit_ratio": _per(c["bench.memo_hits"], queries, 1.0),
        "bench.self_s": tot("bench.")[2],
        "simloop.single.runs": single_n,
        "simloop.single.s": single_s,
        "simloop.single.ms_per_run": _per(single_s, single_n, 1e3),
        "simloop.batch.runs": batch_n,
        "simloop.batch.s": batch_s,
        "simloop.batch.ms_per_run": _per(batch_s, batch_n, 1e3),
        "simloop.ticks": ticks,
        "simloop.ticks_per_s": _per(ticks, single_s + batch_s, 1.0),
        "simloop.first_call_s": sim[0][2] - sim[0][1] if sim else 0.0,
        "simloop.rail_i_frac": _per(c["simloop.rail_i"], ticks, 1.0),
        "simloop.rail_v_frac": _per(c["simloop.rail_v"], ticks, 1.0),
        "simloop.diverged": c["simloop.diverged"],
        "metrics.calls": met_n,
        "metrics.s": met_s,
        "metrics.us_per_run": _per(met_s, met_n, 1e6),
        "gpr.hyperfit.calls": hf_n,
        "gpr.hyperfit.s": hf_s,
        "gpr.nlml.calls": nlml_n,
        "gpr.nlml.us_per_call": _per(nlml_s, nlml_n, 1e6),
        "gpr.fit.calls": fit_n,
        "gpr.fit.s": fit_s,
        "gpr.jitter_fits": c["gpr.jitter_fits"],
        "tuner.run_bo.s": tot("tuner.run_bo")[1],
        "tuner.self_s": tot("tuner.")[2],
        "tuner.design.s": tot("tuner.design")[1],
        "tuner.acq.sweeps": acq_n,
        "tuner.acq.s": acq_s,
        "tuner.acq.points": c["tuner.acq.points"],
        "tuner.acq.ns_per_point": _per(acq_s, c["tuner.acq.points"], 1e9),
        "tuner.grid_search.s": tot("tuner.grid_search")[1],
        "tuner.grid_io.s": tot("tuner.grid_io")[1],
        "tuner.evaluations": c["tuner.evaluations"],
        "tuner.iterations": c["tuner.iterations"],
        "tuner.repeat_stops": c["tuner.repeat_stops"],
    }
