"""What the flowpipe benchmark runs and reports.

This module is the single source of the workload and metric lists;
`BENCHMARK.json` at the repository root mirrors them and the self-test
checks that the two agree.
"""

# Models come unchanged from `hyflow.benchmarks.REGISTRY`. Only models that
# complete at their default configuration are timed (NOTES.md says why the
# others are not).
WORKLOADS = {
    "flow": {
        "models": ("vanderpol", "car"),
        "why": "nonlinear flows, no guards: truncation_bound 52-65%, "
               "rk_stages 16-17%, picard_enclosure 7-17% of CPU at seed; "
               "vanderpol rejects 138 of 586 attempts",
    },
    "events": {
        "models": ("thermostat", "bouncing_ball"),
        "why": "1-2 variable piecewise-linear models, 11 crossings: crossing "
               "narrowing (tight_interval/eval_gpoly) 50-65% of CPU at seed, "
               "truncation <=9%",
    },
    "tank": {
        "models": ("watertank",),
        "why": "5 variables, 8 crossings: eval_gpoly ~2.3 ms/call (all 5 "
               "variables interpolated) beside an integrator share of 51% "
               "at seed",
    },
}

# Models whose initial box the seed does not shift, and why. The seed still
# picks their Monte-Carlo samples.
UNSHIFTED = {
    "watertank": "bimodal in the x1 shift: fractions in about (0, 0.4) take "
                 "482 steps to a final width of 6.8, the rest 391 steps to "
                 "1.7, so seeded shifts spread cpu_s and the widths across "
                 "runs far beyond any bound",
}

MC_SAMPLES = 16       # Monte-Carlo reference trajectories per model and run
MEM_LIMIT_MB = 2048   # address-space limit of each child process
CPU_LIMIT_S = 60      # CPU-time limit of each child process

# name -> (unit, better, bound)
END_TO_END = {
    "cpu_s": ("s", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "final_width": ("state", "lower", 0.12),
    "peak_width": ("state", "lower", 0.12),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

# name -> (unit, better, end-to-end metric it should move and where)
PER_LAYER = {
    "integrator.truncation_bound.cpu_s":
        ("s", "lower", "cpu_s: flow most, tank less, events little"),
    "integrator.rk_stages.cpu_s":
        ("s", "lower", "cpu_s: flow most, tank less, events little"),
    "integrator.picard_enclosure.cpu_s":
        ("s", "lower", "cpu_s: flow most, tank less, events little"),
    "integrator.guaranteed_step.cpu_s":
        ("s", "lower", "cpu_s: flow most, tank less, events little"),
    "integrator.attempts": ("count", "lower", "cpu_s: flow (vanderpol)"),
    "integrator.accept_ratio": ("ratio", "higher", "cpu_s: flow (vanderpol)"),
    "integrator.picard_fail": ("count", "lower", "cpu_s: flow (vanderpol)"),
    "integrator.embedded_error.cpu_s": ("s", "lower", "cpu_s: flow"),
    "integrator.env_condense.cpu_s": ("s", "lower", "cpu_s: flow, tank"),
    "interpolator.eval_gpoly.calls":
        ("count", "lower", "cpu_s, zc_window_s: events, tank; 0 on flow"),
    "interpolator.eval_gpoly.cpu_s":
        ("s", "lower", "cpu_s, zc_window_s: events, tank; 0 on flow"),
    "interpolator.evals_per_crossing":
        ("count", "lower", "cpu_s, zc_window_s: events, tank; 0 on flow"),
    "interpolator.eval_gpoly.ms_per_call": ("ms", "lower", "cpu_s: tank"),
    "interpolator.build_gpoly.cpu_s": ("s", "lower", "cpu_s: events, tank"),
    "events.tight_interval.cpu_s":
        ("s", "lower", "cpu_s, zc_window_s: events, tank; 0 on flow"),
    "events.classify.cpu_s": ("s", "lower", "cpu_s: events, tank"),
    "events.edge_cannot_fire.cpu_s": ("s", "lower", "cpu_s: events, tank"),
    "events.cross.cpu_s": ("s", "lower", "cpu_s: events, tank"),
    "events.chain_immediate.cpu_s": ("s", "lower", "cpu_s: events, tank"),
    "events.zc_window_s":
        ("s", "lower", "mean crossing-time enclosure width: events, tank; "
                       "0 on flow"),
    "expr.eval_affine_many.calls": ("count", "lower", "cpu_s: all"),
    "expr.eval_affine_many.cpu_s": ("s", "lower", "cpu_s: all"),
    "affine.mul.calls": ("count", "lower", "cpu_s: all"),
    "affine.mul.symbols_mean":
        ("count", "lower", "cpu_s against final_width: flow, tank"),
    "affine.step_symbols_max": ("count", "lower", "peak_rss_mb: all"),
    "engine.self_s": ("s", "lower", "cpu_s: all"),
    "engine.steps": ("count", "lower", "cpu_s: all"),
    "engine.rejections": ("count", "lower", "cpu_s: flow (vanderpol)"),
    "engine.crossings": ("count", "lower", "cpu_s: events, tank"),
    "engine.branches": ("count", "lower", "cpu_s: all"),
    "dsl.parse_dsl.cpu_s": ("s", "lower", "setup_s: flow, events"),
    "jsonmodel.parse_json_automaton.cpu_s":
        ("s", "lower", "setup_s: events, tank"),
    "expr.prepare_automaton.cpu_s": ("s", "lower", "setup_s: all"),
    "trace.overhead_frac":
        ("ratio", "lower", "none: traced over untraced cpu_s, minus 1"),
    "gate.failed_frac":
        ("ratio", "lower", "none: share of models whose flowpipe is "
                           "incomplete or lets a Monte-Carlo sample escape"),
}
