"""Flowpipe benchmark of hyflow.

    python3 perfbench/run.py --workload flow --seed 1 --seconds 45 --trace 0

A closed loop with one serial client: each round runs every model of the
workload once, each instance in a fresh child process (child.py), and
rounds repeat until the next instance would overrun `--seconds`. The seed
shifts each positive-width initial interval (child.shift_box; not for the
models in spec.UNSHIFTED) and picks the Monte-Carlo samples. The first instance of each model is checked for
completion and Monte-Carlo containment; every later instance must
reproduce its flowpipe bit for bit, so it inherits that verdict. CPU times
of the end-to-end metrics are scaled by a reference loop timed next to each
instance (see REF_NOMINAL_S).

Prints each metric as `name value unit`, then, as the last line, one JSON
object with `correct`, `attempted`, `failed` and `metrics`. `attempted`
counts the workload's models, one gated flowpipe each, and `failed` those
whose flowpipe is incomplete, lets a sample escape, or hits a resource
limit; both depend on the seed alone. `correct` is false when the instances of one model disagree (the
harness then cannot vouch for its figures). With `--trace 0` the metrics
are the end-to-end ones; with `--trace 1` rounds alternate between untraced
and traced, and the metrics are the per-layer ones.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import statistics
import subprocess
import sys
import time
import zlib
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

CHILD_TIMEOUT_S = 2 * spec.CPU_LIMIT_S

# On a shared host the machine's speed drifts by up to 40% over minutes,
# far more than the median of one run can remove. So each instance's CPU
# times are divided by the mean CPU time of a fixed loop timed just before
# and just after it, and scaled back to seconds on a machine where that
# loop takes REF_NOMINAL_S.
REF_NOMINAL_S = 0.03

# Fields every instance of one model must reproduce exactly.
DETERMINISTIC = ("complete", "final_width", "peak_width", "windows",
                 "zc_window_s", "steps", "rejections", "crossings",
                 "branches", "fingerprint")


class HarnessError(Exception):
    """The benchmark cannot produce figures (missing program, crashed
    child)."""


def reference_loop() -> float:
    """CPU seconds of fixed pure-Python work shaped like the affine kernels
    (dicts of floats merged by symbol); it runs no hyflow code."""
    start = time.thread_time()
    x = {i: 1.0 / (i + 1) for i in range(100)}
    y = {i: 0.5 / (i + 2) for i in range(50, 150)}
    for _ in range(1500):
        d = {}
        for i, xi in x.items():
            yi = y.get(i)
            d[i] = xi * 0.3 if yi is None else xi * 0.3 + yi * 0.7
        for i, yi in y.items():
            if i not in x:
                d[i] = yi * 0.7
        sum(abs(v) for v in d.values())
    return time.thread_time() - start


def run_child(job: dict) -> dict:
    """One instance; a resource limit ending it yields a `limit` record."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(job)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"model": job["model"], "limit": "wall-clock timeout"}
    if proc.returncode < 0:  # SIGXCPU from RLIMIT_CPU, or SIGKILL
        return {"model": job["model"], "limit": f"signal {-proc.returncode}"}
    if proc.returncode != 0 or not proc.stdout.strip():
        raise HarnessError(f"{job['model']}: child exited with "
                           f"{proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_rounds(workload: str, seed: int, seconds: float, trace: bool):
    """Returns {model: [instance result, ...]} in run order. Stops before
    an instance that would end after `seconds`, judged by the last one of
    the same model without its Monte-Carlo gate."""
    models = spec.WORKLOADS[workload]["models"]
    results = {m: [] for m in models}
    cost = {}
    start = time.monotonic()
    ref = reference_loop()
    rnd = 0
    while True:
        traced = trace and rnd % 2 == 1
        for m in models:
            if (rnd >= (2 if trace else 1)
                    and time.monotonic() - start + cost[m] > seconds):
                return results
            job = {"model": m, "box_seed": f"{seed}:{m}",
                   "mc_seed": zlib.crc32(f"{seed}:{m}:mc".encode()),
                   "validate": not any("gate" in o for o in results[m]),
                   "trace": traced}
            if traced:
                job["spans_out"] = str(ROOT / ".perfbench" / "spans"
                                       / f"{workload}-{m}.json")
            began = time.monotonic()
            out = run_child(job)
            cost[m] = (time.monotonic() - began
                       - out.get("gate", {}).get("wall_s", 0.0))
            after = reference_loop()
            out["speed"] = REF_NOMINAL_S / (0.5 * (ref + after))
            ref = after
            out["traced"] = traced
            results[m].append(out)
        rnd += 1


def check(results: dict):
    """(attempted, failed, correct, notes) under the correctness gate.

    An operation is one model's flowpipe: the run simulates it once under
    the gate and repeats it only for timing, each repeat bit for bit. So
    `attempted` is the number of models and `failed` the number whose
    flowpipe is incomplete, lets a sample escape, or whose instances hit a
    resource limit. Both depend on the seed alone, not on how many repeats
    fit into the run."""
    attempted = failed = 0
    correct = True
    notes = []
    for m, outs in results.items():
        attempted += 1
        ok = [o for o in outs if "limit" not in o]
        limited = [o["limit"] for o in outs if "limit" in o]
        for limit in limited:
            notes.append(f"gate {m}: ended by a resource limit ({limit})")
        ref = next((o for o in ok if "gate" in o), None)
        if ref is None:
            failed += 1
            continue
        for o in ok:
            diff = [k for k in DETERMINISTIC if o[k] != ref[k]]
            if diff:
                correct = False
                notes.append(f"gate {m}: instances disagree on {diff}")
        traced = [o["trace"]["counts"] for o in ok if o["traced"]]
        if any(c != traced[0] for c in traced):
            correct = False
            notes.append(f"gate {m}: traced instances disagree on counts")
        verdict = ref["gate"]
        if verdict["failed"] or limited:
            failed += 1
        if verdict["failed"]:
            note = f"gate {m}: failed, {verdict['reason']}"
            if verdict.get("first_escape"):
                e = verdict["first_escape"]
                note += (f"; first at t={e['t']:.6g}: {e['var']}="
                         f"{e['value']:.9g} outside {e['kind']} box "
                         f"[{e['box'][0]:.9g}, {e['box'][1]:.9g}]")
            notes.append(note)
    return attempted, failed, correct, notes


def _median(outs, key):
    return statistics.median(key(o) for o in outs)


def _ref_s(ok: dict, key: str) -> float:
    """Per model the median of `key` in reference seconds, summed."""
    return sum(_median(outs, lambda o: o[key] * o["speed"])
               for outs in ok.values())


def end_to_end(ok: dict) -> dict:
    models = list(ok)
    return {
        "cpu_s": _ref_s(ok, "cpu_s"),
        "setup_s": _ref_s(ok, "setup_s"),
        "final_width": _geomean(ok[m][0]["final_width"] for m in models),
        "peak_width": _geomean(ok[m][0]["peak_width"] for m in models),
        "peak_rss_mb": max(_median(ok[m], lambda o: o["rss_mb"])
                           for m in models),
    }


def _geomean(values):
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def per_layer(ok: dict, attempted: int, failed: int) -> dict:
    plain = {m: [o for o in outs if not o["traced"]] for m, outs in ok.items()}
    traced = {m: [o for o in outs if o["traced"]] for m, outs in ok.items()}
    first = {m: outs[0] for m, outs in traced.items()}

    def layer_s(layer, field="cpu_s"):
        return sum(_median(traced[m], lambda o: o["trace"]["layers"]
                           .get(layer, {}).get(field, 0.0)) for m in traced)

    def calls(layer):
        return sum(o["trace"]["layers"].get(layer, {}).get("calls", 0)
                   for o in first.values())

    def count(key):
        return sum(o["trace"]["counts"][key] for o in first.values())

    def total(key):
        return sum(o[key] for o in first.values())

    out = {}
    for name in spec.PER_LAYER:
        if name.endswith(".cpu_s"):
            out[name] = layer_s(name[:-len(".cpu_s")])
    gpoly = calls("interpolator.eval_gpoly")
    windows = total("windows")
    out.update({
        "integrator.attempts": calls("integrator.picard_enclosure"),
        "integrator.accept_ratio": count("steps_accepted")
        / max(1, calls("integrator.picard_enclosure")),
        "integrator.picard_fail": count("picard_fail"),
        "interpolator.eval_gpoly.calls": gpoly,
        "interpolator.eval_gpoly.ms_per_call":
            1e3 * out["interpolator.eval_gpoly.cpu_s"] / gpoly if gpoly else 0.0,
        "interpolator.evals_per_crossing":
            gpoly / total("crossings") if total("crossings") else 0.0,
        "events.zc_window_s": sum(o["zc_window_s"] * o["windows"]
                                  for o in first.values()) / windows
        if windows else 0.0,
        "expr.eval_affine_many.calls": calls("expr.eval_affine_many"),
        "affine.mul.calls": count("mul_calls"),
        "affine.mul.symbols_mean": count("mul_symbols")
        / max(1, 2 * count("mul_calls")),
        "affine.step_symbols_max": max(o["trace"]["counts"]["step_symbols_max"]
                                       for o in first.values()),
        "engine.self_s": layer_s("engine.simulate", "self_s"),
        "engine.steps": total("steps"),
        "engine.rejections": total("rejections"),
        "engine.crossings": total("crossings"),
        "engine.branches": total("branches"),
        "trace.overhead_frac": _ref_s(traced, "cpu_s") / _ref_s(plain, "cpu_s")
        - 1.0,
        "gate.failed_frac": failed / attempted,
    })
    return {name: out[name] for name in spec.PER_LAYER}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "hyflow" / "engine.py").is_file():
        print(f"no hyflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # byte-compile up front so no child pays for it inside its set-up time
    compileall.compile_dir(ROOT / "src" / "hyflow", quiet=1)
    compileall.compile_dir(HERE, quiet=1)
    try:
        results = run_rounds(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    except HarnessError as e:
        print(e, file=sys.stderr)
        return 1
    attempted, failed, correct, notes = check(results)
    ok = {m: [o for o in outs if "limit" not in o]
          for m, outs in results.items()}
    if not all(ok.values()):
        print("no instance of " + ", ".join(m for m in ok if not ok[m])
              + " finished", file=sys.stderr)
        return 1
    if args.trace:
        values, table = per_layer(ok, attempted, failed), spec.PER_LAYER
    else:
        plain = {m: [o for o in outs if not o["traced"]]
                 for m, outs in ok.items()}
        values, table = end_to_end(plain), spec.END_TO_END
    for note in notes:
        print(note)
    runs = {m: len(outs) for m, outs in results.items()}
    print(f"instances per model: {runs}")
    unscaled = sum(_median(outs, lambda o: o["cpu_s"]) for outs in ok.values())
    loop = REF_NOMINAL_S / statistics.median(
        o["speed"] for outs in ok.values() for o in outs)
    print(f"unscaled cpu_s {unscaled!r} s, reference loop {loop!r} s")
    for name, value in values.items():
        print(f"{name} {value!r} {table[name][0]}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": v, "unit": table[n][0]}
                    for n, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
