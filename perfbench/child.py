"""One benchmark instance, run in a fresh process.

    python3 perfbench/child.py '{"model": "vanderpol", "box_seed": "1:vanderpol",
                                 "mc_seed": 7, "validate": true, "trace": false}'

Prints one JSON line. A fresh process keeps the module-global expression
caches cold, as they are for a command-line user. Times are CPU seconds;
set-up time counts from process start, so it includes the interpreter and
the imports.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402
from layertrace import clock  # noqa: E402


def _limit():
    mem = spec.MEM_LIMIT_MB << 20
    resource.setrlimit(resource.RLIMIT_AS, (mem, mem))
    _, cpu_hard = resource.getrlimit(resource.RLIMIT_CPU)
    resource.setrlimit(resource.RLIMIT_CPU, (spec.CPU_LIMIT_S, cpu_hard))


def shift_box(ha, box_seed: str):
    """Shift the centre of every positive-width initial interval by a
    uniform fraction in [-1/2, 1/2] of its width; widths stay the same."""
    from hyflow.interval import Interval

    rng = random.Random(box_seed)
    for v in ha.variables:
        b = ha.initial_box[v]
        if b.hi > b.lo:
            d = rng.uniform(-0.5, 0.5) * (b.hi - b.lo)
            ha.initial_box[v] = Interval(b.lo + d, b.hi + d)


def fingerprint(pipe) -> str:
    """Digest of every branch, segment box and crossing, bit for bit."""
    h = hashlib.sha256()

    def put(*items):
        h.update(repr(items).encode())

    def box(b):
        return tuple((v, b[v].lo.hex(), b[v].hi.hex()) for v in sorted(b))

    for br in pipe.branches:
        put(br.index, br.parent, br.complete, br.abort_reason)
        for s in br.segments:
            put(s.t.lo.hex(), s.t.hi.hex(), s.t_end.lo.hex(), s.t_end.hi.hex(),
                box(s.tight), box(s.hull), s.location, s.events)
        for c, label in br.crossings:
            put(c.lo.hex(), c.hi.hex(), label)
    return h.hexdigest()


def outputs(pipe) -> dict:
    """Deterministic figures of a flowpipe."""
    finals = [max(b.width for b in br.segments[-1].tight.values())
              for br in pipe.branches if br.segments]
    peaks = [max(b.width for b in s.tight.values())
             for br in pipe.branches for s in br.segments]
    windows = [c.width for br in pipe.branches for c, _ in br.crossings]
    return {
        "complete": pipe.complete,
        "final_width": max(finals) if finals else math.inf,
        "peak_width": max(peaks) if peaks else math.inf,
        "windows": len(windows),
        "zc_window_s": sum(windows) / len(windows) if windows else 0.0,
        "steps": pipe.stats["steps"],
        "rejections": pipe.stats["rejections"],
        "crossings": pipe.stats["crossings"],
        "branches": pipe.stats["branches"],
        "fingerprint": fingerprint(pipe),
    }


def gate(ha, pipe, samples: int, seed: int) -> dict:
    """Completion plus seeded Monte-Carlo containment; never filtered."""
    from hyflow import engine

    if not pipe.complete:
        aborts = sorted({br.abort_reason for br in pipe.branches
                         if not br.complete})
        return {"failed": True, "reason": f"incomplete: {aborts}"}
    mc = engine.validate_monte_carlo(ha, pipe, samples, seed)
    escaped = mc["samples"] - mc["skipped"] - mc["contained"]
    first = next((v["detail"] for v in mc["violations"] if "detail" in v),
                 None)
    return {"failed": escaped > 0,
            "reason": f"{escaped} of {samples} samples escaped" if escaped
            else "", "escaped": escaped, "skipped": mc["skipped"],
            "first_escape": first}


def run(job: dict) -> dict:
    sys.path.insert(0, str(HERE.parent / "src"))
    from hyflow import benchmarks, engine, expr

    tracer = None
    if job["trace"]:
        import layertrace

        tracer = layertrace.Tracer()
        tracer.install()
        prepare = tracer.wrap(layertrace.PREPARE, expr.prepare_automaton)
        simulate = tracer.wrap(layertrace.SIMULATE, engine.simulate)
    else:
        prepare, simulate = expr.prepare_automaton, engine.simulate
    ha, cfg = benchmarks.load(benchmarks.REGISTRY[job["model"]])
    if job["model"] not in spec.UNSHIFTED:
        shift_box(ha, job["box_seed"])
    prepare(ha)
    setup_s = clock()
    pipe = simulate(ha, cfg)
    cpu_s = clock() - setup_s
    out = {"model": job["model"], "setup_s": setup_s, "cpu_s": cpu_s,
           "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    out.update(outputs(pipe))
    if tracer is not None:
        out["trace"] = {"layers": tracer.summary(), "counts": tracer.counts,
                        **tracer.check()}
        if job.get("spans_out"):
            path = Path(job["spans_out"])
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(tracer.spans))
    if job["validate"]:
        began = time.perf_counter()
        out["gate"] = gate(ha, pipe, spec.MC_SAMPLES, job["mc_seed"])
        out["gate"]["wall_s"] = time.perf_counter() - began
    return out


def main():
    job = json.loads(sys.argv[1])
    _limit()
    try:
        out = run(job)
    except MemoryError:
        out = {"model": job["model"], "limit": "address space"}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
