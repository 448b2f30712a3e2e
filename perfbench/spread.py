"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads flow events tank --seeds 1-10 \
        --seconds 40 [--trace 0] [--out .perfbench/spread.json]

For every end-to-end metric this prints the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread: the
distance between the quartiles as a share of the median. The benchmark is
steady when each spread, `setup_s` aside, stays below a third of the
metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def stats(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=sorted(spec.WORKLOADS))
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    table = spec.PER_LAYER if args.trace else spec.END_TO_END
    report = {}
    for w in args.workloads:
        runs = [run(w, s, args.seconds, args.trace) for s in args.seeds]
        report[w] = {
            "seeds": args.seeds,
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {n: {"values": [r["metrics"][n]["value"] for r in runs],
                            **stats([r["metrics"][n]["value"] for r in runs])}
                        for n in table},
        }
        print(f"{w}: correct={report[w]['correct']} "
              f"failed {report[w]['failed']} of {report[w]['attempted']}")
        for n, m in report[w]["metrics"].items():
            bound = table[n][2] if not args.trace else None
            flag = ""
            if bound is not None and n != "setup_s":
                flag = "ok" if m["spread"] < bound / 3 else (
                    "within bound" if m["spread"] <= bound else "TOO WIDE")
            print(f"  {n:40s} median {m['median']:.6g} q1 {m['q1']:.6g} "
                  f"q3 {m['q3']:.6g} spread {m['spread']:.4f} {flag}")
        sys.stdout.flush()
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
