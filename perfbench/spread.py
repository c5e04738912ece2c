"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/spread.py --workload fresh-data --seeds 0-9 [--trace 0]

For every metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median.  Each run checks its own outputs and counts (``run.py``); a run that
fails is listed.  The summary goes to
``.bench_out/spread-<workload>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import run


def seed_list(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list) -> dict:
    median = statistics.median(values)
    out = {"median": median, "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else None)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=float,
                        default=json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    results, failures = [], []
    for seed in seed_list(args.seeds):
        command = [sys.executable, str(run.HERE / "run.py"), "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        start = time.perf_counter()
        done = subprocess.run(command, capture_output=True, text=True, timeout=600)
        elapsed = time.perf_counter() - start
        if done.returncode != 0:
            failures.append(f"seed {seed}: exit {done.returncode}: {done.stderr[-500:]}")
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            failures.append(f"seed {seed}: {result['failed']} failed operations")
        results.append(result)
        print(f"seed {seed}: {elapsed:.1f} s, correct={result['correct']}", flush=True)
    if not results:
        print("\n".join(failures), file=sys.stderr)
        return 1
    metrics = {name: summarize([r["metrics"][name]["value"] for r in results])
               for name in results[0]["metrics"]}
    for name, m in metrics.items():
        if m.get("spread") is not None:
            print(f"{name:45s} median {m['median']:.6g}  spread {m['spread']:.4f}")
    for line in failures:
        print("FAIL", line)
    summary = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
               "seeds": seed_list(args.seeds), "runs": len(results),
               "failures": failures, "metrics": metrics}
    run.OUT.mkdir(exist_ok=True)
    path = run.OUT / f"spread-{args.workload}-trace{args.trace}.json"
    path.write_text(json.dumps(summary, indent=1, sort_keys=True))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
