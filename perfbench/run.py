"""dperm benchmark: two closed-loop workloads, end-to-end and per-layer metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload repeated-data --seed 0 --seconds 45 --trace 0

Workloads (``workloads.py``, ``BENCHMARK.json``): ``repeated-data`` (exact
audits and samplers on inputs that recur) and ``fresh-data`` (Monte Carlo
trials and the rates kernel, new data every trial).  One process, one
caller: each operation starts when the previous one returns.
``DPERM_THREADS`` must be unset or 1.

``--trace 0`` measures the end-to-end metrics.  The timed phase runs every
operation once, then keeps cycling through the operations whose last
duration still fits in ``--seconds`` of operation time.  The speed of a
shared host swings by tens of percent (on a 2-vCPU Xeon VM: between two
levels about 1.7x apart, for seconds to minutes at a time; uncalibrated
wall_s spread 0.12-0.16 over ten runs), so operations are timed against a
yardstick that belongs to the benchmark, not to dperm: a fixed loop of
small numpy calls shaped like a draw from a small law
(:func:`calibrate`).  During the timed phase a SIGPROF timer fires every
``CAL_PERIOD_S`` of this process's CPU time and its handler times one
yardstick, so the host's speed is sampled inside the operations, spread
evenly over them.  Each operation's duration, less the handler time inside
it, is multiplied by ``CAL_REFERENCE_S`` over the mean yardstick measured
during it (and one sample either side), which gives seconds at the speed
of the host that recorded the baseline.  ``wall_s`` is the sum over
operations of their median calibrated duration, i.e. one pass;
``work_per_s`` is the workload's unit of work (audited neighbor pairs or
Monte Carlo trials) per calibrated second spent in the operations that do
it.  The uncalibrated figures and the yardstick samples are in the info
line.  Set-up (import, configs, inputs) is timed in fresh child processes
started between operations, spread over the timed phase; each child
samples the yardstick itself, and ``setup_s`` is the median of their
calibrated set-up times.

``--trace 1`` runs each operation untraced and traced back to back (spans
around every layer boundary, ``tracing.py``) while time remains, and reports
counts and self times per layer plus ``trace_overhead_ratio`` (both
uncalibrated: the yardstick's handler would land inside the spans).  Counts
must repeat exactly across the traced runs of an operation and across runs
of the same sources in a checkout.

Every operation is checked: exit code, verdict rows, and at the reference
seed (0) the SHA-256 of its output against ``reference.json``.  The last
line of stdout is the result JSON; the line before it holds the
environment, the noise readings and the details.  Files go to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60
CAL_PERIOD_S = 0.2
PROBE_CAL_PERIOD_S = 0.05  # a probe lasts about 1 s of CPU time
CAL_ROUNDS = 300
CAL_REFERENCE_S = 0.0049

sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

COUNT_SUFFIXES = (".calls", ".count", ".tuples", ".points", ".steps",
                  ".base_laws", "loss_cells", "laws_in_draws", "law_requests",
                  "distinct_multisets", "laws_per_multiset", "laws_per_draw")


class Refused(Exception):
    """The benchmark cannot run here; no result is printed."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must lie in [0, 2^63)")
    return args


def import_dperm():
    """Import dperm from this checkout's sources and nowhere else."""
    threads = os.environ.get("DPERM_THREADS")
    if threads not in (None, "1"):
        raise Refused(f"DPERM_THREADS={threads!r}; the benchmark is single-threaded")
    if not (SRC / "dperm" / "__init__.py").is_file():
        raise Refused(f"no dperm sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dperm

    if Path(dperm.__file__).resolve().parent != SRC / "dperm":
        raise Refused(f"imported dperm from {dperm.__file__}, not {SRC}")
    return dperm


def setup_probe(args) -> None:
    """Child process: import, write configs, draw inputs, then say ready
    with the sum and the mean of the yardstick samples taken meanwhile."""
    with HostSpeed(PROBE_CAL_PERIOD_S) as speed:
        import_dperm()
        OUT.mkdir(exist_ok=True)
        directory = tempfile.mkdtemp(dir=OUT)
        try:
            workloads.build(args.workload, args.seed, directory)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
    print("ready", sum(speed.took), statistics.fmean(speed.took), flush=True)


class SetupProbes:
    """Set-up timed in fresh interpreters: seconds from spawning one to its
    inputs being ready, less the yardstick samples the child took, in
    calibrated seconds (scaled by the child's own samples, since the child
    may run on another CPU than this process).  The probes are spread over
    the timed phase, between operations."""

    def __init__(self, args) -> None:
        self.command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                        "--workload", args.workload, "--seed", str(args.seed)]
        self.due = [args.seconds * (k + 0.5) / SETUP_PROBES for k in range(SETUP_PROBES)]
        self.times: list = []
        self.uncalibrated: list = []

    def between(self, elapsed: float) -> None:
        """Run the next probe if its share of the timed phase has passed."""
        if len(self.times) < SETUP_PROBES and elapsed >= self.due[len(self.times)]:
            self.probe()

    def finish(self) -> list:
        while len(self.times) < SETUP_PROBES:
            self.probe()
        return self.times

    def probe(self) -> None:
        start = time.perf_counter()
        child = subprocess.Popen(self.command, stdout=subprocess.PIPE, text=True)
        try:
            line = child.stdout.readline()
            ready = time.perf_counter() - start
            child.stdout.read()
            code = child.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            child.stdout.close()
        fields = line.split()
        if code != 0 or len(fields) != 3 or fields[0] != "ready":
            raise Refused(f"set-up probe exited with code {code}")
        net = ready - float(fields[1])
        self.uncalibrated.append(net)
        self.times.append(net * CAL_REFERENCE_S / float(fields[2]))


def environment(dperm) -> dict:
    import numpy
    import scipy

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "dperm": dperm.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "git_rev": git_rev(),
        "src_sha256": tree_digest(SRC / "dperm"),
        "bench_sha256": tree_digest(HERE),
        "DPERM_THREADS": os.environ.get("DPERM_THREADS"),
    }


def tree_digest(directory: Path) -> str:
    """SHA-256 over the names and contents of the Python files in a directory."""
    digest = hashlib.sha256()
    for path in sorted(directory.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_rev():
    """HEAD of the checkout when it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        target = ROOT / ".git" / ref[5:]
        if target.is_file():
            return target.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def noise_reading() -> dict:
    """Host steal time and load (read-only), and this process's CPU time."""
    reading = {"wall": time.perf_counter()}
    usage = resource.getrusage(resource.RUSAGE_SELF)
    reading["cpu_s"] = usage.ru_utime + usage.ru_stime
    try:
        with open("/proc/stat", encoding="utf-8") as handle:
            fields = handle.readline().split()
        reading["steal_s"] = int(fields[8]) / os.sysconf("SC_CLK_TCK")
        with open("/proc/loadavg", encoding="utf-8") as handle:
            reading["loadavg"] = [float(v) for v in handle.read().split()[:3]]
    except (OSError, IndexError, ValueError):
        pass
    return reading


def noise_block(first: dict, last: dict) -> dict:
    wall = last["wall"] - first["wall"]
    block = {
        "timed_wall_s": wall,
        "cpu_per_wall": (last["cpu_s"] - first["cpu_s"]) / wall if wall else None,
        "loadavg_start": first.get("loadavg"),
        "loadavg_end": last.get("loadavg"),
    }
    if "steal_s" in first and "steal_s" in last:
        block["steal_s"] = last["steal_s"] - first["steal_s"]
    return block


_CAL_RNG = np.random.default_rng(20150226)
_CAL_LOGITS = [_CAL_RNG.normal(size=size) for size in (17, 65, 257, 1025)]
_CAL_UNIFORM = _CAL_RNG.random(4096)


def calibrate() -> float:
    """Seconds for a fixed loop shaped like a draw from a small law: the
    host-speed yardstick.  It touches no dperm code."""
    start = time.perf_counter()
    for i in range(CAL_ROUNDS):
        logits = _CAL_LOGITS[i & 3]
        p = np.exp(logits - logits.max())
        p /= p.sum()
        np.searchsorted(np.cumsum(p), _CAL_UNIFORM[i & 4095])
    return time.perf_counter() - start


class HostSpeed:
    """Yardstick samples taken by a SIGPROF handler every ``period`` seconds
    of this process's CPU time, while the context is open.  The timer
    counts only CPU time of this process, so it is quiet while the process
    waits for a set-up probe."""

    def __init__(self, period: float = CAL_PERIOD_S) -> None:
        self.period = period
        self.took: list = []
        self.busy = False

    def _sample(self, signum, frame) -> None:
        if not self.busy:  # a signal that lands inside a sample is dropped
            self.busy = True
            self.took.append(calibrate())
            self.busy = False

    def __enter__(self):
        self.took.append(calibrate())  # every operation has a neighbor each side
        self.previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self.previous)
        self.took.append(calibrate())

    def mark(self) -> int:
        return len(self.took)

    def scale(self, first: int, last: int) -> float:
        """Calibrated seconds per second for the samples ``first:last``
        taken during an operation, with one neighbor on either side."""
        around = self.took[max(first - 1, 0):last + 1]
        return CAL_REFERENCE_S / statistics.fmean(around)


class Runner:
    """Runs operations, checks them, and keeps per-operation samples."""

    def __init__(self, workload, reference) -> None:
        """``reference`` maps operation keys to output digests, or is None
        where no digest is known (seeds other than the reference seed)."""
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failures: list = []
        self.samples = {op.name: [] for op in workload.ops}
        self.digests: dict = {}
        self.speed = None  # a HostSpeed while the timed phase is calibrated

    def run(self, op) -> float:
        """One operation; returns its duration less any yardstick samples
        taken inside it."""
        self.attempted += 1
        first = self.speed.mark() if self.speed else 0
        start = time.perf_counter()
        try:
            result = op.run()
            duration = time.perf_counter() - start
            first, last, duration, result.work = self.net(first, duration, result.work)
            self.digests[op.name] = result.digest
            if self.reference is not None:
                key = f"{self.workload.name}/{op.name}"
                expected = self.reference.get(key)
                if result.digest != expected:
                    raise workloads.CheckFailed(
                        f"{key}: digest {result.digest} != reference {expected}")
        except Exception as exc:  # an operation's failure is counted, not fatal
            duration = self.net(first, time.perf_counter() - start, {})[2]
            self.failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            return duration
        self.samples[op.name].append((duration, result.work, first, last))
        return duration

    def net(self, first: int, duration: float, work: dict) -> tuple:
        """Take the yardstick samples since ``first`` out of an operation's
        duration and, in proportion, out of the seconds of its work."""
        if not self.speed:
            return first, first, duration, work
        last = self.speed.mark()
        net = duration - sum(self.speed.took[first:last])
        work = {unit: (count, secs * net / duration) for unit, (count, secs) in work.items()}
        return first, last, net, work

    def closed_loop(self, seconds: float, step=None, between=None) -> int:
        """Every operation once, then in rounds each operation whose last
        step still fits in ``seconds`` of step time.  ``step(op, round)``
        runs an operation and returns its duration (default: one run);
        ``between(elapsed)`` is called after each step, outside the clock.
        Returns the number of rounds started."""
        step = step or (lambda op, _: self.run(op))
        spent, last, rounds = 0.0, {}, 0
        while True:
            ran = False
            for op in self.workload.ops:
                if rounds and spent + last[op.name] > seconds:
                    continue
                last[op.name] = step(op, rounds)
                spent += last[op.name]
                ran = True
                if between:
                    between(spent)
            if not ran:
                return rounds
            rounds += 1

    def medians(self, calibrated: bool = False) -> dict:
        """Per operation: runs, median duration, median work per unit; in
        calibrated seconds if ``calibrated``."""
        out = {}
        for name, samples in self.samples.items():
            if samples:
                scales = [self.speed.scale(first, last) if calibrated else 1.0
                          for _, _, first, last in samples]
                out[name] = {
                    "runs": len(samples),
                    "median_s": statistics.median(
                        d * c for (d, *_), c in zip(samples, scales)),
                    "work": {
                        unit: [statistics.median(w[unit][0] for _, w, *_ in samples),
                               statistics.median(w[unit][1] * c
                                                 for (_, w, *_), c in zip(samples, scales))]
                        for unit in samples[0][1]
                    },
                }
        return out

    def rates(self, medians: dict) -> dict:
        """One pass from per-operation medians: wall time and work rates."""
        out = {"wall_s": sum(m["median_s"] for m in medians.values())}
        work: dict = {}
        for m in medians.values():
            for unit, (count, secs) in m["work"].items():
                total = work.setdefault(unit, [0.0, 0.0])
                total[0] += count
                total[1] += secs
        for unit, (count, secs) in work.items():
            out[unit + "_per_s"] = count / secs if secs else 0.0
        return out


# Unit of work -> the reported name of its rate.
RATE_NAMES = {
    "pairs": "audit_pairs_per_s",
    "trials": "mc_trials_per_s",
    "points": "erm_points_per_s",
    "draws": "draws_per_s",
    "mh_steps": "mh_steps_per_s",
}


def named_rates(rates: dict) -> dict:
    return {RATE_NAMES[unit[:-len("_per_s")]]: value for unit, value in rates.items()
            if unit.endswith("_per_s")}


def untraced(args, runner) -> tuple:
    probes = SetupProbes(args)
    with HostSpeed() as runner.speed:
        runner.closed_loop(args.seconds, between=probes.between)
    setup_times = probes.finish()
    medians = runner.medians(calibrated=True)
    rates = runner.rates(medians)
    raw_medians = runner.medians()
    raw = runner.rates(raw_medians)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": rates["wall_s"],
        "work_per_s": rates.get(runner.workload.unit + "_per_s", 0.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    took = runner.speed.took
    q1, median, q3 = statistics.quantiles(took, n=4)
    calibration = {"samples": len(took), "mean_s": statistics.fmean(took),
                   "q1_s": q1, "median_s": median, "q3_s": q3,
                   "reference_s": CAL_REFERENCE_S}
    return metrics, {"named": named_rates(rates), "operations": medians,
                     "uncalibrated": {"wall_s": raw["wall_s"], **named_rates(raw),
                                      "setup_s": statistics.median(probes.uncalibrated),
                                      "operations": raw_medians},
                     "calibration": calibration, "setup_probes_s": setup_times}


def is_count(name: str) -> bool:
    return name.endswith(COUNT_SUFFIXES)


def traced(args, runner, tracer) -> tuple:
    """Per operation, one untraced and one traced run back to back (the
    order flips every round), so both see the same host.  Counts and self
    times come from the traced runs; every count must repeat across the
    traced runs of an operation."""
    plain = {op.name: [] for op in runner.workload.ops}
    runs = {op.name: [] for op in runner.workload.ops}

    def run_traced(op) -> float:
        first = tracer.span_count()
        extra_before = dict(tracer.extra)
        tracer.audit_laws = {}
        tracer.operation += 1
        with tracing.instrument(tracer):
            wall = runner.run(op)
        extra = {k: v - extra_before.get(k, 0) for k, v in tracer.extra.items()}
        runs[op.name].append((wall, tracing.layer_metrics(
            tracer, first, tracer.span_count(), wall, extra, tracer.audit_laws)))
        return wall

    def pair(op, round_) -> float:
        if round_ % 2:
            wall = run_traced(op)
            plain[op.name].append(runner.run(op))
        else:
            plain[op.name].append(runner.run(op))
            wall = run_traced(op)
        return wall + plain[op.name][-1]

    rounds = runner.closed_loop(args.seconds, step=pair)
    metrics: dict = {}
    mismatches = []
    for name, samples in runs.items():
        for key, value in samples[0][1].items():
            values = [m[key] for _, m in samples]
            if is_count(key):
                if any(v != value for v in values):
                    mismatches.append(f"{name}: {key} differs between its traced runs")
            else:
                value = statistics.median(values)
            metrics[key] = metrics.get(key, 0) + value
    tracing.derive(metrics)
    traced_wall = sum(statistics.median(w for w, _ in s) for s in runs.values())
    plain_wall = sum(statistics.median(s) for s in plain.values())
    metrics["trace_overhead_ratio"] = traced_wall / plain_wall - 1.0
    shares = {s: metrics[s + ".self_s"] / traced_wall for s in runner.workload.focus}
    detail = {"rounds": rounds, "traced_runs": {n: len(s) for n, s in runs.items()},
              "traced_pass_s": traced_wall, "untraced_pass_s": plain_wall,
              "focus_share": sum(shares.values()), "focus_shares": shares,
              "spans": tracer.span_count()}
    return metrics, detail, mismatches


def check_counts(args, runner, metrics: dict, mismatches: list, version: str) -> None:
    """The exact-count check, counted as one more operation: every count
    must repeat across the traced runs of an operation and match the first
    traced run of the same sources, benchmark and workload in this checkout
    (any seed)."""
    path = OUT / "counts.json"
    try:
        known = json.loads(path.read_text())
    except (OSError, ValueError):
        known = {}
    key = f"{args.workload}|{version}"
    counts = {k: v for k, v in metrics.items() if is_count(k)}
    if key in known:
        mismatches += [f"{name}={value} differs from an earlier run ({known[key].get(name)})"
                       for name, value in counts.items() if known[key].get(name) != value]
    elif not mismatches:
        known[key] = counts
        path.write_text(json.dumps(known, indent=1, sort_keys=True))
    runner.attempted += 1
    if mismatches:
        runner.failures.append("count check: " + "; ".join(mismatches))


def declared_metrics(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args)
            return 0
        return run(args)
    except Refused as exc:
        print(f"perfbench: refused: {exc}", file=sys.stderr)
        return 2


def run(args) -> int:
    dperm = import_dperm()
    declared = declared_metrics(args.trace)
    reference = json.loads((HERE / "reference.json").read_text())["digests"]
    OUT.mkdir(exist_ok=True)
    directory = tempfile.mkdtemp(dir=OUT)
    try:
        workload = workloads.build(args.workload, args.seed, directory)
        env = environment(dperm)
        runner = Runner(workload, reference if args.seed == workloads.REFERENCE_SEED else None)
        first = noise_reading()
        with tracing.count_audit_pairs(workload.pairs):
            if args.trace:
                tracer = tracing.Tracer()
                metrics, detail, mismatches = traced(args, runner, tracer)
            else:
                metrics, detail = untraced(args, runner)
        last = noise_reading()
        if args.trace:
            check_counts(args, runner, metrics, mismatches,
                         env["src_sha256"] + "|" + env["bench_sha256"])
            tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    missing = sorted(set(declared) - set(metrics))
    if missing:
        raise SystemExit(f"perfbench: metrics not measured: {missing}")
    failed = len(runner.failures)
    detail.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "environment": env,
        "noise": noise_block(first, last), "failures": runner.failures,
        "error_rate": failed / runner.attempted, "digests": runner.digests,
        "all_metrics": metrics,
    })
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }
    record = {"result": result, "info": detail}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    for name, unit in declared.items():
        print(f"{args.workload} {name} = {metrics[name]:.6g} {unit}")
    for name, value in detail.get("named", {}).items():
        print(f"{args.workload} {name} = {value:.6g} (informational)")
    if "focus_share" in detail:
        print(f"{args.workload} focus_share = {detail['focus_share']:.6g} (informational)")
    print(f"{args.workload} error_rate = {detail['error_rate']:.6g} "
          f"({failed} of {runner.attempted} operations failed)")
    print(json.dumps({"info": detail}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
