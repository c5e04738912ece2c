"""Write ``reference.json``: the output digest of every operation at the
reference seed, taken from the sources in this checkout.

    python3 perfbench/capture.py

Run it only at a commit whose outputs are the accepted ones; the benchmark
then counts any operation whose output differs as failed.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

import run
import workloads


def main() -> int:
    dperm = run.import_dperm()
    run.OUT.mkdir(exist_ok=True)
    digests = {}
    for name in workloads.NAMES:
        directory = tempfile.mkdtemp(dir=run.OUT)
        try:
            workload = workloads.build(name, workloads.REFERENCE_SEED, directory)
            runner = run.Runner(workload, reference=None)
            runner.closed_loop(0)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        if runner.failures:
            print("\n".join(runner.failures), file=sys.stderr)
            return 1
        for op, digest in runner.digests.items():
            digests[f"{name}/{op}"] = digest
        print(f"{name}: {len(runner.digests)} digests", flush=True)
    env = run.environment(dperm)
    record = {
        "seed": workloads.REFERENCE_SEED,
        "src_sha256": env["src_sha256"],
        "git_rev": env["git_rev"],
        "digests": digests,
    }
    (run.HERE / "reference.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
