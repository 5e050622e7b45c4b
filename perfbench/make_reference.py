"""Record the reference summaries that the benchmark checks outputs against.

Usage, from the root of a checkout: ``PYTHONPATH=src python3
perfbench/make_reference.py``. It runs every workload once on every input
member and writes ``perfbench/reference.json``. Run it only at the commit
whose answers are the reference (df98f17, where this benchmark was
defined); later commits are checked against that file, not against
themselves.
"""

import json
import os
import shutil
import sys

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    workers = len(os.sched_getaffinity(0))
    tmp_dir = os.path.join(os.path.dirname(HERE), ".perfbench_tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    reference = {}
    try:
        for name, workload in workloads.WORKLOADS.items():
            reference[name] = []
            for member in range(workloads.MEMBERS):
                inputs = workload.setup(member, tmp_dir)
                outputs = workload.run(inputs, workers, tracing.NullTracer())
                reference[name].append(workload.summary(inputs, outputs))
                print("%s member %d done" % (name, member), file=sys.stderr)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    with open(os.path.join(HERE, "reference.json"), "w", encoding="ascii") as handle:
        json.dump(reference, handle, separators=(",", ":"))
        handle.write("\n")


if __name__ == "__main__":
    main()
