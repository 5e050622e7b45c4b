"""Benchmark of sparse-ou: end-to-end metrics per workload, or per-layer spans.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload study --seed 3 --seconds 25 --trace 0

``--workload`` is ``study``, ``concentration``, ``wide_fit`` or ``all``.
Each workload runs in a fresh process (``passproc.py``) with ``src`` on the
path; its passes repeat until their measured time reaches ``--seconds``.
Set-up is timed in that process and in further fresh processes that only
set up, and reported as the median of ``SETUP_SAMPLES``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` as medians
over the passes; the ``_cal`` metrics divide each pass by a calibration kernel
timed next to it (see ``passproc.Calibration``). ``--trace 1`` alternates an untraced and a traced pass, both
with one worker (spans recorded in forked workers would be lost), and
reports the per-layer metrics; the difference between the two walls is the
tracing overhead. On ``study`` it also runs one pass with every worker to
measure the parallel efficiency.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
show every metric with its unit and the environment.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("study", "concentration", "wide_fit")
SETUP_SAMPLES = 7
SHOWN_FAILURES = 10
# A run must end within 180 seconds; a process still running after this
# budget is killed and the run fails.
DEADLINE_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "work_per_s": "1/s", "wall_cal": "cal",
                    "cpu_cal": "cal", "work_per_cal": "1/cal", "peak_rss_mb": "MB",
                    "setup_s": "s", "ok_rate": "ratio"}
WORK_UNITS = {"study": "cell", "concentration": "path-step", "wide_fit": "grid level"}


class BenchError(Exception):
    pass


def _spawn(request, deadline):
    """Run one passproc process and return its JSON report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if part)
    command = [sys.executable, os.path.join(HERE, "passproc.py"), json.dumps(request)]
    # A process group of its own lets a timeout stop the pool workers as well.
    process = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        stdout, _ = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise BenchError("%s pass did not finish before the deadline" % request["workload"])
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
    if process.returncode != 0:
        raise BenchError("%s pass exited with %d" % (request["workload"], process.returncode))
    return json.loads(stdout.strip().splitlines()[-1])


def _src_lines():
    total = 0
    for folder, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as handle:
                    total += handle.read().count(b"\n")
    return total


def _git_describe():
    # The ceiling keeps git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "unavailable (not a git checkout)"


def run_workload(name, seed, seconds, trace, deadline):
    """Return ``(metrics, units, attempted, failures, notes)`` for one workload."""
    nproc = len(os.sched_getaffinity(0))
    workers = nproc if name == "study" else 1
    tmp_dir = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    base = {"root": ROOT, "workload": name, "seed": seed, "tmp_dir": tmp_dir,
            "seconds": seconds, "workers": workers}
    try:
        run = _spawn(dict(base, mode="trace" if trace else "measure"), deadline)
        setups = [run["setup_s"]]
        while len(setups) < SETUP_SAMPLES:
            setups.append(_spawn(dict(base, mode="setup"), deadline)["setup_s"])
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)

    passes, traced = run["passes"], run["traced"]
    checked = passes + traced + run["parallel"]
    attempted = sum(p["attempted"] for p in checked)
    failures = [failure for p in checked for failure in p["failures"]]
    environment = dict(run["environment"], nproc=nproc, workers=workers,
                       git_describe=_git_describe(), src_lines=_src_lines(),
                       input_member=run["member"])
    notes = {"environment": environment, "quality": passes[0]["quality"],
             "error_rate": len(failures) / attempted,
             "reference_gap": max(p["reference_gap"] for p in checked),
             "tolerance": run["tolerance"],
             "passes": len(checked), "setup_samples": len(setups)}
    if not trace:
        metrics = {
            "wall_s": statistics.median([p["wall_s"] for p in passes]),
            "cpu_s": statistics.median([p["cpu_s"] for p in passes]),
            "work_per_s": statistics.median([p["work"] / p["wall_s"] for p in passes]),
            "wall_cal": statistics.median([p["wall_s"] / p["calibration_s"] for p in passes]),
            "cpu_cal": statistics.median([p["cpu_s"] / p["calibration_s"] for p in passes]),
            "work_per_cal": statistics.median([p["work"] * p["calibration_s"] / p["wall_s"] for p in passes]),
            "peak_rss_mb": run["peak_rss_mb"],
            "setup_s": statistics.median(setups),
            "ok_rate": 1.0 - len(failures) / attempted,
        }
        notes["work"] = "%d %s per pass" % (passes[0]["work"], WORK_UNITS[name])
        return metrics, dict(END_TO_END_UNITS), attempted, failures, notes

    units = dict(traced[0]["units"])
    metrics = {key: statistics.median([p["layers"][key] for p in traced]) for key in units}
    serial_wall = statistics.median([p["wall_s"] for p in passes])
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - serial_wall
    units["trace.overhead_s"] = "s"
    # Serial time over the time the workers would need at perfect speed-up;
    # exactly 1 for the workloads that run in one process.
    parallel_wall = run["parallel"][0]["wall_s"] if run["parallel"] else serial_wall
    metrics["experiments.parallel_eff"] = serial_wall / (workers * parallel_wall)
    units["experiments.parallel_eff"] = "ratio"
    notes["missing_patch_points"] = traced[0]["missing_patch_points"]
    return metrics, units, attempted, failures, notes


def _declared(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return [entry["name"] for entry in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "sparse_ou", "__init__.py")):
        print("error: no sparse_ou sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    declared = _declared(args.trace)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            metrics, units, attempted, failures, notes = run_workload(
                name, args.seed, args.seconds, bool(args.trace), deadline)
        except BenchError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 1
        prefix = name + "." if args.workload == "all" else ""
        print("workload %s, seed %d, %s run: %d passes, %d set-up samples%s" % (
            name, args.seed, "traced" if args.trace else "untraced", notes["passes"],
            notes["setup_samples"], ", " + notes["work"] if "work" in notes else ""))
        for key in declared:
            if key in metrics:
                print("  %-40s %16.6g %s" % (key, metrics[key], units[key]))
                result["metrics"][prefix + key] = {"value": metrics[key], "unit": units[key]}
            else:
                print("  %-40s %16s (patch point gone: %s)" % (
                    key, "absent", ", ".join(notes["missing_patch_points"])))
        for key in sorted(set(metrics) - set(declared)):
            print("  %-40s %16.6g %s (reported, not gated)" % (key, metrics[key], units[key]))
        for key, value in sorted(notes["quality"].items()):
            print("  %-40s %16.6g ratio (reported, not gated)" % (key, value))
        print("  %-40s %16.6g ratio" % ("error_rate", notes["error_rate"]))
        print("  %-40s %16.3g (tolerance %g)" % (
            "largest relative gap to reference", notes["reference_gap"], notes["tolerance"]))
        for failure in failures[:SHOWN_FAILURES]:
            print("  failed: %s" % failure)
        if len(failures) > SHOWN_FAILURES:
            print("  ... and %d more failures" % (len(failures) - SHOWN_FAILURES))
        print("environment " + json.dumps(notes["environment"], sort_keys=True))
        result["attempted"] += attempted
        result["failed"] += len(failures)
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
