"""The passes of one benchmark run, in a fresh process; prints one JSON line.

Usage: ``python3 perfbench/passproc.py '<json request>'`` with ``src`` on
``PYTHONPATH``. The request names the workload, the benchmark seed, the mode,
the measuring time, the worker count and a temporary directory inside the
checkout. Modes:

* ``setup``: generate the inputs and report the set-up time only.
* ``measure``: repeat untraced passes until their time reaches ``seconds``,
  with a calibration kernel run before the first pass and after each one.
* ``trace``: alternate an untraced and a traced pass, both with one worker,
  until their time reaches ``seconds``; with more than one worker, end with
  one untraced pass on all of them.

Set-up time runs from the top of this file, before ``numpy`` and
``sparse_ou`` are imported, to the end of input generation. Each pass is
timed on its own; CPU time comes from ``getrusage`` for this process and its
reaped children (the pool workers of ``study``), peak memory from their
``ru_maxrss`` at the end of the run.
"""

import time

_START = time.perf_counter()

import concurrent.futures  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def _cpu():
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _blas():
    """BLAS name, version and thread count of the loaded numpy."""
    import numpy as np

    config = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info = {"blas": config.get("name"), "blas_version": config.get("version"),
            "blas_threads": None}
    with open("/proc/self/maps") as handle:
        libraries = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    for path in sorted(libraries):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                function.argtypes = []
                info["blas_threads"] = function()
                return info
    return info


def _environment():
    import numpy as np
    import scipy

    info = {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}
    info.update(_blas())
    return info


def interpreted_kernel():
    """Pool adjacent violators over 2500 values in Python, plus small numpy calls."""
    import numpy as np

    generator = np.random.default_rng(0)
    small = generator.standard_normal(2500)
    matrix = generator.standard_normal((50, 50))
    values = small.tolist()
    for _ in range(240):
        sums, counts = [], []
        for value in values:
            total, size = value, 1
            while sums and total * counts[-1] >= sums[-1] * size:
                total += sums.pop()
                size += counts.pop()
            sums.append(total)
            counts.append(size)
    for _ in range(600):
        np.sort(small)
        matrix @ matrix


def streaming_kernel():
    """Streaming arithmetic over a 128 MB array, beyond the last-level cache.

    The array is freed before the kernel returns, so it stays below the
    peak memory of the passes it brackets.
    """
    import numpy as np

    array = np.ones(16_000_000)
    for _ in range(8):
        np.multiply(array, 1.0001, out=array)
    return float(array.sum())


class Calibration:
    """Fixed work that does not touch ``sparse_ou``, to time passes against.

    The host this runs on changes speed by tens of percent over seconds, as
    other tenants load it. Each pass is divided by the mean time of the
    kernel runs just before and after it, which removes most of that change
    when the kernel is limited by what limits the pass: the interpreter for
    ``study`` and ``wide_fit``, memory bandwidth for ``concentration``. With
    several workers the kernel runs once on each, in spawned processes.
    """

    def __init__(self, kernel, workers):
        self.kernel = kernel
        self.workers = workers
        self.pool = None
        if workers > 1:
            context = multiprocessing.get_context("spawn")
            self.pool = concurrent.futures.ProcessPoolExecutor(workers - 1, mp_context=context)
            self.run()

    def run(self):
        begin = time.perf_counter()
        others = [] if self.pool is None else [
            self.pool.submit(self.kernel) for _ in range(self.workers - 1)]
        self.kernel()
        for future in others:
            future.result()
        return time.perf_counter() - begin

    def close(self):
        if self.pool is not None:
            self.pool.shutdown()


class Runner:
    """Runs and checks passes of one workload on one set of inputs."""

    def __init__(self, workload, inputs, reference):
        self.workload = workload
        self.inputs = inputs
        self.reference = reference

    def run(self, workers, trace=False):
        import tracing

        tracer = tracing.Tracer() if trace else tracing.NullTracer()
        patch = tracing.patched(tracer) if trace else contextlib.nullcontext(set())
        gc.collect()
        with patch as missing:
            cpu_before = _cpu()
            begin = time.perf_counter()
            outputs = self.workload.run(self.inputs, workers, tracer)
            wall = time.perf_counter() - begin
            cpu = _cpu() - cpu_before
        summary = self.workload.summary(self.inputs, outputs)
        attempted, failures, gap = self.workload.check(summary, self.reference)
        record = {"wall_s": wall, "cpu_s": cpu, "work": self.workload.work(summary),
                  "attempted": attempted, "failures": failures, "reference_gap": gap,
                  "quality": self.workload.quality(summary)}
        if trace:
            metrics = tracing.layer_metrics(tracer.spans, wall, missing)
            record["layers"] = {name: value for name, (value, unit) in metrics.items()}
            record["units"] = {name: unit for name, (value, unit) in metrics.items()}
            record["missing_patch_points"] = sorted(missing)
            # Convergence of each sweep's chosen fit is visible only through spans.
            sweeps = [span[4] for span in tracer.spans if span[0] == "model_select.cv"]
            record["attempted"] += len(sweeps)
            record["failures"] += ["%s sweep at d=%d chose a non-converged fit" % (
                attrs["penalty"], attrs["dim"]) for attrs in sweeps if not attrs["converged"]]
        return record


def main():
    request = json.loads(sys.argv[1])
    import sparse_ou
    import workloads

    src = os.path.join(request["root"], "src")
    if os.path.commonpath([os.path.abspath(sparse_ou.__file__), src]) != src:
        raise SystemExit("sparse_ou was imported from %s, not from %s" % (sparse_ou.__file__, src))
    workload = workloads.WORKLOADS[request["workload"]]
    member = request["seed"] % workloads.MEMBERS
    inputs = workload.setup(member, request["tmp_dir"])
    report = {"setup_s": time.perf_counter() - _START, "member": member,
              "tolerance": workloads.RTOL}
    if request["mode"] == "setup":
        print(json.dumps(report))
        return

    with open(os.path.join(HERE, "reference.json"), encoding="ascii") as handle:
        reference = json.load(handle)[request["workload"]][member]
    runner = Runner(workload, inputs, reference)
    workers = request["workers"]
    passes, traced, parallel = [], [], []
    if request["mode"] == "measure":
        kernel = {"interpreted": interpreted_kernel, "streaming": streaming_kernel}
        calibration = Calibration(kernel[workload.calibration], workers)
        before = calibration.run()
    while not passes or sum(p["wall_s"] for p in passes + traced) < request["seconds"]:
        if request["mode"] == "trace":
            passes.append(runner.run(1))
            traced.append(runner.run(1, trace=True))
        else:
            passes.append(runner.run(workers))
            after = calibration.run()
            passes[-1]["calibration_s"] = 0.5 * (before + after)
            before = after
    if request["mode"] == "measure":
        calibration.close()
    if request["mode"] == "trace" and workers > 1:
        parallel.append(runner.run(workers))
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    report.update({
        "passes": passes, "traced": traced, "parallel": parallel,
        # ru_maxrss is in KiB on Linux; CHILDREN holds the largest reaped worker.
        "peak_rss_mb": (own.ru_maxrss + children.ru_maxrss) * 1024 / 1e6,
        "environment": _environment(),
    })
    print(json.dumps(report))


if __name__ == "__main__":
    main()
