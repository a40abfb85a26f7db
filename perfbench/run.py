"""Benchmark of the `multiphase` library and CLI.

    python3 perfbench/run.py --workload scan-mzi4 --seed 1 --seconds 10 --trace 0

Runs one closed-loop workload with a single client in this process, on
one CPU.  With ``--trace 0`` it times ops for ``--seconds`` seconds of op
time and reports the end-to-end metrics; with ``--trace 1`` it runs the workload's fixed
traced ops and reports per-layer figures per op.  The last line of
standard output is the result as JSON; the line before it is the run
record (machine, settings, blocks and tail percentile, reference kernel).
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One BLAS thread, set before numpy loads and inherited by the set-up
# interpreters: the ops multiply matrices of dimension 35 (70 in design-m5),
# and on a machine of a few cores BLAS workers only compete with the
# program's own threads.
os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                 "MKL_NUM_THREADS"), "1"))

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MIN_OPS = 20          # timed ops a run makes at least, so the tail rule applies
SETUP_REPEATS = 9     # fresh interpreters timed for setup_s, after one warm-up
TAIL_BEYOND = 10      # samples that must lie beyond the reported tail latency
BLOCK_S = 4.0         # seconds of op time per tail block; see run_figures
BLOCK_OPS = 40        # ops per tail block, at least

UNITS = {"ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_tail": "ms"}

SETUP_TEMPLATE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, {src!r})
{build}
print(repr(time.perf_counter() - start))
"""


def tail(latencies, beyond=TAIL_BEYOND):
    """Latency at the highest percentile with at least ``beyond`` samples above it.

    Returns (value, percentile, sample count).
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= beyond:
        raise ValueError(f"{n} samples leave fewer than {beyond} beyond any percentile")
    rank = n - beyond
    return ordered[rank - 1], 100.0 * rank / n, n


def run_figures(latencies, block_s=BLOCK_S, block_ops=BLOCK_OPS):
    """End-to-end time figures of a run's completed ops.

    ``ops_per_s`` and ``op_ms_p50`` are whole-run figures: the machine
    switches between a fast and a slow state in phases of seconds, and a
    whole run mixes the two in steadier shares than any shorter window.
    ``op_ms_tail`` is the median of the tails of consecutive blocks of about
    ``block_s`` seconds of op time and at least ``block_ops`` ops, so that
    the slowest phase of a run does not set it.
    Returns (metrics, tail percentile, ops in the smallest block, blocks).
    """
    latencies = np.asarray(latencies)
    count = max(1, min(int(latencies.sum() // block_s), len(latencies) // block_ops))
    blocks = np.array_split(latencies, count)
    tails = [tail(b) for b in blocks]
    metrics = {
        "ops_per_s": len(latencies) / latencies.sum(),
        "op_ms_p50": 1e3 * float(np.median(latencies)),
        "op_ms_tail": 1e3 * statistics.median(t[0] for t in tails),
    }
    return (metrics, statistics.median(t[1] for t in tails), min(len(b) for b in blocks),
            len(blocks))


def reference_kernel_s(repeats=5, steps=5000):
    """Median time of a fixed numpy mat-vec loop; a machine-phase diagnostic only."""
    a = np.random.default_rng(0).standard_normal((64, 64)) / 8.0
    times = []
    for _ in range(repeats):
        v = np.ones(64)
        start = time.perf_counter()
        for _ in range(steps):
            v = a @ v
            v /= np.linalg.norm(v)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def machine_record() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "machine": platform.machine(),
    }


def setup_sample(workload) -> float:
    """Seconds from the start of import to built models, in a fresh interpreter."""
    code = SETUP_TEMPLATE.format(src=str(SRC), build=workload.build_source)
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


class Counter:
    """Ops attempted and failed.

    An op fails when it raises or its output fails its gate.  A
    ``LimitNonConvergentError`` is the library's documented refusal
    (numerical non-convergence): the op fails but returned nothing wrong.
    Any other exception, or a gate rejection, is a wrong result and makes
    the run incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.refused = 0
        self.wrong = 0
        self.errors = []

    @property
    def failed(self) -> int:
        return self.refused + self.wrong

    def run(self, workload, inputs, timed_op):
        """One op and its gate; returns the op latency, or None if it failed."""
        self.attempted += 1
        try:
            seconds, output = timed_op(inputs)
            workload.check(inputs, output)
        except workload.mp.LimitNonConvergentError as exc:
            self.refused += 1
            self.note(exc)
            return None
        except Exception as exc:          # a wrong result is counted, not fatal
            self.wrong += 1
            self.note(exc)
            return None
        return seconds

    def note(self, exc):
        if len(self.errors) < 5:
            self.errors.append(f"{type(exc).__name__}: {exc}")


def plain_op(workload):
    def timed(inputs):
        start = time.perf_counter()
        output = workload.op(inputs)
        return time.perf_counter() - start, output
    return timed


def timed_run(workload, seconds, counter) -> dict:
    """Closed loop for ``seconds`` of op time.

    The set-up samples are spread over the loop, between ops, so that
    their median does not hang on one phase of the machine's speed.
    """
    setup_sample(workload)                  # warm-up: writes the bytecode caches
    workload.setup()
    op = plain_op(workload)
    counter.run(workload, workload.draw(), op)          # warm-up, untimed
    latencies, setup, busy, attempts = [], [], 0.0, 0
    while busy < seconds or attempts < MIN_OPS:
        if len(setup) < SETUP_REPEATS and busy >= len(setup) * seconds / SETUP_REPEATS:
            setup.append(setup_sample(workload))
        attempts += 1
        inputs = workload.draw()
        start = time.perf_counter()
        latency = counter.run(workload, inputs, op)
        if latency is None:
            busy += time.perf_counter() - start
        else:
            busy += latency
            latencies.append(latency)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_sample(workload))
    if len(latencies) <= TAIL_BEYOND:
        raise RuntimeError(f"only {len(latencies)} ops completed; the tail rule needs "
                           f"{TAIL_BEYOND + 1}")
    figures, percentile, count, blocks = run_figures(latencies)
    metrics = {name: (value, UNITS[name]) for name, value in figures.items()}
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    metrics["setup_s"] = (statistics.median(setup), "s")
    info = {"timed_ops": len(latencies), "tail_percentile": percentile,
            "block_ops": count, "blocks": blocks, "busy_s": busy,
            "setup_samples_s": setup}
    return metrics, info


def rate(latencies) -> float:
    """Completed ops per second of op time; failed ops (None) are skipped."""
    done = [x for x in latencies if x is not None]
    return len(done) / sum(done) if done else 0.0


def traced_setup(workload) -> dict:
    """Set the workload up under a tracer of its own; lift figures of set-up."""
    from tracing import Tracer, install, layer_metrics

    tracer = install(Tracer())
    try:
        with tracer.in_op(0):
            workload.setup()
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer.spans, 1)
    return {f"setup.{name}": metrics[name]
            for name in ("fock.lift_unitary.ms", "fock.lift_unitary.entries")}


def traced_run(workload, counter) -> dict:
    from tracing import Tracer, install, layer_metrics

    setup_metrics = traced_setup(workload)
    inputs = [workload.draw() for _ in range(workload.trace_ops)]
    op = plain_op(workload)
    counter.run(workload, inputs[0], op)                # warm-up, untimed
    untraced = [counter.run(workload, x, op) for x in inputs]

    tracer = install(Tracer())

    def traced_op(index):
        def timed(x):
            with tracer.in_op(index):
                return op(x)
        return timed

    try:
        traced = [counter.run(workload, x, traced_op(i)) for i, x in enumerate(inputs)]
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer.spans, len(inputs))
    untraced_rate, traced_rate = rate(untraced), rate(traced)
    metrics["trace.untraced_ops_per_s"] = untraced_rate
    metrics["trace.ops_per_s"] = traced_rate
    metrics["trace.overhead"] = untraced_rate / traced_rate if traced_rate else 0.0
    metrics.update(setup_metrics)
    return metrics, {"traced_ops": len(inputs), "spans": len(tracer.spans)}


def per_layer_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (SRC / "multiphase" / "__init__.py").is_file():
        print(f"no multiphase sources under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    # One CPU for the whole run.  On a shared host of a few vCPUs, a process
    # that moves between them meets each one's slow phases, and the scan pool
    # threads, one per vCPU, wait for each other's vCPU at every GIL handoff.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_record(),
              "kernel_s_before": reference_kernel_s()}
    counter = Counter()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as workdir:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            units = per_layer_units()
            values, info = traced_run(workload, counter)
            missing = set(units) ^ set(values)
            if missing:
                raise RuntimeError(f"per-layer metrics do not match BENCHMARK.json: "
                                   f"{sorted(missing)}")
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in units.items()}
        else:
            values, info = timed_run(workload, args.seconds, counter)
            metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
    import multiphase
    if not Path(multiphase.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"multiphase was imported from {multiphase.__file__}")
    record.update(info)
    record["kernel_s_after"] = reference_kernel_s()
    record["refused"] = counter.refused
    record["errors"] = counter.errors
    print(json.dumps({"record": record}))
    if counter.attempted == counter.failed:
        print("no op completed", file=sys.stderr)
        return 1
    print(json.dumps({"correct": counter.wrong == 0, "attempted": counter.attempted,
                      "failed": counter.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
