"""Tests of the benchmark's own code: tail rule, self time, gates, trace counts.

    python3 -m pytest perfbench/tests -q
"""

import csv
import dataclasses
import math
import sys
import time
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402
from workloads import WORKLOADS, GateError, near_non_convergent  # noqa: E402


def test_tail_leaves_ten_samples_beyond():
    latencies = list(np.random.default_rng(0).permutation(np.arange(1.0, 101.0)))
    value, percentile, count = run.tail(latencies)
    assert (value, percentile, count) == (90.0, 90.0, 100)
    assert sum(x > value for x in latencies) == 10

    value, percentile, count = run.tail(list(range(11)))
    assert (value, count) == (0, 11)
    assert percentile == pytest.approx(100.0 / 11)

    with pytest.raises(ValueError):
        run.tail(list(range(10)))


def test_run_figures_are_whole_run_with_a_median_block_tail():
    latencies = np.random.default_rng(1).exponential(size=1250)
    latencies[:416] += 1.0                              # a slow phase covers block 0
    total = latencies.sum()
    figures, percentile, count, blocks = run.run_figures(latencies, block_s=total / 3.5)
    assert blocks == 3 and count == 416
    chunks = np.array_split(latencies, 3)
    assert figures["ops_per_s"] == pytest.approx(1250 / total)
    assert figures["op_ms_p50"] == pytest.approx(1e3 * np.median(latencies))
    assert figures["op_ms_tail"] == pytest.approx(
        1e3 * np.median([run.tail(c)[0] for c in chunks]))
    assert percentile == pytest.approx(100.0 * (417 - 10) / 417)

    # Blocks keep at least block_ops ops, and a short run is one block.
    assert run.run_figures(latencies, block_s=1e-9, block_ops=500)[3] == 2
    figures, percentile, count, blocks = run.run_figures(latencies[:700], block_s=total)
    assert blocks == 1 and (percentile, count) == run.tail(latencies[:700])[1:]
    assert figures["op_ms_tail"] == pytest.approx(1e3 * run.tail(latencies[:700])[0])


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        Span("cmd_scan", 0.0, 10.0, None, 1, 0),
        Span("fisher_pair", 1.0, 4.0, 0, 2, 0),     # pool thread 2
        Span("fisher_pair", 3.0, 6.0, 0, 3, 0),     # pool thread 3, overlapping
        Span("fisher_pair", 8.0, 9.0, 0, 2, 0),
        Span("qfim", 1.5, 2.0, 1, 2, 0),
    ]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 6.0)      # the sum of children would give 3
    assert own[1] == pytest.approx(3.0 - 0.5)
    assert own[4] == pytest.approx(0.5)


def test_pool_thread_spans_nest_under_the_op_threads_open_span():
    module = types.ModuleType("layer")

    def work(x):
        time.sleep(0.05)
        return x

    def scan():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(module.work, range(4)))

    module.work, module.scan = work, scan
    tracer = tracing.Tracer()
    tracer.wrap_function([module], work, "work")
    tracer.wrap_function([module], scan, "scan")
    try:
        with tracer.in_op(0):
            assert module.scan() == [0, 1, 2, 3]
    finally:
        tracer.uninstall()
    assert module.work is work and module.scan is scan

    spans = tracer.spans
    parent = [s.name for s in spans].index("scan")
    children = [s for s in spans if s.name == "work"]
    assert len(children) == 4
    assert all(s.parent == parent and s.thread != spans[parent].thread for s in children)
    own = tracing.self_times(spans)[parent]
    covered = tracing.union_length([(s.start, s.end) for s in children],
                                   spans[parent].start, spans[parent].end)
    assert own == pytest.approx(spans[parent].duration - covered)
    assert own >= 0.0
    assert covered < sum(s.duration for s in children)   # the two threads overlapped


def test_spans_are_recorded_only_inside_an_op():
    module = types.ModuleType("layer")
    module.f = lambda: 1
    original = module.f
    tracer = tracing.Tracer()
    tracer.wrap_function([module], original, "f")
    module.f()
    with tracer.in_op(0):
        module.f()
    module.f()
    tracer.uninstall()
    assert [s.name for s in tracer.spans] == ["op", "f"]


def test_counter_tells_refusals_from_wrong_results():
    import multiphase

    class Stub:
        mp = multiphase

        def check(self, inputs, output):
            if output == "bad":
                raise GateError("bad output")

    def op(x):
        if x == "refuse":
            raise multiphase.LimitNonConvergentError("no limit")
        if x == "crash":
            raise TypeError("crash")
        return 0.5, x

    counter = run.Counter()
    latencies = [counter.run(Stub(), x, op) for x in ("ok", "refuse", "crash", "bad")]
    assert latencies == [0.5, None, None, None]
    assert (counter.attempted, counter.refused, counter.wrong, counter.failed) == (4, 1, 2, 3)


@pytest.fixture
def workload(request, tmp_path):
    w = WORKLOADS[request.param](3, tmp_path)
    w.setup()
    return w


def rewrite_csv(path, edit):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    edit(rows[0], rows[1:])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def scale_f(header, rows):
    for row in rows:
        for key in ("f11", "f12", "f22"):
            row[header.index(key)] = repr(1.01 * float(row[header.index(key)]))


def flip_verdict(header, rows):
    rows[1][header.index("verdict")] = "Saturates"      # cell (0, 1) is off the locus


@pytest.mark.parametrize("workload", ["scan-mzi4"], indirect=True)
@pytest.mark.parametrize("edit, message", [(scale_f, "finite differences"),
                                           (flip_verdict, "verdict")])
def test_scan_gate_rejects_a_perturbed_csv(workload, edit, message):
    offset = workload.draw()
    output = workload.op(offset)
    workload.check(offset, output)
    rewrite_csv(workload.out, edit)
    with pytest.raises(GateError, match=message):
        workload.check(offset, output)


@pytest.mark.parametrize("workload", ["scan-mzi4"], indirect=True)
def test_scan_non_convergence_is_a_refusal(workload):
    # A diagonal cell 0.2 mrad below pi/2, where the default limit policy
    # does not converge.
    with pytest.raises(workload.mp.LimitNonConvergentError):
        workload.op(math.pi / 2 - 2e-4)


# Locus points where the default limit policy does not converge: one in each
# band below pi/2 and the band below pi.
NON_CONVERGENT = [math.pi / 2 - 7e-4, math.pi / 2 - 3.5e-4, math.pi / 2 - 1.8e-4,
                  math.pi - 1.35e-4]


@pytest.mark.parametrize("workload", ["saturation-locus"], indirect=True)
def test_draws_keep_out_of_the_non_convergent_bands(workload, tmp_path):
    for t in NON_CONVERGENT:
        with pytest.raises(workload.mp.LimitNonConvergentError):
            workload.mp.fisher_pair(workload.model, np.array([t, t]), workload.fock)
        assert near_non_convergent(t) and near_non_convergent(t + math.pi)
    assert not any(near_non_convergent(workload.draw()) for _ in range(2000))
    scan = WORKLOADS["scan-mzi4"](3, tmp_path)
    assert not any(near_non_convergent(t) for _ in range(2000)
                   for t in scan.diagonal(scan.draw()))
    assert any(near_non_convergent(t) for t in scan.diagonal(math.pi / 2 - 2e-4))


@pytest.mark.parametrize("workload", ["saturation-locus"], indirect=True)
def test_locus_gate_rejects_a_flipped_verdict(workload):
    t = workload.draw()
    reports, built = workload.op(t)
    workload.check(t, (reports, built))
    reports[2].verdict = workload.mp.DOES_NOT_SATURATE
    with pytest.raises(GateError, match="verdicts"):
        workload.check(t, (reports, built))


@pytest.mark.parametrize("workload", ["design-m5"], indirect=True)
def test_design_gate_rejects_perturbed_outputs(workload):
    inputs = workload.draw()
    model, built, report = workload.op(inputs)
    workload.check(inputs, (model, built, report))

    pair = built.verification
    scaled = dataclasses.replace(built, verification=dataclasses.replace(
        pair, qfim=1.01 * pair.qfim))
    with pytest.raises(GateError, match="4 Cov"):
        workload.check(inputs, (model, scaled, report))

    flipped = dataclasses.replace(report, verdict=workload.mp.DOES_NOT_SATURATE)
    with pytest.raises(GateError, match="verdict"):
        workload.check(inputs, (model, built, flipped))

    t, s = inputs[2][0]
    model.lifted_splitter[t, s] *= 1.01
    with pytest.raises(GateError, match="lifted entry"):
        workload.check(inputs, (model, built, report))


def traced(name, seed, ops, workdir):
    w = WORKLOADS[name](seed, workdir)
    w.setup()
    inputs = [w.draw() for _ in range(ops)]
    tracer = tracing.install(tracing.Tracer())
    try:
        for index, x in enumerate(inputs):
            with tracer.in_op(index):
                w.op(x)
    finally:
        tracer.uninstall()
    return tracer.spans, tracing.layer_metrics(tracer.spans, ops)


COUNTS = ["interferometer.derivative_bundle.calls", "linalg.permanent.calls",
          "fock.lift_unitary.entries", "fisher.limit_evaluated",
          "fisher.limit.bundle_calls", "saturation.fallback.bundle_calls",
          "fisher.fisher_pair.calls", "linalg.hermitian_eigenvalues.calls"]


@pytest.mark.parametrize("name, ops", [("scan-mzi4", 1), ("saturation-locus", 4),
                                       ("design-m5", 1)])
def test_layer_counts_repeat_for_a_fixed_seed(name, ops, tmp_path):
    _, first = traced(name, 5, ops, tmp_path)
    _, second = traced(name, 5, ops, tmp_path)
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    assert first["interferometer.derivative_bundle.calls"] > 0


def test_traced_counts_confirm_each_workloads_role(tmp_path):
    spans, scan = traced("scan-mzi4", 7, 1, tmp_path)
    assert scan["fock.lift_unitary.calls"] == 0
    assert scan["fisher.fisher_pair.calls"] == 49
    assert scan["fisher.limit.pairs"] == 7
    for index, span in enumerate(spans):
        if span.name == "fisher.fisher_pair" and any(
                s.parent is not None and spans[s.parent].name == "fisher.fim_from_bundle"
                and spans[spans[s.parent].parent] is span for s in spans):
            bundle = next(s for s in spans if s.parent == index
                          and s.name == "interferometer.derivative_bundle")
            theta = np.frombuffer(bundle.attrs["theta"])
            assert theta[0] == theta[1]                  # limits only on the diagonal

    spans, locus = traced("saturation-locus", 7, 5, tmp_path)
    assert locus["fock.lift_unitary.calls"] == 0
    for op in range(5):
        limit = [s for s in spans if s.op == op and s.name == "interferometer.derivative_bundle"
                 and spans[s.parent].name == "fisher.fim_from_bundle"]
        assert limit

    _, design = traced("design-m5", 7, 1, tmp_path)
    assert design["fock.lift_unitary.calls"] == 1
    assert design["fock.lift_unitary.entries"] == 70 ** 2
    assert design["linalg.permanent.calls"] == 70 ** 2
