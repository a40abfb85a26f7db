"""In-memory spans around the calls into each `multiphase` layer.

The tracer wraps public callables from outside the library.  A function is
wrapped in every module namespace that binds it (``fisher_pair`` is bound
in ``fisher``, ``cli``, ``saturation`` and ``optimal``; ``hermitian_eigenvalues``
in ``fisher`` and ``linalg``), and a method is wrapped once, on its class.
Spans are recorded only while an op is open.  A span opened on a thread
with no open span of its own (a scan pool thread) takes as parent the
innermost span open on the op's thread, so pool work nests under
``cmd_scan``.
"""

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    op: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for wrapped callables; ``uninstall`` restores them."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._op_stack = []
        self._restore = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int | None:
        if self.op is None:
            return None
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._op_stack[-1] if self._op_stack else None
        span = Span(name, time.perf_counter(), float("nan"), parent,
                    threading.get_ident(), self.op)
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def close(self, index: int | None):
        if index is None:
            return
        self.spans[index].end = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def in_op(self, op: int):
        """Record spans, all tagged ``op``, while the block runs."""
        self.op = op
        self._op_stack = self._stack()
        index = self.open("op")
        try:
            yield
        finally:
            self.close(index)
            self.op = None

    def _wrapper(self, fn, name, note):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if index is not None and note is not None:
                note(tracer.spans[index].attrs, args, result)
            return result

        return traced

    def wrap_function(self, modules, fn, name, note=None):
        """Replace ``fn`` in every module of ``modules`` that binds it."""
        traced = self._wrapper(fn, name, note)
        bound = 0
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._restore.append((module, attr, fn))
                    setattr(module, attr, traced)
                    bound += 1
        if bound == 0:
            raise LookupError(f"{name}: no module binds {fn!r}")

    def wrap_method(self, cls, attr, name, note=None):
        fn = cls.__dict__[attr]
        self._restore.append((cls, attr, fn))
        setattr(cls, attr, self._wrapper(fn, name, note))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def install(tracer: Tracer) -> Tracer:
    """Wrap the public callables of every `multiphase` module."""
    import multiphase
    from multiphase import cli, fisher, fock, interferometer, linalg, optimal, saturation

    modules = [multiphase, cli, fisher, fock, interferometer, linalg, optimal, saturation]

    def note_entries(attrs, args, result):
        attrs["entries"] = args[1].dim ** 2

    def note_theta(attrs, args, result):
        attrs["theta"] = np.asarray(args[1], dtype=float).tobytes()

    def note_diagnostics(attrs, args, result):
        diagnostics = result.diagnostics
        attrs["singular"] = len(diagnostics.singular_outcomes)
        attrs["limit_evaluated"] = len(diagnostics.limit_evaluated)
        attrs["shortcut_zero"] = len(diagnostics.shortcut_zero)

    functions = [
        (fock.lift_unitary, "fock.lift_unitary", note_entries),
        (linalg.permanent, "linalg.permanent", None),
        (linalg.hermitian_eigenvalues, "linalg.hermitian_eigenvalues", None),
        (linalg.gram_schmidt_real_span, "linalg.gram_schmidt_real_span", None),
        (fisher.fisher_pair, "fisher.fisher_pair", note_diagnostics),
        (fisher.fim_from_bundle, "fisher.fim_from_bundle", None),
        (fisher.qfim, "fisher.qfim", None),
        (saturation.check_saturation, "saturation.check_saturation", None),
        (saturation.orthogonal_condition_residuals,
         "saturation.orthogonal_condition_residuals", None),
        (saturation.overlap_condition_residuals,
         "saturation.overlap_condition_residuals", None),
        (saturation.classify_projectors, "saturation.classify_projectors", None),
        (saturation.weak_commutativity_residual,
         "saturation.weak_commutativity_residual", None),
        (optimal.construct_orthogonal_optimal, "optimal.construct", None),
        (optimal.construct_nonorthogonal_optimal, "optimal.construct", None),
        (optimal.omega_frame, "optimal.omega_frame", None),
        (cli.cmd_scan, "cli.cmd_scan", None),
    ]
    try:
        for fn, name, note in functions:
            tracer.wrap_function(modules, fn, name, note)
        tracer.wrap_method(interferometer.Interferometer, "__init__",
                           "interferometer.model_build")
        tracer.wrap_method(interferometer.Interferometer, "derivative_bundle",
                           "interferometer.derivative_bundle", note_theta)
        tracer.wrap_method(fisher.ProjectorSet, "__init__", "fisher.projector_set")
    except BaseException:
        tracer.uninstall()
        raise
    return tracer


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list:
    """Each span's duration minus the union of its children's intervals."""
    children = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [span.duration - union_length(kids, span.start, span.end)
            for span, kids in zip(spans, children)]


def layer_metrics(spans, ops: int) -> dict:
    """Per-op figures for every layer; ``ops`` is the number of traced ops."""
    own = self_times(spans)
    by_name = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(index)

    def calls(name):
        return len(by_name.get(name, ()))

    def ms(name):
        return 1e3 * sum(spans[i].duration for i in by_name.get(name, ()))

    def self_ms(name):
        return 1e3 * sum(own[i] for i in by_name.get(name, ()))

    def total(name, key):
        return sum(spans[i].attrs.get(key, 0) for i in by_name.get(name, ()))

    bundles = by_name.get("interferometer.derivative_bundle", [])

    def bundles_under(parent_name):
        return [i for i in bundles
                if spans[spans[i].parent].name == parent_name]

    limit_bundles = bundles_under("fisher.fim_from_bundle")
    limit_pairs = set()
    for i in limit_bundles:
        ancestor = spans[i].parent
        while ancestor is not None and spans[ancestor].name != "fisher.fisher_pair":
            ancestor = spans[ancestor].parent
        limit_pairs.add(ancestor)
    limit_pairs.discard(None)

    unique_ratios = []
    for op in range(ops):
        thetas = [spans[i].attrs["theta"] for i in bundles if spans[i].op == op]
        if thetas:
            unique_ratios.append(len(set(thetas)) / len(thetas))

    scan_ms = ms("cli.cmd_scan")
    limit_evaluated = total("fisher.fisher_pair", "limit_evaluated")
    totals = {
        "fock.lift_unitary.calls": calls("fock.lift_unitary"),
        "fock.lift_unitary.ms": ms("fock.lift_unitary"),
        "fock.lift_unitary.entries": total("fock.lift_unitary", "entries"),
        "linalg.permanent.calls": calls("linalg.permanent"),
        "interferometer.model_build.self_ms": self_ms("interferometer.model_build"),
        "interferometer.derivative_bundle.calls": len(bundles),
        "interferometer.derivative_bundle.ms": ms("interferometer.derivative_bundle"),
        "fisher.fisher_pair.calls": calls("fisher.fisher_pair"),
        "fisher.fisher_pair.self_ms": self_ms("fisher.fisher_pair"),
        "fisher.fim_from_bundle.self_ms": self_ms("fisher.fim_from_bundle"),
        "fisher.qfim.ms": ms("fisher.qfim"),
        "fisher.projector_set.calls": calls("fisher.projector_set"),
        "fisher.projector_set.ms": ms("fisher.projector_set"),
        "fisher.limit.bundle_calls": len(limit_bundles),
        "fisher.limit.pairs": len(limit_pairs),
        "fisher.singular_outcomes": total("fisher.fisher_pair", "singular"),
        "fisher.limit_evaluated": limit_evaluated,
        "fisher.shortcut_zero": total("fisher.fisher_pair", "shortcut_zero"),
        "linalg.hermitian_eigenvalues.calls": calls("linalg.hermitian_eigenvalues"),
        "linalg.hermitian_eigenvalues.ms": ms("linalg.hermitian_eigenvalues"),
        "linalg.gram_schmidt_real_span.ms": ms("linalg.gram_schmidt_real_span"),
        "saturation.check_saturation.calls": calls("saturation.check_saturation"),
        "saturation.check_saturation.self_ms": self_ms("saturation.check_saturation"),
        "saturation.orthogonal_condition_residuals.ms":
            ms("saturation.orthogonal_condition_residuals"),
        "saturation.fallback.bundle_calls":
            len(bundles_under("saturation.orthogonal_condition_residuals")),
        "saturation.overlap_condition_residuals.ms":
            ms("saturation.overlap_condition_residuals"),
        "saturation.classify_projectors.ms": ms("saturation.classify_projectors"),
        "saturation.weak_commutativity_residual.ms":
            ms("saturation.weak_commutativity_residual"),
        "optimal.construct.self_ms": self_ms("optimal.construct"),
        "optimal.omega_frame.ms": ms("optimal.omega_frame"),
        "cli.cmd_scan.self_ms": self_ms("cli.cmd_scan"),
        "trace.op_ms": ms("op"),
    }
    metrics = {name: value / ops for name, value in totals.items()}
    metrics["interferometer.derivative_bundle.unique_ratio"] = (
        float(np.mean(unique_ratios)) if unique_ratios else 0.0)
    metrics["fisher.limit.bundles_per_limit"] = (
        len(limit_bundles) / limit_evaluated if limit_evaluated else 0.0)
    metrics["cli.scan.pool_overlap"] = (
        ms("fisher.fisher_pair") / scan_ms if scan_ms else 0.0)
    return metrics
