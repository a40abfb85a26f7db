"""The benchmark's tracer still finds every library name it wraps.

``perfbench/tracing.py`` wraps named functions in the ``multiphase``
modules, and ``perfbench/workloads.py`` calls the constructions with
``mix=0.5``.  A change that unbinds either breaks ``run.py --trace 1``.
"""

import sys
from pathlib import Path

import multiphase as mp

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.setattr(sys, "path", [str(PERFBENCH)] + sys.path)
    import tracing

    original = mp.check_saturation
    tracer = tracing.install(tracing.Tracer())
    try:
        assert mp.check_saturation is not original
        model = mp.builtin_model("mzi4")
        built = mp.construct_nonorthogonal_optimal(model, [0.7, 0.7], mix=0.5)
        assert built.verification.gap < 1e-8
    finally:
        tracer.uninstall()
    assert mp.check_saturation is original
