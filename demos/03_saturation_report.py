"""Auditing a measurement with the saturation conditions.

Instead of comparing full matrices, the per-projector condition residuals
say exactly which projectors spoil optimality.  The verdict is read from
the conditions' deficit 4 sum_k q_k q_k^T, which equals F_Q - F; the
report carries that gap and serializes to JSON.
"""

import numpy as np

from multiphase import ProjectorSet, builtin_model, check_saturation

m3 = builtin_model("mzi3")
m4 = builtin_model("mzi4")

print("=== three-mode instrument at theta = (0, 0) ===")
report = check_saturation(m3, [0.0, 0.0], ProjectorSet.fock(m3.basis))
print("verdict:", report.verdict, "| gap:", f"{report.gap:.3e}")
print("weak-commutativity residual:", f"{report.weak_comm_residual:.2e}")
print("projector residuals (orthogonal class):")
for r in report.t1:
    state = m3.basis.states[r.projector]
    note = "  (first order dark, bound reported)" if r.indeterminate_first_order else ""
    print(f"  |{','.join(map(str, state))}>  residual = {r.value:.6f}{note}")

print("\n=== four-mode instrument at theta = (0.9, 0.9) ===")
report = check_saturation(m4, [0.9, 0.9], ProjectorSet.fock(m4.basis))
print("verdict:", report.verdict, "| gap:", f"{report.gap:.3e}")
print("max residual over all conditions:",
      f"{max([report.weak_comm_residual] + [r.value for r in report.t1 + report.t2]):.2e}")

print("\n=== four-mode instrument at theta = (0.3, 1.1) ===")
report = check_saturation(m4, [0.3, 1.1], ProjectorSet.fock(m4.basis))
print("verdict:", report.verdict, "| gap:", f"{report.gap:.3e}")
worst = max(report.t2, key=lambda r: r.value)
state = m4.basis.states[worst.projector]
print(f"worst violation: projector |{','.join(map(str, state))}> "
      f"residual {worst.value:.4f} at derivative index {worst.indices}")

print("\nJSON round trip of the last report:")
print(report.to_json()[:160], "...")
