"""Three-mode interferometer: quantum vs classical Fisher matrices.

A |1,1,1> Fock state enters a balanced three-mode splitter, two modes pick
up the phases to estimate, and the light recombines at the inverse
splitter before photon counting.  The quantum matrix is phase independent;
the photon-counting classical matrix is not, and it never reaches the
quantum bound anywhere on the phase plane.
"""

import numpy as np

from multiphase import ProjectorSet, builtin_model, fim, fisher_pair, qfim, spectral_norm

model = builtin_model("mzi3")
fock = ProjectorSet.fock(model.basis)

print("probe:", model.probe, "| Fock-space dimension:", model.basis.dim)

# The quantum matrix is 4 Cov(n_l, n_m) over the split probe, a constant
# of the model; the derivative-state formula agrees at any theta.
fq = model.quantum_fisher
print("\nquantum Fisher matrix (any theta):")
print(fq.round(10))
print("spectral norm:", spectral_norm(fq))
bundle = model.derivative_bundle([0.7, 0.3])
print("derivative-state formula at (0.7, 0.3) differs by",
      f"{abs(qfim(bundle) - fq).max():.1e}")

# The point (0, 0) sends every photon back to the probe configuration, so
# all other outcomes have zero probability and the classical matrix is an
# indeterminate 0/0 limit, resolved in closed form from the leading term of
# each dark amplitude along the approach direction.
f, diagnostics = fim(model, [0.0, 0.0], fock)
print("\nclassical (photon counting) Fisher matrix at theta = (0, 0):")
print(f.round(10))
print("outcomes resolved by their limit:", diagnostics.limit_evaluated)
print("outcomes that vanish analytically:", diagnostics.shortcut_zero)

print("\ngap ||F_Q - F||_2 at a few phase points:")
for theta in ([0.0, 0.0], [0.7, 0.3], [np.pi / 2, np.pi], [2.0, 5.0]):
    pair = fisher_pair(model, theta, fock)
    print(f"  theta = ({theta[0]:5.2f}, {theta[1]:5.2f})  gap = {pair.gap:.6f}")

print("\nThe gap stays above 3/4 for every theta: photon counting cannot")
print("saturate the quantum bound in this instrument.")
