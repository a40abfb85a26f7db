"""Four-mode interferometer: mapping where photon counting is optimal.

With a |1,1,1,1> probe and two phases, the gap ||F_Q - F||_2 vanishes
exactly on the line theta_1 = theta_2 and at the isolated points (0, pi)
and (pi, 0).  This sweeps a grid, prints the zero-gap cells, and saves a
heatmap when matplotlib is available.
"""

import numpy as np

from multiphase import ProjectorSet, builtin_model, fisher_pairs

model = builtin_model("mzi4")
fock = ProjectorSet.fock(model.basis)

resolution = 41
axis = 2.0 * np.pi * np.arange(resolution) / resolution
grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
gaps = np.array([pair.gap for pair in fisher_pairs(model, grid, fock)])
gaps = gaps.reshape(resolution, resolution)

saturating = np.argwhere(gaps < 1e-6)
print(f"grid: {resolution} x {resolution} over [0, 2pi)^2")
print(f"zero-gap cells: {len(saturating)}")
print("first few:", [(int(i), int(j)) for i, j in saturating[:8]])
on_diagonal = sum(1 for i, j in saturating if i == j)
print(f"on the diagonal theta_1 = theta_2: {on_diagonal} of {resolution}")

for pair in fisher_pairs(model, [[0.0, np.pi], [np.pi, 0.0]], fock):
    print(f"gap at ({pair.theta[0]:.2f}, {pair.theta[1]:.2f}) = {pair.gap:.2e}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(5, 4))
    mesh = ax.pcolormesh(axis, axis, gaps.T, shading="nearest", cmap="viridis")
    fig.colorbar(mesh, label=r"$\|F_Q - F\|_2$")
    ax.plot(axis, axis, "w--", lw=0.8)
    ax.plot([0.0, np.pi], [np.pi, 0.0], "wo", ms=4, mfc="none")
    ax.set_xlabel(r"$\theta_1$")
    ax.set_ylabel(r"$\theta_2$")
    ax.set_title("Four-mode interferometer, photon counting")
    fig.tight_layout()
    fig.savefig("four_mode_gap.png", dpi=150)
    print("saved heatmap to four_mode_gap.png")
except ImportError:
    print("matplotlib not installed; skipping the heatmap")
