#!/usr/bin/env python3
"""Represent noisy discretized curves on a B-spline basis.

Walks through basis construction, the Gram matrix, least-squares smoothing,
and how much of the noise the basis filters out.
"""

import numpy as np

from sfofr import (
    FunctionalDataset,
    center,
    evaluate_basis,
    make_bspline_basis,
    smooth_curves,
    smoothing_residual_rms,
)

rng = np.random.default_rng(1)

# --- a clamped cubic basis with 20 functions --------------------------------
basis = make_bspline_basis(num_basis=20, degree=3)
print("basis: L =", basis.num_basis, "degree =", basis.degree)
print("Gram matrix condition number:", f"{np.linalg.cond(basis.gram):.1f}")
print("smallest Gram eigenvalue:", f"{np.linalg.eigvalsh(basis.gram).min():.3e}")

grid = np.linspace(0, 1, 101)
design = evaluate_basis(basis, grid)
print("partition of unity: max |row sum - 1| =", f"{np.abs(design.sum(axis=1) - 1).max():.2e}")

# --- smooth noisy observations of known curves -------------------------------
n = 25
signal = np.array(
    [np.sin(2 * np.pi * grid * (1 + 0.2 * i)) + 0.5 * i / n for i in range(n)]
)
noise_sd = 0.4
observed = FunctionalDataset(grid=grid, values=signal + noise_sd * rng.standard_normal(signal.shape))

coeffs = smooth_curves(observed, basis)
recon = coeffs.coef @ design.T
print("\nsmoothing", n, "curves with noise sd", noise_sd)
print("mean residual RMS (vs noisy data):", f"{smoothing_residual_rms(observed, coeffs).mean():.3f}")
print("mean error vs true signal:       ", f"{np.sqrt(np.mean((recon - signal) ** 2)):.3f}")
print("(the basis keeps ~L/T of the noise variance: "
      f"expected ~{noise_sd * np.sqrt(basis.num_basis / grid.size):.3f})")

# --- centering splits the sample into mean curve + deviations ----------------
centered, mean_curve = center(observed)
print("\nafter centering: max |column mean| =",
      f"{np.abs(centered.values.mean(axis=0)).max():.2e}")
print("mean curve range:", f"[{mean_curve.min():.3f}, {mean_curve.max():.3f}]")
