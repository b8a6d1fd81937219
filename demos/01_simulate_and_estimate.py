"""Simulate a sparse multivariate time series and compare spectral estimators.

The generative model is a 12-dimensional VMA(1) whose transition matrix is
block-diagonal with 3x3 bidiagonal blocks, so the true spectral density is
block-sparse at every frequency.  We estimate it with the plain averaged
periodogram and with lasso thresholding (threshold tuned per frequency by
sample-splitting), and score both against the exact truth.
"""

import numpy as np

from specthresh import (
    block_varma_model,
    default_span,
    rmise,
    simulate,
    tuned_estimates,
)
from specthresh.bench import truth_spectra
from specthresh.estimator import half_weights

P, N, SEED = 12, 200, 0

model = block_varma_model(P, "vma")
x = simulate(model, N, seed=SEED)
print(f"simulated {x.n} observations of a {x.p}-dimensional VMA(1)")

# half-span of the smoothing window: sqrt(n) rule for MA-like dependence
m = default_span(N, "ma_like")
print(f"smoothing half-span m = {m}  (window of {2 * m + 1} periodograms)")

smoothed = tuned_estimates(x, m, ["smoothed"])[0]
lasso = tuned_estimates(x, m, ["lasso"], seed=SEED)[0]

# every spectrum is one array of its rows j = 0..N/2: the row at -j is the
# conjugate of the row at j, so these rows hold the whole of F_n
truth = truth_spectra(model, N)

print(f"RMISE smoothed: {rmise(smoothed, truth):6.2f} %")
print(f"RMISE lasso:    {rmise(lasso, truth):6.2f} %")

# the thresholded estimate is exactly sparse; count surviving off-diagonals
# over F_n, weighting row j by how often +-j occurs in it
mask = ~np.eye(P, dtype=bool)
weights = half_weights(N)
kept = np.average(np.mean(np.abs(lasso.half[:, mask]) > 0, axis=1), weights=weights)
true_frac = np.average(np.mean(np.abs(truth[:, mask]) > 1e-12, axis=1), weights=weights)
print(f"off-diagonal entries kept by lasso: {100 * kept:.1f} %  (truth: {100 * true_frac:.1f} %)")

# thresholding can break positive semidefiniteness; report the worst case
worst = lasso.min_eigenvalues().min()
print(f"smallest eigenvalue across frequencies after thresholding: {worst:.2e}")
