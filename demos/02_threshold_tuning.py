"""Look inside the sample-splitting threshold selection.

The smoothing window of periodograms around a target frequency is randomly
split into two halves of (nearly) equal size; a periodogram and its mirror
image at the negative frequency, when both fall in the window, go to the
same half, since one is the conjugate of the other.  One half is averaged
and thresholded at each candidate level, the other half serves as a noisy
reference, and the squared Frobenius distance between them is the risk.
A tuned estimate carries the candidate grid and the risk curve of every
frequency, the ones that chose its thresholds.  The script prints one
frequency's risk curve with the threshold the estimate chose from it, then
shows how the tuned thresholds vary across frequencies and how often one
sits on the edge of its grid.
"""

import numpy as np

from specthresh import block_varma_model, default_span, simulate, tuned_estimates

P, N, SEED = 12, 200, 1

model = block_varma_model(P, "vma")
x = simulate(model, N, seed=SEED)
m = default_span(N, "ma_like")

# one pass tunes and thresholds; est.grids[j] is row j's grid of candidate
# thresholds and est.risks[j] the split risk at each of them, j = 0..N/2
est = tuned_estimates(x, m, ["lasso"], seed=SEED)[0]

j = 10
print(f"window around omega_{j}: {2 * m + 1} frequencies, split into halves of "
      f"{m + 1} and {m} periodograms")
print("\n lambda      risk")
for lam, r in zip(est.grids[j], est.risks[j]):
    marker = "  <- chosen" if lam == est.lambdas[j] else ""
    print(f" {lam:8.5f}  {r:8.5f}{marker}")

# the tuned threshold of each row is the grid value of least risk there
lams = est.lambdas
assert np.array_equal(lams, est.grids[np.arange(len(lams)), est.risks.argmin(axis=1)])
print(f"\ntuned thresholds over {lams.size} nonnegative frequencies:")
print(f"  min {lams.min():.5f}   median {np.median(lams):.5f}   max {lams.max():.5f}")
print(f"  on the first grid point: {np.sum(lams == est.grids[:, 0])} rows;"
      f" on the last: {np.sum(lams == est.grids[:, -1])} rows")
