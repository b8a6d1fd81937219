"""Look inside the sample-splitting threshold selection.

The smoothing window of periodograms around a target frequency is randomly
split into two halves (mirror pairs stay together).  One half is averaged
and thresholded at each candidate level, the other half serves as a noisy
reference, and the squared Frobenius distance between them is the risk.
The script prints one frequency's risk curve with the threshold the
estimate chose from it, then shows how the tuned thresholds vary across
frequencies and how often one sits on the edge of its grid.
"""

import numpy as np

from specthresh import (
    ThresholdOperator,
    block_varma_model,
    default_span,
    simulate,
    split_frequencies,
    split_risk_curves,
)

P, N, SEED = 12, 200, 1

model = block_varma_model(P, "vma")
x = simulate(model, N, seed=SEED)
m = default_span(N, "ma_like")
op = ThresholdOperator("lasso")

j = 10
j1, j2 = split_frequencies(j, m, N, seed=SEED)
print(f"window around omega_{j}: {2 * m + 1} frequencies")
print(f"  half 1 ({len(j1)}): {j1}")
print(f"  half 2 ({len(j2)}): {j2}")

# the grid and risk curve of every row j = 0..N/2, from the pass that tunes;
# the tuned threshold of a row is the grid value of least risk there
grids, risks = split_risk_curves(x, m, [op], seed=SEED)
chosen = grids[j, risks[0, j].argmin()]

print("\n lambda      risk")
for lam, r in zip(grids[j], risks[0, j]):
    marker = "  <- chosen" if lam == chosen else ""
    print(f" {lam:8.5f}  {r:8.5f}{marker}")

# per-frequency thresholds over the whole spectrum, one per row j = 0..N/2
lams = grids[np.arange(len(grids)), risks[0].argmin(axis=1)]
print(f"\ntuned thresholds over {lams.size} nonnegative frequencies:")
print(f"  min {lams.min():.5f}   median {np.median(lams):.5f}   max {lams.max():.5f}")
print(f"  on the first grid point: {np.sum(lams == grids[:, 0])} rows;"
      f" on the last: {np.sum(lams == grids[:, -1])} rows")
