"""Look inside the sample-splitting threshold selection at one frequency.

The smoothing window of periodograms around a target frequency is randomly
split into two halves (mirror pairs stay together).  One half is averaged
and thresholded at each candidate level, the other half serves as a noisy
reference, and the squared Frobenius distance between them is the risk.
The script prints the risk curve and the selected threshold, then shows
how the tuned thresholds vary across frequencies.
"""

import numpy as np

from specthresh import (
    ThresholdOperator,
    TuningConfig,
    block_varma_model,
    default_lambda_grid,
    default_span,
    select_threshold,
    simulate,
    smoothed_estimate,
    split_frequencies,
    tuned_threshold_estimate,
)

P, N, SEED = 12, 200, 1

model = block_varma_model(P, "vma")
x = simulate(model, N, seed=SEED)
m = default_span(N, "ma_like")

j = 10
j1, j2 = split_frequencies(j, m, N, seed=SEED)
print(f"window around omega_{j}: {2 * m + 1} frequencies")
print(f"  half 1 ({len(j1)}): {j1}")
print(f"  half 2 ({len(j2)}): {j2}")

f_hat = smoothed_estimate(x, m).half[j]
grid = default_lambda_grid(f_hat, size=20)
cfg = TuningConfig(m=m, lambda_grid=grid, n_splits=1, seed=SEED)
risk = select_threshold(x, j, cfg, ThresholdOperator("lasso"))

print("\n lambda      risk")
for lam, r in zip(risk.grid, risk.risk):
    marker = "  <- chosen" if lam == risk.chosen else ""
    print(f" {lam:8.5f}  {r:8.5f}{marker}")

# per-frequency thresholds over the whole spectrum
est = tuned_threshold_estimate(x, m, ThresholdOperator("lasso"), seed=SEED)
lams = est.lambdas  # one threshold per row j = 0..N/2
print(f"\ntuned thresholds over {lams.size} nonnegative frequencies:")
print(f"  min {lams.min():.5f}   median {np.median(lams):.5f}   max {lams.max():.5f}")
