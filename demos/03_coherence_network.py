"""Recover a connectivity network from the frequency-averaged coherence.

Coherence normalizes each cross-spectrum by the corresponding auto-spectra,
giving a frequency-domain analogue of correlation.  Averaging its modulus
across all Fourier frequencies yields a single weighted adjacency matrix;
for a block-diagonal generative model the heavy edges should concentrate
inside the blocks.
"""

import numpy as np

from specthresh import (
    aggregate_coherence_graph,
    block_varma_model,
    default_span,
    simulate,
    tuned_estimates,
)

P, N, SEED = 12, 400, 2

model = block_varma_model(P, "vma")
x = simulate(model, N, seed=SEED)
m = default_span(N, "ma_like")

est = tuned_estimates(x, m, ["adaptive_lasso"], seed=SEED)[0]
graph = aggregate_coherence_graph(est)

# ground truth: channels r and s interact iff they share a 3x3 block
same_block = np.equal.outer(np.arange(P) // 3, np.arange(P) // 3)
np.fill_diagonal(same_block, False)

iu = np.triu_indices(P, k=1)
order = np.argsort(graph[iu])[::-1]
print("strongest edges (true in-block edges marked *):")
for rank in range(10):
    r, s = iu[0][order[rank]], iu[1][order[rank]]
    mark = "*" if same_block[r, s] else " "
    print(f"  {rank + 1:2d}. ({r:2d},{s:2d}) {mark}  weight {graph[r, s]:.4f}")

in_block = graph[iu][same_block[iu]]
out_block = graph[iu][~same_block[iu]]
print(f"\nmean edge weight inside blocks:  {in_block.mean():.4f}")
print(f"mean edge weight across blocks:  {out_block.mean():.4f}")
