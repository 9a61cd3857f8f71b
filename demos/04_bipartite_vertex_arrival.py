"""Bipartite vertex arrivals: the 8x guarantee and the inequality chain behind it.

Buyers arrive one by one, each revealing all her edge values at once and
taking the largest price-beating edge whose item analysis allows.  The proof
routes through an intermediate matching that resolves each item's conflicts
in favor of its largest feasible edge; we measure every link of that chain.
"""

import numpy as np

from prophet_matching import (
    DistSpec,
    complete_bipartite,
    draw_realization,
    max_weight_matching,
    run_offline_vertex,
    trial_seed,
)

spec = complete_bipartite(4, 4, DistSpec.uniform(0.0, 1.0))
buyers = list(spec.graph.buyers)
rng = np.random.default_rng(4)
trials = 10_000

ms = np.empty(trials)
safe = np.empty(trials)
matched = np.empty(trials)
opt = np.empty(trials)
for t in range(trials):
    real = draw_realization(spec, trial_seed(9, t))
    order = [buyers[int(i)] for i in rng.permutation(len(buyers))]
    trace = run_offline_vertex(spec, real, order)
    ms[t] = trace.record.sample_matching.weight
    safe[t] = trace.safe_matching.weight
    matched[t] = trace.record.matching.weight
    opt[t] = max_weight_matching(spec.graph, real.real_values).weight

print(f"K44, uniform values, {trials} trials")
print(f"  E[w(sample matching)]   = {ms.mean():.4f}")
print(f"  E[w(safe matching)]     = {safe.mean():.4f}")
print(f"  E[w(online matching)]   = {matched.mean():.4f}")
print(f"  E[w(optimum)]           = {opt.mean():.4f}\n")
print(f"  4 * E[safe] >= E[opt]:      {4 * safe.mean():.4f} >= {opt.mean():.4f}")
print(f"  2 * E[online] >= E[safe]:   {2 * matched.mean():.4f} >= {safe.mean():.4f}")
print(f"  8 * E[online] vs E[opt]:    {8 * matched.mean():.4f} >= {opt.mean():.4f} "
      f"(measured ratio {opt.mean() / matched.mean():.3f})")
