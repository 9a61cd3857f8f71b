"""The online run and its offline twin agree edge-for-edge, not just on average.

The online algorithm prices vertices from a greedy matching on the sampled
values and accepts price-beating arrivals.  The offline twin never sees an
arrival order while building its sets: it scans all 2m draws (sample and real
copy of every edge) in one decreasing pass, routing each edge's first
considered copy by a coin.  Tying that coin to "the copy is the real draw"
makes the two runs produce the same feasible set, sample matching, and output
matching on every realization.
"""

import numpy as np

from prophet_matching import draw_realization, run_offline_edge, run_online_edge
from prophet_matching.invariants import check_edge_coupling, random_small_instance

rng = np.random.default_rng(2)
spec = random_small_instance(rng, bipartite=False)
real = draw_realization(spec, seed=11)
order = [int(x) for x in rng.permutation(spec.graph.num_edges)]

online = run_online_edge(spec, real, order)
offline = run_offline_edge(spec, real, order)

print(f"instance: {spec.graph.num_vertices} vertices, {spec.graph.num_edges} edges")
print(f"online  feasible={sorted(online.feasible)} matching={sorted(online.matching.edges)}")
print(
    f"offline feasible={sorted(offline.record.feasible)} "
    f"matching={sorted(offline.record.matching.edges)}"
)
print(f"offline first edge at each touched vertex: {offline.first_edge}\n")

sweep = check_edge_coupling(instances=2000)
print(f"coupling sweep over random instances (exact set equality): {sweep.detail}")
