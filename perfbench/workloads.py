"""Workload definitions: which graph, which (delta, eps), and how the run's
seed turns them into inputs.

Each workload fixes one base graph and the seed picks a random vertex
relabelling per query (the edge list keeps its order, so edge ranks and
hence the tree/broken-edge shapes are unchanged).  The answer is the same
rational interval for every relabelling, which the benchmark checks bit for
bit against ``reference.json``.  The base graph is fixed rather than drawn
from the seed because the cost of a cold query differs by about 5x between
``random_connected_graph(16, 3, seed=s, max_degree=3)`` draws (1.5 s to
7.2 s over s = 0..7), which would swamp any regression bound.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Workload:
    name: str
    graph: str  # key into base_graph()
    eps: Fraction
    deltas: tuple[Fraction, ...]  # one point, or the sweep's points in order
    K: int

    @property
    def sweep(self) -> bool:
        return len(self.deltas) > 1


# Why each workload exists is in BENCHMARK.json.  delta_sweep steps delta
# down from 1/100 by 1/10000 while K stays 5, which holds for the first
# seven points at n = 16, eps = 1/10, degree 3.  Six points (five warm) keep
# one whole sweep inside a 30 s run.
_SWEEP = tuple(Fraction(1, 100) - Fraction(j, 10000) for j in range(6))
WORKLOADS = {
    w.name: w
    for w in (
        Workload("cold_dense", "dense16", Fraction(1, 10), (Fraction(1, 100),), 5),
        Workload("cold_petersen", "petersen", Fraction(1, 100), (Fraction(1, 100),), 7),
        Workload("sparse_large", "sparse1000", Fraction(1, 100), (Fraction(1, 2000),), 2),
        Workload("delta_sweep", "dense16", Fraction(1, 10), _SWEEP, 5),
    )
}


def base_graph(key: str):
    from forestvol.families import petersen_graph, random_connected_graph

    if key == "dense16":
        return random_connected_graph(16, 3, seed=3, max_degree=3)
    if key == "petersen":
        return petersen_graph()
    if key == "sparse1000":
        return random_connected_graph(1000, 300, seed=0, max_degree=3)
    raise KeyError(key)


def relabelled(g, seed: int, index: int):
    """g with vertices permuted by a draw from (seed, index); edge order kept.
    Query `index` of a cold workload, or sweep `index` of delta_sweep, runs
    on relabelled(base_graph(w.graph), seed, index)."""
    from forestvol.graphs import Graph

    perm = list(range(g.n))
    random.Random(seed * 1_000_003 + index).shuffle(perm)
    return Graph(g.n, [tuple(sorted((perm[u], perm[v]))) for u, v in g.edges])


def answer_digest(delta: Fraction, a, lower: Fraction, upper: Fraction) -> str:
    text = "|".join([str(delta), ",".join(map(str, a)), str(lower), str(upper)])
    return hashlib.sha256(text.encode()).hexdigest()[:16]
