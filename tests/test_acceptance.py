"""End-to-end acceptance battery.

One test per criterion; each prints a single `criterion NN [...]: PASS/FAIL`
line (visible with -s, and mirrored by the test outcome itself).  Criteria
with a time budget assert the measured wall time.
"""

import random
import time
from fractions import Fraction
from math import factorial

from forestvol import (
    DeltaParams,
    DeltaTooLargeError,
    approximate_volume,
    assemble_a,
    exact_volume,
    mc_volume,
    newton_exp,
    penrose_check,
    root_check,
    small_e,
    tree_weight,
    zero_free_radius,
)
from forestvol.families import (
    complete_graph,
    connected_graphs_upto,
    cycle_graph,
    path_graph,
    petersen_graph,
    random_graph,
)
from forestvol.graphs import (
    Graph,
    enumerate_connected_sets,
    spanning_trees,
    tree_from_edges,
)
from forestvol.treeweight import polymer_weights

import pytest

from conftest import clear_caches, shuffled_edges


def _finish(num, label, failures, wall=None, budget=None):
    if budget is not None and wall > budget:
        failures.append(f"wall {wall:.1f}s exceeds {budget}s budget")
    status = "FAIL" if failures else "PASS"
    extra = f" [{wall:.1f}s]" if wall is not None else ""
    print(f"criterion {num:02d} [{label}]: {status}{extra}", flush=True)
    assert not failures, f"criterion {num} ({label}): " + "; ".join(failures[:6])


def test_criterion_01_closed_form_volumes():
    t0 = time.monotonic()
    failures = []
    if exact_volume(path_graph(2), DeltaParams(Fraction(1, 4))) != Fraction(7, 16):
        failures.append("K2 at delta=1/4 is not 7/16")
    for delta in (Fraction(1, 10), Fraction(1, 4)):
        # slice integration over the middle coordinate of the 2-edge path
        box = Fraction(1, 2) + delta
        expect = box**3 - 4 * delta**2 * box + Fraction(8, 3) * delta**3
        got = exact_volume(path_graph(3), DeltaParams(delta))
        if got != expect:
            failures.append(f"P3 at delta={delta}: {got} != {expect}")
    _finish(1, "closed-form volumes", failures, time.monotonic() - t0, budget=1.0)


def test_criterion_02_degenerate_exactness():
    failures = []
    rng = random.Random(20)
    for i in range(20):
        n = rng.randint(1, 10)
        g = random_graph(n, 0.5, seed=100 + i, max_degree=3)
        if exact_volume(g, DeltaParams(Fraction(0))) != Fraction(1, 2) ** n:
            failures.append(f"delta=0 volume wrong for seed {100 + i}")
        res = approximate_volume(g, Fraction(0), Fraction(1, 100))
        if not (res.exact and res.lower == res.upper == Fraction(1, 2) ** n):
            failures.append(f"delta=0 interpolation not exact for seed {100 + i}")
    for n in (1, 3, 7):
        for delta in (Fraction(0), Fraction(1, 10), Fraction(2, 5)):
            box = Fraction(1, 2) + delta
            if exact_volume(Graph(n, ()), DeltaParams(delta)) != box**n:
                failures.append(f"edgeless n={n} delta={delta}")
            res = approximate_volume(Graph(n, ()), delta, Fraction(1, 2))
            if not (res.exact and res.lower == box**n):
                failures.append(f"edgeless interpolation n={n} delta={delta}")
    _finish(2, "degenerate exactness", failures)


def test_criterion_03_interpolation_vs_exact_exhaustive():
    t0 = time.monotonic()
    failures = []
    delta = eps = Fraction(1, 100)
    graphs = [g for g in connected_graphs_upto(8, max_degree=3)]
    if len(graphs) != 307:
        failures.append(f"expected 307 connected graphs (n<=8, max degree 3), got {len(graphs)}")
    for idx, g in enumerate(graphs):
        ex = exact_volume(g, DeltaParams(delta))
        res = approximate_volume(g, delta, eps)
        rel = abs(float(res.xi) / float(ex) - 1.0)
        if rel > 0.01:
            failures.append(f"graph #{idx} (n={g.n}, m={g.m}): rel err {rel:.2e}")
        if not (res.lower <= ex <= res.upper):
            failures.append(f"graph #{idx}: exact volume outside certified interval")
    _finish(3, "interpolation accuracy, all connected n<=8 deg<=3",
            failures, time.monotonic() - t0, budget=600.0)


def test_criterion_04_petersen_cross_oracle():
    t0 = time.monotonic()
    failures = []
    g = petersen_graph()
    delta = Fraction(1, 100)
    est = mc_volume(g, delta, 10**6, seed=4)
    res = approximate_volume(g, delta, Fraction(1, 100))
    z = abs(est.mean - float(res.xi)) / est.stderr
    if z > 4.0:
        failures.append(f"MC and interpolation disagree: z = {z:.2f}")
    _finish(4, "Petersen cross-oracle", failures, time.monotonic() - t0, budget=60.0)


def test_criterion_05_radius_certificate():
    failures = []
    r3 = float(zero_free_radius(Fraction(1, 100), 3).radius)
    if not (2.04 <= r3 <= 2.05):
        failures.append(f"R(1/100, 3) = {r3}")
    r2 = float(zero_free_radius(Fraction(1, 1000), 2).radius)
    if not (22.9 <= r2 <= 23.0):
        failures.append(f"R(1/1000, 2) = {r2}")
    try:
        zero_free_radius(Fraction(1, 10), 3)
        failures.append("delta=1/10 at degree 3 was not rejected")
    except DeltaTooLargeError:
        pass
    _finish(5, "zero-free radius bands", failures)


def test_criterion_06_interval_partition():
    failures = []
    rng = random.Random(6)
    for g in connected_graphs_upto(6):
        for _ in range(5):
            order = list(range(g.m))
            rng.shuffle(order)
            rep = penrose_check(g, edge_order=order)
            if not rep.ok:
                failures.append(f"partition failed on n={g.n} m={g.m} order={order}")
            if rep.marked != rep.connected_spanning:
                failures.append(f"marked count mismatch on n={g.n} m={g.m}")
    if penrose_check(complete_graph(3)).connected_spanning != 4:
        failures.append("triangle connected-spanning count is not 4")
    if penrose_check(complete_graph(4)).connected_spanning != 38:
        failures.append("K4 connected-spanning count is not 38")
    _finish(6, "spanning-subgraph interval partition", failures)


def test_criterion_07_weight_bound():
    failures = []
    rng = random.Random(7)
    deltas = (Fraction(1, 10), Fraction(1, 4), Fraction(2, 5))
    for i in range(100):
        g = random_graph(rng.randint(5, 10), 0.5, seed=700 + i, max_degree=4)
        host_trees = []
        for vset, _, _ in enumerate_connected_sets(g, 5):
            if vset.bit_count() < 2:
                continue
            sub, _ = g.induced_subgraph(vset)
            local_ranks = [
                r
                for r, (u, v) in enumerate(g.edges)
                if (vset >> u) & 1 and (vset >> v) & 1
            ]
            for tree in spanning_trees(sub):
                ranks = [local_ranks[r] for r in tree.edge_ranks]
                host_trees.append(tree_from_edges(g, ranks))
        for delta in deltas:
            dp = DeltaParams(delta)
            bound_base = 2 * delta / dp.box_hi
            for tree in host_trees:
                rec = tree_weight(g, tree, dp)
                nv = tree.size
                if rec.hat_w < 0:
                    failures.append(f"negative unsigned weight, graph {700 + i}")
                if abs(rec.w) > bound_base**nv:
                    failures.append(
                        f"|w| = {float(abs(rec.w)):.3g} exceeds "
                        f"{float(bound_base ** nv):.3g} (size {nv}, delta {delta})"
                    )
    _finish(7, "tree weight bound", failures)


def test_criterion_08_roots_outside_certified_disk():
    failures = []
    rng = random.Random(8)
    delta = Fraction(1, 100)
    dp = DeltaParams(delta)
    checked = 0
    for i in range(200):
        g = random_graph(rng.randint(2, 8), 0.5, seed=800 + i, max_degree=4)
        cert = zero_free_radius(delta, max(g.max_degree(), 2))
        rep = root_check(g, dp)
        checked += 1
        if not rep.clears(cert.radius):
            lo, hi = rep.nearest_zero()
            failures.append(
                f"seed {800 + i}: nearest zero in ({float(lo):.4f}, {float(hi):.4f}] "
                f"inside R = {float(cert.radius):.4f}"
            )
    if checked != 200:
        failures.append(f"only {checked} certificates checked")
    _finish(8, "roots clear the certified disk", failures)


def test_criterion_09_coefficient_paths_agree():
    failures = []
    rng = random.Random(9)
    delta = Fraction(1, 100)
    dp = DeltaParams(delta)
    for i in range(50):
        g = random_graph(rng.randint(4, 12), 0.4, seed=900 + i, max_degree=3)
        a = assemble_a(g, dp, 4)
        assembled = newton_exp(a, 4)
        direct = small_e(g, dp, 4)
        if tuple(assembled) != tuple(direct):
            failures.append(f"e_k mismatch on seed {900 + i}")
    # each polymer weight against its spanning-tree sum, in the graph's own
    # edge order and in one shuffled order
    t = delta / dp.box_hi
    for seed, h in enumerate(connected_graphs_upto(6)):
        if h.n < 2:
            continue
        u = dict(polymer_weights(h, h.n))[h.vertex_mask()]
        weight = Fraction(u, factorial(h.n)) * t**h.n
        for g in (h, shuffled_edges(h, seed)):
            total = Fraction(0)
            for tree in spanning_trees(g):
                total += tree_weight(g, tree, dp).w
            if weight != total:
                failures.append(f"polymer weight mismatch on {g.edges}")
    _finish(9, "coefficient assembly equals enumeration", failures)


def test_criterion_10_performance_and_determinism():
    t0 = time.monotonic()
    failures = []
    g = cycle_graph(200)
    results = []
    for _ in range(3):
        clear_caches()
        res = approximate_volume(g, Fraction(1, 1000), Fraction(1, 100))
        results.append((res.a, res.xi, res.lower, res.upper))
    if results[0] != results[1] or results[0] != results[2]:
        failures.append("results differ across repeated cold runs")
    _finish(10, "C200 performance and cold-run determinism",
            failures, time.monotonic() - t0, budget=60.0)
