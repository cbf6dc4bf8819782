"""Canonical forms for small graphs, with optional edge colors.

The key is a bytes string: two graphs (with matching edge colors) are
isomorphic iff their keys are equal.  It is bytes([n]) followed by the
upper triangle (row-major, i < j) of the color matrix under the canonical
labelling, so a key also encodes one fixed representative of its class
(graph_from_key).  Capped at MAX_VERTICES.  The key is the least leaf key
of an individualisation-refinement search (kernel.canon_key) that skips
each branch an automorphism found at earlier leaves maps onto a branch
already searched.  Skipped branches hold the same leaf keys, so pruning
never changes a key, and a symmetric graph costs a few leaves rather than
one per automorphism: Petersen takes 10 leaves for |Aut| = 120.

code_key labels a plain graph given by its row code (graphs.row_code),
the format in which graphs.enumerate_connected_sets describes each
connected set: it fills the color matrix straight from the code, so a set
is classified without building its induced subgraph or any Graph.  Nothing
is cached here: coeffs sums set weights per code before labelling, so each
code of one {code: weight} table is labelled once.
"""

from __future__ import annotations

from typing import Sequence

from . import kernel
from .graphs import Graph, bits, row_code

MAX_VERTICES = 32

def code_key(code: tuple[int, ...]) -> bytes:
    """Isomorphism key of the plain graph whose row code is code."""
    n = len(code)
    if n > MAX_VERTICES:
        raise ValueError(f"canonical form supports at most {MAX_VERTICES} vertices")
    flat = bytearray(n * n)
    for i, row in enumerate(code):
        if row >> i:
            raise ValueError(f"bad row code entry {row} at position {i}")
        for j in bits(row):
            flat[i * n + j] = flat[j * n + i] = 1
    return kernel.canon_key(n, bytes(flat))


def canonical_form(g: Graph) -> bytes:
    """Isomorphism key of a plain graph, labelled from its row code."""
    return code_key(row_code(g))


def colored_canonical_form(
    n: int, colored_edges: Sequence[tuple[int, int, int]]
) -> bytes:
    """Isomorphism key of an edge-colored graph; colors are 1..255."""
    if n > MAX_VERTICES:
        raise ValueError(f"canonical form supports at most {MAX_VERTICES} vertices")
    flat = bytearray(n * n)
    for u, v, c in colored_edges:
        if u == v or not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"bad edge ({u}, {v})")
        if not (1 <= c <= 255):
            raise ValueError(f"bad edge color {c}")
        if flat[u * n + v]:
            raise ValueError(f"duplicate edge ({u}, {v})")
        flat[u * n + v] = c
        flat[v * n + u] = c
    return kernel.canon_key(n, bytes(flat))


def graph_from_key(key: bytes) -> Graph:
    """The representative a plain key encodes: its canonical labelling, with
    edges in row-major order.  Every graph of the class decodes to it."""
    n = key[0]
    if len(key) != 1 + n * (n - 1) // 2:
        raise ValueError("not a canonical key")
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, [uv for uv, c in zip(pairs, key[1:]) if c])
