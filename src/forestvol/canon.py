"""Canonical forms for small graphs, with optional edge colors.

The key is a bytes string: two graphs (with matching edge colors) are
isomorphic iff their keys are equal.  It is bytes([n]) followed by the
upper triangle (row-major, i < j) of the color matrix under the canonical
labelling, so a key also encodes one fixed representative of its class
(graph_from_key).  Capped at MAX_VERTICES; the search is exhaustive over a
refinement tree and degrades factorially beyond that.

Plain keys are cached under the graph's row code (graphs.row_code), the
same format in which graphs.enumerate_connected_sets describes each
connected set, so a set is classified by code_key without building its
induced subgraph, and the search runs once per distinct code.
"""

from __future__ import annotations

from typing import Sequence

from . import kernel
from .graphs import Graph, graph_from_code, row_code

MAX_VERTICES = 32

# row code (graphs.enumerate_connected_sets) -> plain key; a class has one
# entry per labelled copy seen, so each code is labelled once
_plain_cache: dict[tuple[int, ...], bytes] = {}


def code_key(code: tuple[int, ...]) -> bytes:
    """Isomorphism key of the plain graph whose row code is code."""
    key = _plain_cache.get(code)
    if key is None:
        h = graph_from_code(code)
        key = colored_canonical_form(h.n, [(u, v, 1) for u, v in h.edges])
        _plain_cache[code] = key
    return key


def canonical_form(g: Graph) -> bytes:
    """Isomorphism key of a plain graph, looked up under its row code."""
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


def clear_cache() -> None:
    _plain_cache.clear()
