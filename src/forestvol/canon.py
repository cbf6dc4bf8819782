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
connected set (graphs.code_table keeps the same rows packed into one int,
and graphs.unpack_code gives them back): it fills the color matrix
straight from the code, so a set is classified without building its
induced subgraph or any Graph.

One class owns many codes, since a set's code depends on the order in
which it was grown, and almost every code is a tree or has one cycle.
peel_key gives such a code an exact string by leaf peeling and rooted
tree strings (Aho, Hopcroft and Ullman 1974), at a fraction of the cost of
code_key.  coeffs sums set weights per code and names each class of such
codes by that string, so it never labels one.  A code with no peeled
string is labelled only when its table holds another such code, since
two may then be isomorphic; a lone one names itself.  Class series are
expanded on the vertex masks of the input graph (coeffs.polymer_tables),
so no graph is built from a code or a key for them, and graph_from_key
only gives the representatives of the pattern rows of forestvol coeffs.
Nothing is cached here.  code_key and colored_canonical_form import kernel
when first called, so a query that labels no code never loads it.
"""

from __future__ import annotations

from typing import Sequence

from .graphs import Graph, bits, row_code

MAX_VERTICES = 32

def code_key(code: tuple[int, ...]) -> bytes:
    """Isomorphism key of the plain graph whose row code is code."""
    from .kernel import canon_key

    n = len(code)
    if n > MAX_VERTICES:
        raise ValueError(f"canonical form supports at most {MAX_VERTICES} vertices")
    flat = bytearray(n * n)
    for i, row in enumerate(code):
        if row >> i:
            raise ValueError(f"bad row code entry {row} at position {i}")
        for j in bits(row):
            flat[i * n + j] = flat[j * n + i] = 1
    return canon_key(n, bytes(flat))


def peel_key(code: tuple[int, ...]) -> str | None:
    """Exact isomorphism string of a connected code with at most as many
    edges as vertices, or None for any other code.

    Leaves are peeled layer by layer, and each peeled vertex hands the
    neighbour it hangs from its rooted string, "(" + the strings handed to
    it, sorted and joined, + ")" (Aho, Hopcroft and Ullman 1974).  A tree
    is peeled down to its centre, whose string is the key, or to its two
    centres, whose strings sorted and joined by "-" are the key.  A
    one-cycle code is peeled down to its cycle, and the key is "C" + the
    least rotation or reflection of the cycle's strings, joined.  Two codes
    get equal strings exactly when they are isomorphic.  A disconnected
    code, or one with two or more independent cycles, gets None.  A
    malformed code raises ValueError, as in code_key.
    """
    n = len(code)
    if n > MAX_VERTICES:
        raise ValueError(f"canonical form supports at most {MAX_VERTICES} vertices")
    m = 0
    for i, row in enumerate(code):
        if row >> i:
            raise ValueError(f"bad row code entry {row} at position {i}")
        m += row.bit_count()
    if not n or not n - 1 <= m <= n:
        return None
    adj = list(code)
    for i, row in enumerate(code):
        for j in bits(row):
            adj[j] |= 1 << i
    deg = [a.bit_count() for a in adj]
    kids: list[list[str]] = [[] for _ in range(n)]

    def rooted(v: int) -> str:
        return "(" + "".join(sorted(kids[v])) + ")"

    tree = m < n
    alive = (1 << n) - 1
    layer = [v for v in range(n) if deg[v] == 1]
    # a tree stops at its one or two centres, a one-cycle code at its cycle
    while layer and (not tree or alive.bit_count() > 2):
        nxt = []
        for v in layer:
            u = adj[v].bit_length() - 1
            if u < 0:
                return None  # v and its neighbour made up a component
            kids[u].append(rooted(v))
            adj[u] ^= 1 << v
            deg[u] -= 1
            if deg[u] == 1:
                nxt.append(u)
            alive ^= 1 << v
        layer = nxt
    rest = list(bits(alive))
    if tree:
        # peeling a forest leaves at most two vertices; a cycle stops it
        if len(rest) > 2:
            return None
        return "-".join(sorted(map(rooted, rest)))
    # as many edges as vertices are left, and no leaf: one cycle when every
    # degree is 2 and the walk round it meets every vertex
    if any(deg[v] != 2 for v in rest):
        return None
    start = prev = rest[0]
    ring = [start]
    cur = adj[start].bit_length() - 1
    while cur != start:
        ring.append(cur)
        prev, cur = cur, (adj[cur] ^ (1 << prev)).bit_length() - 1
    if len(ring) != len(rest):
        return None
    seq = [rooted(v) for v in ring]
    return "C" + min(
        "".join(s[i:] + s[:i]) for s in (seq, seq[::-1]) for i in range(len(s))
    )


def canonical_form(g: Graph) -> bytes:
    """Isomorphism key of a plain graph, labelled from its row code."""
    return code_key(row_code(g))


def colored_canonical_form(
    n: int, colored_edges: Sequence[tuple[int, int, int]]
) -> bytes:
    """Isomorphism key of an edge-colored graph; colors are 1..255."""
    from .kernel import canon_key

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
    return canon_key(n, bytes(flat))


def graph_from_key(key: bytes) -> Graph:
    """The representative a plain key encodes: its canonical labelling, with
    edges in row-major order.  Every graph of the class decodes to it."""
    n = key[0]
    if len(key) != 1 + n * (n - 1) // 2:
        raise ValueError("not a canonical key")
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, [uv for uv, c in zip(pairs, key[1:]) if c])
