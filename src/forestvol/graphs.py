"""Undirected simple graphs with ranked edges, plus the connected vertex
sets the volume engine is built on, and the spanning trees and broken
edges behind tree_weight and the Penrose check.

The engine reads connected sets through one routine, code_table: a single
depth-first pass that sums a weight per row code (an exact labelled copy
of the set's induced subgraph) without handing out any set.  Codes are
packed into one int each.  enumerate_connected_sets, which yields every
set with its neighbourhood and code, is the reference it is tested
against.

Vertex sets are plain int bitmasks throughout, and so are the components
of a partial forest: each vertex maps to the mask of its component, which
answers "same component?" with one bit test.  Edges carry a rank (their
position in the input edge list); several routines depend on that order, so
it is preserved by parsing and by induced subgraphs.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence

from .errors import GraphParseError
from .record import Record

# largest vertex count parse_graph accepts; Graph allocates per vertex, so a
# header is checked against it before anything is built
MAX_GRAPH_VERTICES = 1_000_000


def bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Immutable simple graph on vertices 0..n-1 with an ordered edge list.

    edges is a tuple of (u, v) pairs with u < v; the index of a pair is the
    edge's rank.  Parallel edges and loops are rejected.
    """

    __slots__ = ("n", "edges", "adj_mask", "_hash")

    def __init__(self, n: int, edges: Sequence[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        edges = tuple((int(u), int(v)) for u, v in edges)
        adj_mask = [0] * n
        for u, v in edges:
            if not (0 <= u < v < n):
                raise ValueError(f"bad edge ({u}, {v}) for n={n}")
            if (adj_mask[u] >> v) & 1:
                raise ValueError(f"duplicate edge ({u}, {v})")
            adj_mask[u] |= 1 << v
            adj_mask[v] |= 1 << u
        self.n = n
        self.edges = edges
        self.adj_mask = tuple(adj_mask)
        self._hash = hash((n, edges))

    @property
    def m(self) -> int:
        return len(self.edges)

    def __eq__(self, other: object) -> bool:
        # the stored hash rejects almost every unequal pair without walking
        # the edge tuples
        return (
            isinstance(other, Graph)
            and self._hash == other._hash
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self.edges)})"

    def degree(self, v: int) -> int:
        return self.adj_mask[v].bit_count()

    def max_degree(self) -> int:
        return max((a.bit_count() for a in self.adj_mask), default=0)

    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def induced_subgraph(self, vset: int) -> tuple["Graph", tuple[int, ...]]:
        """Subgraph induced by the vertex mask.

        Returns (H, old_ids) where old_ids[i] is the original label of H's
        vertex i; H's edge order inherits the host's rank order.
        """
        old_ids = tuple(bits(vset))
        new_id = {v: i for i, v in enumerate(old_ids)}
        edges = [
            (new_id[u], new_id[v])
            for u, v in self.edges
            if (vset >> u) & 1 and (vset >> v) & 1
        ]
        return Graph(len(old_ids), edges), old_ids

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        return self.component_of(0) == self.vertex_mask()

    def component_of(self, v: int) -> int:
        """Bitmask of the connected component containing v."""
        seen = 1 << v
        frontier = seen
        while frontier:
            grow = 0
            for u in bits(frontier):
                grow |= self.adj_mask[u]
            frontier = grow & ~seen
            seen |= frontier
        return seen


class Tree(Record):
    """A tree inside a host graph: vertex bitmask plus host edge ranks.

    Single vertices are trees with no edges; every forest decomposes into
    these.  Construction does not validate; use tree_from_edges for that.
    """

    __slots__ = ("vset", "edge_ranks")

    def __init__(self, vset: int, edge_ranks: tuple[int, ...]):
        object.__setattr__(self, "vset", vset)
        object.__setattr__(self, "edge_ranks", edge_ranks)

    @property
    def size(self) -> int:
        return self.vset.bit_count()

    def vertices(self) -> tuple[int, ...]:
        return tuple(bits(self.vset))


def tree_from_edges(g: Graph, edge_ranks: Sequence[int]) -> Tree:
    """Validated Tree from host edge ranks.

    Every rank must name an edge of g (0 <= rank < g.m) and appear once,
    and the edges must be connected and acyclic; a ValueError says which
    fails.  Edges are joined in rank order with per-vertex component masks:
    an edge whose ends already share a mask closes a cycle, and an acyclic
    set of k edges is connected exactly when its last merged component has
    k + 1 vertices.
    """
    ranks = tuple(sorted(edge_ranks))
    if not ranks:
        raise ValueError("a tree needs at least one vertex; pass a singleton vset instead")
    bad = [r for r in ranks if not 0 <= r < g.m]
    if bad:
        raise ValueError(f"edge ranks out of range: {bad}")
    if len(set(ranks)) != len(ranks):
        raise ValueError(f"repeated edge rank in {list(ranks)}")
    comp: dict[int, int] = {}
    for r in ranks:
        u, v = g.edges[r]
        cu = comp.get(u, 1 << u)
        if (cu >> v) & 1:
            raise ValueError("edge set has a cycle")
        joined = cu | comp.get(v, 1 << v)
        for w in bits(joined):
            comp[w] = joined
    if joined.bit_count() != len(ranks) + 1:
        raise ValueError("edge set is not connected")
    return Tree(joined, ranks)


def _decimals(tokens: list[str], lineno: int, what: str) -> tuple[int, int]:
    """The two tokens of a line as ints.  Only ASCII digits are accepted:
    int() would also take a sign, underscores and non-ASCII digits."""
    if all(tok.isascii() and tok.isdigit() for tok in tokens):
        try:
            return int(tokens[0]), int(tokens[1])
        except ValueError:  # more digits than int() converts
            pass
    raise GraphParseError(lineno, f"{what} must be written with the digits 0-9 only")


def parse_graph(text: str) -> Graph:
    """Parse "n m" header plus m "u v" edge lines (0 <= u < v < n), every
    number written with the ASCII digits 0-9 alone.

    Lines starting with '#' and blank lines are skipped; CRLF is accepted.
    A header with more than MAX_GRAPH_VERTICES vertices is refused before
    anything is allocated.  Errors name the offending physical (1-based)
    line.
    """
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    last_line = 0
    for lineno, raw in enumerate(text.split("\n"), start=1):
        last_line = lineno
        line = raw.rstrip("\r").strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if header is None:
            if len(tokens) != 2:
                raise GraphParseError(lineno, "header must be 'n m'")
            n, m = _decimals(tokens, lineno, "header counts")
            if n > MAX_GRAPH_VERTICES:
                raise GraphParseError(
                    lineno, f"{n} vertices exceed the limit of {MAX_GRAPH_VERTICES}"
                )
            header = (n, m)
            continue
        n, m = header
        if len(edges) == m:
            raise GraphParseError(lineno, f"more than {m} edge lines")
        if len(tokens) != 2:
            raise GraphParseError(lineno, "edge line must be 'u v'")
        u, v = _decimals(tokens, lineno, "edge endpoints")
        if u == v:
            raise GraphParseError(lineno, f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(lineno, f"vertex out of range in edge {u} {v}")
        if u > v:
            raise GraphParseError(lineno, f"edge {u} {v} must be written with u < v")
        if (u, v) in seen:
            raise GraphParseError(lineno, f"duplicate edge {u} {v}")
        seen.add((u, v))
        edges.append((u, v))
    if header is None:
        raise GraphParseError(last_line or 1, "missing 'n m' header")
    n, m = header
    if len(edges) != m:
        raise GraphParseError(
            last_line, f"expected {m} edges, found {len(edges)}"
        )
    return Graph(n, edges)


def format_graph(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def enumerate_connected_sets(
    g: Graph, max_size: int, min_size: int = 1
) -> Iterator[tuple[int, int, tuple[int, ...]]]:
    """All vertex subsets inducing a connected subgraph, as (mask, nbr, code).

    The pipeline does not call this generator: code_table runs the same
    search and sums weights per code in one pass.  It stays as the
    reference the tests compare code_table with, and as the function
    perfbench/tracer.py wraps (as coeffs.enumerate_connected_sets) to count
    connected sets, so that count reads 0 on every query.

    Sizes run from min_size to max_size.  Each set is produced exactly once:
    sets are rooted at their smallest vertex and grown depth-first, one
    candidate neighbour at a time, through vertices that are not banned.
    The root and every vertex below it are banned from the start.  Once a
    set has tried a vertex as its next one, that vertex stays banned in
    every set grown from it afterwards, so no set is reached twice.  Every
    vertex of a set is banned, so growing a set by u adds the candidates
    adj(u) & ~banned.  The search keeps its own stack of partial sets in
    one generator frame, and the sets of max_size vertices are yielded
    straight from their parent's candidates without being pushed.  The
    order is that of a recursive search (each set before the sets grown
    from it, candidates by ascending vertex).  No caller relies on it: coeffs
    sums the sets' weights per code before it names any class.

    nbr is the OR of the adjacency masks over mask, so the set's outer
    boundary is nbr & ~mask and its closed neighbourhood is mask | nbr.
    code is the row code of g[mask] with its vertices numbered in the order
    they were added, the root first: code[i] is the bitmask of the
    positions j < i whose vertices are adjacent to the vertex at position
    i, so code[0] = 0 and len(code) = |mask|.  It is an exact labelled copy
    of g[mask], in the format row_code gives a whole graph; code_table
    packs the same rows into one int.  Adding a vertex u updates all three
    in O(deg u).
    """
    min_size = max(min_size, 1)
    # sets of max_size vertices are yielded below without a size check
    if max_size < min_size:
        return
    adj_mask = g.adj_mask
    # position of each vertex of the current set in its code; entries of
    # vertices outside the set are stale and never read
    pos = [0] * g.n
    last = max_size - 1
    # the partial sets below the current one, as (set, nbr, code,
    # remaining candidates, banned)
    stack: list[tuple[int, int, tuple[int, ...], int, int]] = []
    push, pop = stack.append, stack.pop
    for root in range(g.n):
        sset = 1 << root
        nbr = adj_mask[root]
        code: tuple[int, ...] = (0,)
        if min_size == 1:
            yield sset, nbr, code
        if not last:
            continue
        pos[root] = 0
        banned = (sset << 1) - 1
        cand = nbr & ~banned
        size = 1
        while True:
            if cand:
                low = cand & -cand
                cand ^= low
                u = low.bit_length() - 1
                au = adj_mask[u]
                row = 0
                inside = au & sset
                while inside:
                    b = inside & -inside
                    inside ^= b
                    row |= 1 << pos[b.bit_length() - 1]
                if size == last:
                    # nothing grows from a set of max_size vertices
                    yield sset | low, nbr | au, code + (row,)
                    continue
                banned |= low
                pos[u] = size
                push((sset, nbr, code, cand, banned))
                sset |= low
                nbr |= au
                code += (row,)
                cand |= au & ~banned
                size += 1
                if size >= min_size:
                    yield sset, nbr, code
            elif stack:
                sset, nbr, code, cand, banned = pop()
                size -= 1
            else:
                break


def code_table(
    g: Graph, cap: int, weight: Callable[[int, int], int]
) -> dict[int, list[int]]:
    """{packed row code: [summed weight, mask of the code's first set]} over
    the connected sets C of g with 2 <= |C| <= cap, where a set of exactly
    cap vertices weighs 1 and a smaller one weight(|C|, b), b the size of
    its outer boundary.  A set that weighs 0 is skipped, so a code's mask
    is that of its first set with a nonzero weight, and a code all of
    whose sets weigh 0 has no entry.

    The search is that of enumerate_connected_sets (roots, candidate order
    and set order alike), so the codes, their sums and their first masks
    are those a loop over the generator would build.  A code is packed
    into one int with row i at bit i(i-1)/2 (unpack_code gives the rows
    back), so appending a row is one OR and a key is one small int.  The
    sets of cap vertices are counted from their parent's candidates,
    without building their masks or neighbourhoods: only a new code's
    entry builds a mask.  Each new vertex's row is built once, whether its
    set is at the cap or grows on, and a vertex with a single neighbour in
    the set gets its row from that neighbour's position alone.  The search
    keeps each set's closed neighbourhood N[C] (|N[C]| = |C| + b) and the
    vertices it may still add, rather than those it may not, so growing a
    set costs no complement.  Weights below the cap are tabulated once by
    (|C|, |N[C]|); a boundary holds at most |C| * (max degree) and
    n - |C| vertices.  Besides the table, the search allocates a few
    objects per call (a position list, a shifted copy of the adjacency
    tuple, the weight rows) and its stack of partial sets, none per set of
    cap vertices.
    """
    table: dict[int, list[int]] = {}
    if cap < 2:
        return table
    n = g.n
    # adj[v + 1] and pos[v + 1] belong to vertex v, so that a one-bit mask's
    # bit_length indexes them with no subtraction
    adj = (0,) + g.adj_mask
    top = g.max_degree()
    # wt[s][c]: the weight of a set of s vertices with |N[C]| = c, for the
    # sizes 2 <= s < cap that a set below the cap can have
    wt = [[]] * 2 + [
        [0] * s + [weight(s, b) for b in range(min(n - s, s * top) + 1)]
        for s in range(2, min(cap, n + 1))
    ]
    last = cap - 1
    get = table.get
    # position of each vertex of the current set in its code; entries of
    # vertices outside the set are stale and never read
    pos = [0] * (n + 1)
    # the partial sets below the current one, as (set, closed neighbourhood,
    # code, remaining candidates, vertices it may still add)
    stack: list[tuple[int, int, int, int, int]] = []
    push, pop = stack.append, stack.pop
    # the vertices above the root: a set may add only those
    above = (1 << n) - 1
    for root in range(n):
        sset = 1 << root
        above ^= sset
        closed = adj[root + 1]
        cand = closed & above
        if not cand:
            continue
        closed |= sset
        allowed = above
        pos[root + 1] = 0
        code = 0
        # the set's size, and the bit at which the next vertex's row goes
        size, off = 1, 0
        while True:
            if cand:
                low = cand & -cand
                cand ^= low
                u = low.bit_length()
                au = adj[u]
                inside = au & sset
                if inside & (inside - 1):
                    row = 0
                    while inside:
                        b = inside & -inside
                        inside ^= b
                        row |= 1 << pos[b.bit_length()]
                else:
                    # one neighbour in the set, as for most vertices added
                    # to a sparse graph's sets
                    row = 1 << pos[inside.bit_length()]
                if size == last:
                    # a set of cap vertices, of weight 1: counted, not built
                    key = code | row << off
                    entry = get(key)
                    if entry is None:
                        table[key] = [1, sset | low]
                    else:
                        entry[0] += 1
                    continue
                # tried here, so no set grown after this one adds it
                allowed ^= low
                push((sset, closed, code, cand, allowed))
                pos[u] = size
                sset |= low
                closed |= au
                code |= row << off
                cand |= au & allowed
                off += size
                size += 1
                w = wt[size][closed.bit_count()]
                if w:
                    entry = get(code)
                    if entry is None:
                        table[code] = [w, sset]
                    else:
                        entry[0] += w
                continue
            if not stack:
                break
            sset, closed, code, cand, allowed = pop()
            size -= 1
            off -= size
    return table


def unpack_code(code: int) -> tuple[int, ...]:
    """The rows of a row code packed by code_table, row i read from the i
    bits at bit i(i-1)/2.  The rows end at the last nonzero one, which is
    exact for the code of a connected set: every row after the first has
    a bit, for the new vertex's edge into the set."""
    rows = [0]
    size = 1
    while code:
        rows.append(code & ((1 << size) - 1))
        code >>= size
        size += 1
    return tuple(rows)


def connected_masks(g: Graph, within: int, max_size: int) -> Iterator[int]:
    """The masks of the connected sets of g of at most max_size vertices
    inside the vertex mask within: the search of enumerate_connected_sets
    (each set rooted at its lowest vertex, a vertex once tried banned from
    the sets grown after it) with every vertex outside within banned, and
    no boundary or row code kept.  Only the roots in within are visited,
    so a small mask of a large graph costs nothing per vertex of g."""
    adj = g.adj_mask
    rest = within
    stack: list[tuple[int, int, int, int]] = []
    push, pop = stack.append, stack.pop
    while rest:
        sset = rest & -rest
        # the vertices a set rooted here may add: those of within above it
        rest ^= sset
        yield sset
        if max_size < 2:
            continue
        allowed = rest
        cand = adj[sset.bit_length() - 1] & allowed
        size = 1
        while True:
            if cand:
                low = cand & -cand
                cand ^= low
                allowed ^= low
                grown = sset | low
                yield grown
                if size + 1 < max_size:
                    push((sset, cand, allowed, size))
                    sset, size = grown, size + 1
                    cand |= adj[low.bit_length() - 1] & allowed
            elif stack:
                sset, cand, allowed, size = pop()
            else:
                break


def row_code(g: Graph) -> tuple[int, ...]:
    """g's row code under its own labels: entry i is the bitmask of the
    neighbours of i below i (the code format of enumerate_connected_sets)."""
    return tuple(a & ((1 << i) - 1) for i, a in enumerate(g.adj_mask))


def spanning_trees(g: Graph) -> Iterator[Tree]:
    """Spanning trees of a connected graph, lexicographic in rank sequence.

    A depth-first search adds edges in rank order and skips an edge whose
    ends already share a component; each level holds its own list of
    per-vertex component masks, so backtracking has nothing to undo.  The
    trees come out in the order of itertools.combinations(range(g.m),
    g.n - 1), restricted to the subsets that form a tree.
    """
    n = g.n
    if n == 0:
        return
    if not g.is_connected():
        raise ValueError("spanning_trees requires a connected graph")
    need = n - 1
    m = g.m
    ends = g.edges
    full = g.vertex_mask()

    def rec(start: int, comp: list[int], chosen: tuple[int, ...]) -> Iterator[Tree]:
        if len(chosen) == need:
            yield Tree(full, chosen)
            return
        # i stops where too few edges are left to finish the tree
        for i in range(start, m - need + len(chosen) + 1):
            u, v = ends[i]
            if (comp[u] >> v) & 1:
                continue
            joined = comp[u] | comp[v]
            merged = comp.copy()
            for w in bits(joined):
                merged[w] = joined
            yield from rec(i + 1, merged, chosen + (i,))

    yield from rec(0, [1 << v for v in range(n)], ())


def broken_edges(g: Graph, tree: Tree) -> tuple[int, ...]:
    """Non-tree edges of g[V(tree)] that are the maximum-rank edge of their
    fundamental cycle with respect to the tree, in rank order.

    The tree must span g[V(tree)] for fundamental cycles to exist; callers
    pass either a spanning tree of g or a component tree with g restricted.

    One sweep over g's edges in rank order: a tree edge merges the
    component masks of its ends, and a chord uv inside V(tree) is broken
    exactly when u and v already share a mask.  The tree edges met so far
    are those of lower rank, and they join u and v exactly when the whole
    tree path between u and v has lower rank than uv, that is, when uv is
    the maximum of its fundamental cycle.
    """
    vset = tree.vset
    in_tree = 0
    for r in tree.edge_ranks:
        in_tree |= 1 << r
    comp = {v: 1 << v for v in bits(vset)}
    out = []
    for r, (u, v) in enumerate(g.edges):
        if not ((vset >> u) & 1 and (vset >> v) & 1):
            continue
        if (in_tree >> r) & 1:
            joined = comp[u] | comp[v]
            for w in bits(joined):
                comp[w] = joined
        elif (comp[u] >> v) & 1:
            out.append(r)
    return tuple(out)
