"""Two integer kernels, in pure Python: edge-colored canonical labeling, hot
on the certified path, and an exact chain-order integration DP.  BACKEND
names the implementation (forestvol.KERNEL_BACKEND).

Nothing in the package calls poset_integral_packed any more: the certified
path weighs polymers by the |z|-order recurrence in treeweight, and
oracles.exact_volume
integrates over independent sets.  It stays only because perfbench/tracer.py
traces it by name and raises on a missing target; it goes together with
that entry in the next change to perfbench/.  tests/test_treeweight.py
checks it against linear-extension counts.

Data conventions:

* canon_key takes n and a flat n*n symmetric color matrix (bytes, 0 = no
  edge) and returns bytes([n]) + the least leaf key of its search tree.
  A node of the tree is a vertex colouring refined to a fixed point; a
  node with a non-singleton cell branches by giving each vertex of its
  first such cell a fresh colour in turn, and a leaf (every cell a
  singleton) orders the vertices by colour and reads off the upper
  triangle (row-major, i < j) of the color matrix in that order.

  The search prunes by automorphisms.  It keeps the vertex order of the
  first leaf to give each key; a later leaf with the same key yields the
  automorphism mapping the one order onto the other.  Refinement, the
  choice of target cell and individualisation all commute with any
  automorphism that keeps a node's colouring, so such an automorphism
  maps the subtree below child v onto the one below its image, leaf keys
  and all.  A child is therefore skipped when the automorphisms found so
  far that keep the node's colouring put it in one orbit with an earlier
  sibling: the least key over the leaves visited is the least over the
  whole tree, and the key does not depend on how much was pruned.  K9,
  with 9! leaves, is labelled from 37.

* poset_integral_packed computes F_S(a, b) for the recursion
      F_empty = p,   F_U = sum over minimal u of Int_m^b F_(U-u)[m := x_u] dx_u
  evaluated at m = a, over the elements 0..k-1 with x_j < x_i for every
  bit j of preds[i].  Polynomials are dicts mapping packed exponent keys to
  integer numerators over one shared denominator; variable i occupies bits
  [6i, 6i+6), slot k is the symbolic lower bound m.
"""

from __future__ import annotations

from math import gcd, lcm

BACKEND = "python"

_SHIFT = 6
_EMASK = 63


def canon_key(n: int, flat: bytes) -> bytes:
    if n == 0:
        return b"\x00"
    if n == 1:
        return b"\x01"
    rows = [flat[i * n : (i + 1) * n] for i in range(n)]
    nbrs = [[u for u in range(n) if rows[v][u]] for v in range(n)]

    def refine(colors: list[int]) -> list[int]:
        while True:
            # every value is below 2^24, so these tuples sort exactly as
            # their fixed-width 3-byte big-endian strings would
            sigs = [
                (colors[v], *sorted((rows[v][u] << 16) | colors[u] for u in nbrs[v]))
                for v in range(n)
            ]
            index = {s: i for i, s in enumerate(sorted(set(sigs)))}
            new = [index[s] for s in sigs]
            # sig leads with the old color, so ids are stable at a fixed point
            if new == colors:
                return colors
            colors = new

    # leaf key -> the vertex order of the first leaf that gave it
    first: dict[bytes, list[int]] = {}
    # automorphisms, as vertex maps, found by two leaves with equal keys
    autos: list[list[int]] = []

    def search(colors: list[int]) -> None:
        colors = refine(colors)
        counts = [0] * (n + 1)
        for c in colors:
            counts[c] += 1
        target = -1
        for c in range(n):
            if counts[c] > 1:
                target = c
                break
        if target < 0:
            order = sorted(range(n), key=colors.__getitem__)
            key = _leaf_key(rows, order)
            seen = first.setdefault(key, order)
            if seen != order:
                perm = [0] * n
                for u, v in zip(seen, order):
                    perm[u] = v
                autos.append(perm)
            return
        cell = [v for v in range(n) if colors[v] == target]
        # orbits of the cell under the found automorphisms that keep this
        # colouring; every root is its orbit's least vertex
        parent = list(range(n))
        used = 0
        for v in cell:
            while used < len(autos):
                perm = autos[used]
                used += 1
                if all(colors[perm[x]] == colors[x] for x in range(n)):
                    for x in cell:
                        a, b = sorted((_root(parent, x), _root(parent, perm[x])))
                        parent[b] = a
            if _root(parent, v) < v:
                continue  # an image of an earlier sibling's subtree
            child = colors.copy()
            child[v] = n  # fresh id: existing ids are < n
            search(child)

    search([0] * n)
    return bytes([n]) + min(first)


def _leaf_key(rows: list[bytes], order: list[int]) -> bytes:
    """Upper triangle of the color matrix with vertices taken in order."""
    tri = bytearray()
    for i in range(len(order)):
        ri = rows[order[i]]
        for j in range(i + 1, len(order)):
            tri.append(ri[order[j]])
    return bytes(tri)


def _root(parent: list[int], x: int) -> int:
    while parent[x] != x:
        x = parent[x]
    return x


def poset_integral_packed(
    k: int,
    preds: tuple[int, ...],
    terms: dict[int, int],
    den: int,
    a_num: int,
    a_den: int,
    b_num: int,
    b_den: int,
) -> tuple[int, int]:
    """Exact F_S(a, b); returns an unreduced (numerator, denominator) pair."""
    mpos = _SHIFT * k
    layer: dict[int, tuple[dict[int, int], int]] = {0: (dict(terms), den)}
    for size in range(1, k + 1):
        nxt: dict[int, tuple[dict[int, int], int]] = {}
        for umask in _masks_of_size(k, size):
            acc: dict[int, int] = {}
            acc_den = 1
            rest = umask
            while rest:
                low = rest & -rest
                rest ^= low
                u = low.bit_length() - 1
                if preds[u] & umask:
                    continue  # not minimal in umask
                prev_poly, prev_den = layer[umask ^ low]
                poly, pden = _integrate_step(
                    prev_poly, prev_den, u, mpos, b_num, b_den
                )
                acc, acc_den = _poly_add(acc, acc_den, poly, pden)
            nxt[umask] = (acc, acc_den)
        layer = nxt
    poly, pden = layer[(1 << k) - 1]
    return _eval_m(poly, pden, mpos, a_num, a_den)


def _masks_of_size(k: int, size: int):
    # Gosper's hack, ascending
    if size == 0:
        yield 0
        return
    mask = (1 << size) - 1
    limit = 1 << k
    while mask < limit:
        yield mask
        c = mask & -mask
        r = mask + c
        mask = (((r ^ mask) >> 2) // c) | r


def _integrate_step(
    poly: dict[int, int],
    den: int,
    u: int,
    mpos: int,
    b_num: int,
    b_den: int,
) -> tuple[dict[int, int], int]:
    """Int_m^b poly[m := x_u] dx_u, with m re-entering at slot mpos/6."""
    upos = _SHIFT * u
    # substitute m -> x_u, take the antiderivative in x_u
    shifted: dict[int, tuple[int, int]] = {}
    div_lcm = 1
    for key, num in poly.items():
        em = (key >> mpos) & _EMASK
        if em:
            key = key - (em << mpos) + (em << upos)
        e = ((key >> upos) & _EMASK) + 1
        if e >= _EMASK:
            raise OverflowError("exponent field overflow")
        key += 1 << upos
        old = shifted.get(key)
        if old is None:
            shifted[key] = (num, e)
            div_lcm = lcm(div_lcm, e)
        else:
            # same key can arise twice after the m shift; e matches the key
            shifted[key] = (old[0] + num, e)
    out: dict[int, int] = {}
    if b_num == 0:
        # upper evaluation vanishes termwise (every term has x_u)
        out_den = den * div_lcm
        for key, (num, e) in shifted.items():
            scaled = num * (div_lcm // e)
            mk = key - (e << upos) + (e << mpos)
            prev = out.get(mk, 0)
            val = prev - scaled
            if val:
                out[mk] = val
            elif prev:
                del out[mk]
        return out, out_den
    max_e = 0
    for key, (_, e) in shifted.items():
        if e > max_e:
            max_e = e
    out_den = den * div_lcm * (b_den**max_e)
    bpow_num = [b_num**e for e in range(max_e + 1)]
    bpow_den = [b_den ** (max_e - e) for e in range(max_e + 1)]
    for key, (num, e) in shifted.items():
        scaled = num * (div_lcm // e)
        base = key - (e << upos)
        # + at x_u = b
        val = out.get(base, 0) + scaled * bpow_num[e] * bpow_den[e]
        if val:
            out[base] = val
        elif base in out:
            del out[base]
        # - at x_u = m
        mk = base + (e << mpos)
        val = out.get(mk, 0) - scaled * (b_den**max_e)
        if val:
            out[mk] = val
        elif mk in out:
            del out[mk]
    return out, out_den


def _poly_add(
    p1: dict[int, int], d1: int, p2: dict[int, int], d2: int
) -> tuple[dict[int, int], int]:
    if not p1:
        return p2, d2
    if not p2:
        return p1, d1
    d = lcm(d1, d2)
    s1 = d // d1
    s2 = d // d2
    out = {k: v * s1 for k, v in p1.items()} if s1 != 1 else dict(p1)
    for k, v in p2.items():
        val = out.get(k, 0) + v * s2
        if val:
            out[k] = val
        elif k in out:
            del out[k]
    return out, d


def _eval_m(
    poly: dict[int, int], den: int, mpos: int, a_num: int, a_den: int
) -> tuple[int, int]:
    if not poly:
        return 0, 1
    max_e = 0
    for key in poly:
        e = key >> mpos
        if e > max_e:
            max_e = e
    total = 0
    for key, num in poly.items():
        e = key >> mpos
        if key != (e << mpos):
            raise ValueError("unintegrated variable at final evaluation")
        total += num * (a_num**e) * (a_den ** (max_e - e))
    d = den * (a_den**max_e)
    g = gcd(total, d)
    if g:
        total //= g
        d //= g
    return total, d
