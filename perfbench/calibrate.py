"""A fixed pure-Python task that times the machine rather than forestvol.

The host this benchmark was written on changes speed by up to 50% within
an hour and by 20-40% from one query to the next, and a query's time, an
import's time and this task's time all rise and fall together.  The
benchmark therefore times this task in a fresh fork right before each
query and each set-up sample, and scales each sample by
``CAL_REF_S / c``, where ``c`` is the mean task time just before and just
after it: the result is the time the sample would have taken on a machine
where the task takes ``CAL_REF_S``.  The task uses no forestvol code, so no
change to forestvol can move it.
"""

from __future__ import annotations

import multiprocessing as mp
import time

CAL_REF_S = 0.3  # seconds the task takes at the reference speed
_EXPECTED = (14209, 82)  # what reference_task() returns


def reference_task() -> tuple[int, int]:
    """Connected vertex sets of up to 9 cells in a 4 x 5 grid, grouped by a
    degree-sequence key: set, dict and tuple work like forestvol's."""
    n = 20
    adj = {v: set() for v in range(n)}
    for v in range(n):
        if v % 5 < 4:
            adj[v].add(v + 1)
            adj[v + 1].add(v)
        if v < 15:
            adj[v].add(v + 5)
            adj[v + 5].add(v)
    seen: set[frozenset[int]] = set()
    classes: dict[tuple, int] = {}
    frontier = [frozenset([v]) for v in range(n)]
    for size in range(1, 10):
        grown = []
        for s in frontier:
            if s in seen:
                continue
            seen.add(s)
            edges = sorted((u, w) for u in s for w in adj[u] if w in s and u < w)
            key = (tuple(sorted(len(adj[u] & s) for u in s)), len(edges))
            classes[key] = classes.get(key, 0) + 1
            if size < 9:
                grown.extend(s | {w} for u in s for w in adj[u] if w not in s)
        frontier = grown
    return len(seen), len(classes)


def _run(conn) -> None:
    c0 = time.process_time()
    t0 = time.perf_counter()
    out = reference_task()
    conn.send((time.perf_counter() - t0, time.process_time() - c0, out))
    conn.close()


def calibrate() -> tuple[float, float]:
    """(wall, cpu) seconds of reference_task() in a fresh fork."""
    ctx = mp.get_context("fork")
    conn, child = ctx.Pipe()
    proc = ctx.Process(target=_run, args=(child,))
    proc.start()
    child.close()
    try:
        wall, cpu, out = conn.recv()
    finally:
        proc.join()
        conn.close()
    if out != _EXPECTED:
        raise RuntimeError(f"reference task returned {out}, expected {_EXPECTED}")
    return wall, cpu
