#!/usr/bin/env python3
"""Benchmark of forestvol's certified-volume queries.

Run from the repository root:

    python3 perfbench/run.py --workload cold_dense --seed 1 --seconds 30 --trace 0

One process sends one ``approximate_volume`` query at a time (closed loop,
one client) with the library defaults (``threads=1``, kernel backend as
imported).  The parent imports forestvol from ``src/`` and builds the
workload's base graph, then runs no query itself: every cold query, and
every delta sweep, runs in a fresh forked child, so each starts with every
process-global cache empty whatever caches the program has.  The child
relabels the base graph for its query before the timed call.  Every answer
is checked and the last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, measured untraced.  Their
times are scaled to a reference machine speed (see calibrate.py); the raw
figures are printed above the result line.
``--trace 1`` alternates untraced and traced queries and reports the
per-layer metrics of the traced ones (see tracer.py) plus the tracing
overhead.  ``--make-reference`` recomputes ``reference.json``.
"""

from __future__ import annotations

import argparse
import functools
import json
import multiprocessing as mp
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

# numpy is imported by forestvol; keep its thread pool from starting so the
# parent is single-threaded when it forks.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import tracer  # noqa: E402
from calibrate import CAL_REF_S, calibrate  # noqa: E402
from workloads import WORKLOADS, answer_digest, base_graph, relabelled  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")  # metric names and units
MIN_QUERIES = 3  # counted queries per --trace 0 run, even past --seconds
SETUP_SAMPLES = 7  # fresh interpreters timed per --trace 0 run
RUN_LIMIT_S = 170.0  # a run must exit within 180 s
MC_SAMPLES = 1 << 20
MC_SIGMAS = 5


def import_forestvol():
    try:
        import forestvol
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import forestvol from {SRC}: {exc}")
    if not os.path.abspath(forestvol.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: forestvol came from {forestvol.__file__}, not {SRC}")
    return forestvol


# ---------------------------------------------------------------- child side


def _memo_state():
    """(hits, misses, entries) of the process-wide tree-weight memo."""
    from forestvol import treeweight

    cache = treeweight.default_cache()
    return cache.hits, cache.misses, len(cache.normalized)


def _query(g, delta, eps, traced):
    import forestvol

    before = _memo_state()
    tr = tracer.Tracer() if traced else None
    call = forestvol.approximate_volume
    if tr is not None:
        tr.install()
        call = tr.wrap(tracer.ROOT, call)
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        res = call(g, delta, eps)
    finally:
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        if tr is not None:
            tr.uninstall()
    after = _memo_state()
    out = {
        "wall_s": wall,
        "cpu_s": cpu,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "K": res.K,
        "a": res.a,
        "lower": res.lower,
        "upper": res.upper,
        "memo": (after[0] - before[0], after[1] - before[1], after[2]),
    }
    if tr is not None:
        out.update(spans=tr.spans, counts=dict(tr.counts))
    return out


def _serve(conn, make_graph, eps):
    """Build the input graph, then answer (delta, traced) requests on it
    until told to stop."""
    try:
        g = make_graph()
        while True:
            msg = conn.recv()
            if msg is None:
                return
            try:
                conn.send(_query(g, msg[0], eps, msg[1]))
            except Exception:
                conn.send({"error": traceback.format_exc()})
    finally:
        conn.close()


class Session:
    """A forked child that builds one input graph with make_graph() and
    answers queries on it; its caches start as the parent left them, i.e.
    empty."""

    def __init__(self, make_graph, eps):
        ctx = mp.get_context("fork")
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=_serve, args=(child, make_graph, eps), daemon=True)
        self.proc.start()
        child.close()

    def ask(self, delta, traced, deadline):
        self.conn.send((delta, traced))
        if not self.conn.poll(max(deadline - time.monotonic(), 0.0)):
            return {"error": "query did not finish before the run limit"}
        try:
            return self.conn.recv()
        except EOFError:
            return {"error": f"child exited with code {self.proc.exitcode}"}

    def close(self):
        try:
            self.conn.send(None)
        except OSError:
            pass
        self.proc.join(5)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join()
        self.conn.close()


# --------------------------------------------------------------- parent side


def run_queries(w, g0, seed, seconds, trace, deadline):
    """Closed loop until --seconds is used up.

    Returns one record per query and, with --trace 0, the set-up samples.
    Query i of a cold workload, and sweep i of a sweep workload, runs on
    relabelled(g0, seed, i).  A query, or a whole sweep, is only started when
    the median duration of those done so far says it fits, so a run ends
    close to --seconds instead of overrunning by one.  A sweep once started
    runs all its points.  With --trace 1 untraced and traced queries
    alternate so the overhead ratio compares like with like.  With --trace 0
    the set-up samples are spread evenly over the run, so their median
    covers the same stretch of time as the queries, and a calibration is
    taken right before every query and every set-up sample: each of these is
    then paired with the mean of the calibrations just before and just after
    it.
    """
    start = time.monotonic()
    records, items, setup = [], [], []
    setup_wall = 0.0  # time spent taking set-up samples
    cals = []  # (wall, cpu) of each calibration, in the order taken

    def counted(traced=None):
        return [
            r
            for r in records
            if r["counted"] and (traced is None or r["traced"] == traced)
        ]

    def fits():
        if trace:
            if not counted(True) or not counted(False):
                return True
        elif len(counted()) < MIN_QUERIES:
            return True
        est = statistics.median(items)
        now = time.monotonic()
        return now - start + est <= seconds and now + est <= deadline

    def calibrate_now():
        """Index in cals of a calibration taken now; None under --trace 1."""
        if trace:
            return None
        cals.append(calibrate())
        return len(cals) - 1

    def sample_setup(final=False):
        nonlocal setup_wall
        if trace:
            return
        t0 = time.perf_counter()
        due = SETUP_SAMPLES if final else 1 + SETUP_SAMPLES * (time.monotonic() - start) / seconds
        while len(setup) < min(SETUP_SAMPLES, due):
            k = calibrate_now()
            setup.append((setup_seconds(w), k))
        setup_wall += time.perf_counter() - t0

    def ask(session, delta, traced, is_counted, cal):
        t0 = time.perf_counter()
        rec = session.ask(delta, traced, deadline)
        rec.update(
            delta=delta,
            traced=traced,
            counted=is_counted,
            cal=cal,
            roundtrip_s=time.perf_counter() - t0,
        )
        records.append(rec)
        return "error" not in rec

    index = 0
    while time.monotonic() < deadline:
        sample_setup()
        if not fits():
            break
        t0, spent = time.perf_counter(), setup_wall
        cal = calibrate_now()
        t_fork = time.perf_counter()
        session = Session(functools.partial(relabelled, g0, seed, index), w.eps)
        try:
            if not w.sweep:
                ok = ask(session, w.deltas[0], bool(trace and index % 2), True, cal)
            else:
                # the cold first point fills the caches and is not counted
                ok = ask(session, w.deltas[0], False, False, cal)
                for j, delta in enumerate(w.deltas[1:]):
                    if not ok:
                        break
                    sample_setup()
                    ok = ask(session, delta, bool(trace and j % 2), True, calibrate_now())
        finally:
            session.close()
        items.append(time.perf_counter() - t0 - (setup_wall - spent))
        if not w.sweep:
            records[-1]["roundtrip_s"] = time.perf_counter() - t_fork
        index += 1
        if not ok:
            break
    sample_setup(final=True)
    if trace:
        return records, setup
    calibrate_now()

    def around(k):
        (w0, c0), (w1, c1) = cals[k], cals[k + 1]
        return (w0 + w1) / 2, (c0 + c1) / 2

    for r in records:
        r["cal"] = around(r["cal"])
    return records, [(secs, around(k)) for secs, k in setup]


def check(records, w, forestvol, ref, seed, g0):
    """Mark each record's failure reason (None when it passed); returns the
    run-level problems."""
    problems = []
    if forestvol.KERNEL_BACKEND != ref["backend"]:
        problems.append(
            f"kernel backend {forestvol.KERNEL_BACKEND!r} differs from the "
            f"reference backend {ref['backend']!r}"
        )
    expected = ref["answers"][w.name]
    exact = Fraction(ref["petersen_exact_volume"]) if w.graph == "petersen" else None
    bound = (1 + w.eps) ** 2
    for r in records:
        r["fail"] = None
        if "error" in r:
            r["fail"] = r["error"].strip().splitlines()[-1]
            continue
        lo, hi = r["lower"], r["upper"]
        r["digest"] = answer_digest(r["delta"], r["a"], lo, hi)
        if r["K"] != w.K:
            r["fail"] = f"K = {r['K']}, expected {w.K}"
        elif not lo <= hi <= lo * bound:
            r["fail"] = "interval violates lower <= upper <= lower*(1+eps)^2"
        elif r["digest"] != expected.get(str(r["delta"])):
            r["fail"] = f"answer digest {r['digest']} differs from reference.json"
        elif exact is not None and not lo <= exact <= hi:
            r["fail"] = "exact Petersen volume lies outside [lower, upper]"
    # The same input up to relabelling must do the same tree-weight work
    # cold, and a sweep's warm points must find every weight in the memo.
    answered = [r for r in records if "error" not in r]
    cold = [r["memo"][1] for r in answered if r["delta"] == w.deltas[0]]
    for r in answered:
        if r["fail"] is not None:
            continue
        misses = r["memo"][1]
        if r["delta"] == w.deltas[0]:
            if misses != cold[0]:
                r["fail"] = f"cold memo misses {misses} != {cold[0]}"
        elif misses != 0:
            r["fail"] = f"warm point has {misses} memo misses, expected 0"
    good = [r for r in records if r["fail"] is None]
    if w.graph == "dense16" and good:
        # Monte Carlo shares no code with the certified path
        r = good[0]
        mc = forestvol.mc_volume(g0, r["delta"], MC_SAMPLES, seed=seed)
        slack = MC_SIGMAS * mc.stderr
        if not float(r["lower"]) - slack <= mc.mean <= float(r["upper"]) + slack:
            problems.append(
                f"mc_volume {mc.mean:.6e} +- {mc.stderr:.1e} is more than "
                f"{MC_SIGMAS} sigma outside [lower, upper]"
            )
    return problems


def tail(values):
    """(value, percentile, samples beyond it) for the highest percentile with
    at least ten samples beyond it.  Below 21 samples that percentile would
    lie under the median, so the upper median is reported instead."""
    xs = sorted(values)
    n = len(xs)
    i = max(n - 11, n // 2)
    return xs[i], 100.0 * (i + 1) / n, n - 1 - i


def setup_seconds(w):
    """Time one fresh interpreter spends importing forestvol and building the
    workload's base graph."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload", w.name]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout.split()[-1])


def setup_only(w):
    t0 = time.perf_counter()
    import_forestvol()
    base_graph(w.graph)
    print(time.perf_counter() - t0)


def end_to_end(records, setup, failed):
    """name -> (value, unit) over the counted untraced queries that passed.

    Times are scaled by CAL_REF_S / the mean of the calibrations taken right
    before and right after the sample; peak RSS, throughput and the failure
    ratio are as measured.
    """
    done = [r for r in records if r["counted"] and not r["traced"] and r["fail"] is None]
    if not done:
        return {}
    walls = [r["wall_s"] * CAL_REF_S / r["cal"][0] for r in done]
    cpus = [r["cpu_s"] * CAL_REF_S / r["cal"][1] for r in done]
    setups = [s * CAL_REF_S / cal[0] for s, cal in setup]
    t, pct, beyond = tail(walls)
    print(f"# query_tail_s is p{pct:.0f} of n={len(walls)} queries, "
          f"{beyond} samples beyond it")
    print(f"# raw, unscaled: setup {statistics.median(s for s, _ in setup):.6g} s, "
          f"query p50 {statistics.median(r['wall_s'] for r in done):.6g} s, "
          f"cpu per query {statistics.median(r['cpu_s'] for r in done):.6g} s, "
          f"calibration {statistics.median(r['cal'][0] for r in done):.6g} s "
          f"(reference {CAL_REF_S} s)")
    return {
        "setup_s": (statistics.median(setups), "s"),
        "queries_per_s": (len(done) / sum(r["roundtrip_s"] for r in done), "1/s"),
        "query_p50_s": (statistics.median(walls), "s"),
        "query_tail_s": (t, "s"),
        "cpu_per_query_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in done), "MB"),
        "failed_ratio": (failed / len(records), "ratio"),
    }


def per_layer(records, units):
    """name -> (value, unit): medians over the traced queries that passed."""
    ok = [r for r in records if r["counted"] and r["fail"] is None]
    traced = [r for r in ok if r["traced"]]
    plain = [r for r in ok if not r["traced"]]
    if not traced or not plain:
        return {}
    rows = [tracer.layer_metrics(r["spans"], r["counts"], r["memo"], r["K"])
            for r in traced]
    values = tracer.median_metrics(rows)
    values["trace.overhead_ratio"] = statistics.median(
        r["wall_s"] for r in traced
    ) / statistics.median(r["wall_s"] for r in plain)
    print(f"# self time over {len(traced)} traced queries, share of approximate_volume:")
    for name, calls, own, share in tracer.self_time_shares(r["spans"] for r in traced)[:8]:
        print(f"#   {name:40s} {calls:9d} calls {own:9.3f} s {100 * share:5.1f}%")
    return {k: (v, units[k]) for k, v in values.items()}


def make_reference(forestvol):
    """Answers of every workload point and the exact Petersen volume, each
    computed in its own fresh child."""
    from forestvol import DeltaParams

    answers = {}
    for w in WORKLOADS.values():
        answers[w.name] = {}
        for delta in w.deltas:
            session = Session(functools.partial(base_graph, w.graph), w.eps)
            try:
                r = session.ask(delta, False, time.monotonic() + 600)
            finally:
                session.close()
            answers[w.name][str(delta)] = answer_digest(delta, r["a"], r["lower"], r["upper"])
    ctx = mp.get_context("fork")
    with ctx.Pool(1) as pool:
        exact = pool.apply(forestvol.exact_volume,
                           (base_graph("petersen"), DeltaParams(Fraction(1, 100))))
    return {
        "backend": forestvol.KERNEL_BACKEND,
        "petersen_exact_volume": str(exact),
        "answers": answers,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--make-reference", action="store_true",
                    help="print a fresh reference.json and exit")
    args = ap.parse_args()
    t_start = time.monotonic()
    if args.make_reference:
        print(json.dumps(make_reference(import_forestvol()), indent=1))
        return
    if args.workload is None:
        ap.error("--workload is required")
    w = WORKLOADS[args.workload]
    if args.setup_only:
        setup_only(w)
        return

    forestvol = import_forestvol()
    with open(REFERENCE) as fh:
        ref = json.load(fh)
    with open(SPEC) as fh:
        spec = json.load(fh)
    g0 = base_graph(w.graph)
    print(f"# env backend={forestvol.KERNEL_BACKEND} "
          f"python={platform.python_version()} nproc={len(os.sched_getaffinity(0))}")
    print(f"# workload={w.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")

    records, setup = run_queries(w, g0, args.seed, args.seconds, args.trace,
                                 t_start + RUN_LIMIT_S)
    problems = check(records, w, forestvol, ref, args.seed, g0)
    failed = len(records) if problems else sum(r["fail"] is not None for r in records)
    reported = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        values = per_layer(records, {m["name"]: m["unit"] for m in reported})
    else:
        values = end_to_end(records, setup, failed)

    for p in problems:
        print(f"# FAIL {p}")
    for r in records:
        if r["fail"] is not None:
            print(f"# FAIL query at delta={r['delta']}: {r['fail']}")
    digests = sorted({(str(r["delta"]), r["digest"]) for r in records if "digest" in r})
    for delta, d in digests:
        print(f"# digest {w.name} delta={delta} {d}")
    print(f"# failed {failed} of {len(records)} queries")
    gated = {m["name"] for m in reported}
    for name, (value, unit) in values.items():
        print(f"{name} = {value:.6g} {unit}" + ("" if name in gated else "  (not gated)"))
    metrics = {
        m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]}
        for m in reported
        if m["name"] in values
    }
    print(json.dumps({
        "correct": failed == 0 and len(metrics) == len(reported),
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
