"""Command-line front end.

Exit codes: 0 success, 1 selftest failure, 2 bad flags or invalid
parameter values, 3 graph file problems, 4 delta too large for the
requested degree bound, 5 size guard (graph too large for the exact DP, or a
truncation order above 16 on a graph of more than 32 vertices, for volume
and coeffs alike), 6 the
certificate failed (the interval re-check of the radius, or the search for
a truncation order).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from fractions import Fraction

from .coeffs import pattern_table
from .errors import (
    CertificateError,
    DeltaTooLargeError,
    GraphParseError,
    SizeGuardError,
)
from .graphs import Graph, parse_graph, tree_from_edges
from .interpolate import approximate_volume, truncation_order, zero_free_radius
from .oracles import exact_volume, mc_volume, penrose_check, root_check
from .treeweight import DeltaParams, tree_weight

_RATIONAL = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def _rational(text: str, name: str) -> Fraction:
    if "." in text or "e" in text.lower():
        raise ValueError(
            f"{name} must be an exact rational like 1/100; decimals are not accepted"
        )
    if not _RATIONAL.match(text):
        raise ValueError(f"{name} is not a rational p/q: {text!r}")
    return Fraction(text)


def _load_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def _add_common(p: argparse.ArgumentParser, graph: bool = True) -> None:
    if graph:
        p.add_argument("--graph", required=True, help="edge-list file")
    p.add_argument("--output", choices=("json", "text"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forestvol",
        description="Certified volume approximation for two-sided box constraints",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("volume", help="certified (1±eps) volume approximation")
    _add_common(p)
    p.add_argument("--delta", required=True, help="box half-width excess, rational p/q")
    p.add_argument("--eps", required=True, help="relative accuracy, rational p/q")
    p.add_argument("--max-degree", type=int, default=None, help="certify for this degree bound (rejects denser graphs)")

    p = sub.add_parser("exact", help="exact volume by a DP over independent sets (small graphs)")
    _add_common(p)
    p.add_argument("--delta", required=True)

    p = sub.add_parser("mc", help="Monte Carlo volume estimate")
    _add_common(p)
    p.add_argument("--delta", required=True)
    p.add_argument("--samples", type=int, default=10**6)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("coeffs", help="Taylor coefficients and pattern table")
    _add_common(p)
    p.add_argument("--delta", required=True)
    order = p.add_mutually_exclusive_group()
    order.add_argument("--eps", default="1/100", help="pick K from the certificate (default 1/100)")
    order.add_argument("--order", type=int, default=None, help="explicit K instead of --eps")

    p = sub.add_parser("weights", help="weight of one tree inside its host")
    _add_common(p)
    p.add_argument("--delta", required=True)
    p.add_argument("--tree", required=True, help="comma-separated edge ranks, e.g. 0,2,5")

    p = sub.add_parser("radius", help="zero-free radius certificate")
    _add_common(p, graph=False)
    p.add_argument("--delta", required=True)
    p.add_argument("--max-degree", type=int, required=True)

    p = sub.add_parser("selftest", help="built-in cross-checks")
    _add_common(p, graph=False)
    p.add_argument("--samples", type=int, default=200_000)

    return parser


def _emit(payload: dict, mode: str) -> None:
    if mode == "json":
        print(json.dumps(payload, indent=2, sort_keys=False))
    else:
        for key, value in payload.items():
            if isinstance(value, (list, dict)):
                value = json.dumps(value)
            print(f"{key}: {value}")


def cmd_volume(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    delta = _rational(args.delta, "delta")
    eps = _rational(args.eps, "eps")
    res = approximate_volume(g, delta, eps, max_degree=args.max_degree)
    payload = {
        "xi": float(res.xi),
        "lower": float(res.lower),
        "upper": float(res.upper),
        "lower_exact": str(res.lower),
        "upper_exact": str(res.upper),
        "exact": res.exact,
        "n": res.n,
        "m": res.m,
        "max_degree": res.degree,
        "delta": str(delta),
        "eps": str(eps),
        "R": float(res.radius) if res.radius is not None else None,
        "K": res.K,
        "a": [float(x) for x in res.a],
        "wall_ms": res.wall_ms,
    }
    _emit(payload, args.output)
    return 0


def cmd_exact(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    delta = _rational(args.delta, "delta")
    vol = exact_volume(g, DeltaParams(delta))
    payload = {
        "vol": str(vol),
        "vol_float": float(vol),
        "n": g.n,
        "m": g.m,
        "delta": str(delta),
    }
    _emit(payload, args.output)
    return 0


def cmd_mc(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    delta = _rational(args.delta, "delta")
    if args.samples < 1:
        raise ValueError("samples must be >= 1")
    est = mc_volume(g, delta, args.samples, seed=args.seed)
    payload = {
        "mean": est.mean,
        "stderr": est.stderr,
        "samples": est.samples,
        "seed": est.seed,
        "accepted": est.accepted,
        "box_volume": est.box_volume,
        "n": g.n,
        "m": g.m,
        "delta": str(delta),
    }
    _emit(payload, args.output)
    return 0


def cmd_coeffs(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    delta = _rational(args.delta, "delta")
    dp = DeltaParams(delta)
    if args.order is not None:
        if args.order < 1:
            raise ValueError("--order must be >= 1")
        K = args.order
        radius = None
    else:
        eps = _rational(args.eps, "eps")
        cert = zero_free_radius(delta, max(g.max_degree(), 2))
        radius = cert.radius
        K = truncation_order(g.n, eps, cert.radius)
    rows, a = pattern_table(g, dp, K)
    patterns = [
        {
            "key": key.hex(),
            "n": rep.n,
            "count": count,
            "gamma": {str(k): str(gamma[k]) for k in range(1, K + 1)},
        }
        for key, count, rep, gamma in rows
    ]
    payload = {
        "K": K,
        "R": float(radius) if radius is not None else None,
        "n": g.n,
        "m": g.m,
        "delta": str(delta),
        "patterns": patterns,
        "a": [str(a[k]) for k in range(1, K + 1)],
    }
    _emit(payload, args.output)
    return 0


def cmd_weights(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    delta = _rational(args.delta, "delta")
    dp = DeltaParams(delta)
    try:
        ranks = tuple(int(tok) for tok in args.tree.split(","))
    except ValueError:
        raise ValueError(f"--tree expects comma-separated edge ranks, got {args.tree!r}")
    tree = tree_from_edges(g, ranks)
    rec = tree_weight(g, tree, dp)
    payload = {
        "tree_edges": [list(g.edges[r]) for r in rec.tree.edge_ranks],
        "broken_edges": [list(g.edges[r]) for r in rec.broken],
        "hat_w": str(rec.hat_w),
        "w": str(rec.w),
        "delta": str(delta),
    }
    _emit(payload, args.output)
    return 0


def cmd_radius(args: argparse.Namespace) -> int:
    delta = _rational(args.delta, "delta")
    cert = zero_free_radius(delta, args.max_degree)
    payload = {
        "delta": str(delta),
        "max_degree": cert.degree,
        "R": float(cert.radius),
        "R_exact": str(cert.radius),
    }
    _emit(payload, args.output)
    return 0


def cmd_selftest(args: argparse.Namespace) -> int:
    from .families import complete_graph, cycle_graph, path_graph, petersen_graph

    checks: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        checks.append((name, bool(ok), detail))

    tri = complete_graph(3)
    rep = penrose_check(tri)
    check("penrose triangle", rep.ok and rep.marked == 4, f"marked={rep.marked}")
    rep = penrose_check(complete_graph(4))
    check("penrose K4", rep.ok and rep.marked == 38, f"marked={rep.marked}")
    rep = penrose_check(complete_graph(4), edge_order=(5, 3, 1, 0, 2, 4))
    check("penrose K4 reordered", rep.ok, f"marked={rep.marked}")

    dp4 = DeltaParams(Fraction(1, 4))
    v = exact_volume(Graph(2, [(0, 1)]), dp4)
    check("exact K2 delta=1/4", v == Fraction(7, 16), f"vol={v}")
    v = exact_volume(path_graph(3), dp4)
    check("exact P3 delta=1/4", v == Fraction(53, 192), f"vol={v}")

    rec = tree_weight(Graph(2, [(0, 1)]), tree_from_edges(Graph(2, [(0, 1)]), (0,)), dp4)
    check("weight K2 delta=1/4", rec.w == Fraction(-2, 9), f"w={rec.w}")

    for g, name in ((path_graph(4), "P4"), (cycle_graph(5), "C5"), (complete_graph(4), "K4")):
        ex = exact_volume(g, dp4)
        est = mc_volume(g, Fraction(1, 4), args.samples, seed=17)
        z = abs(est.mean - float(ex)) / est.stderr if est.stderr else 0.0
        check(f"mc vs exact {name}", z < 4.0, f"z={z:.2f}")

    cert = zero_free_radius(Fraction(1, 100), 3)
    check(
        "radius delta=1/100 D=3",
        Fraction(204, 100) < cert.radius < Fraction(205, 100),
        f"R={float(cert.radius):.5f}",
    )
    try:
        zero_free_radius(Fraction(1, 10), 3)
        check("radius rejects delta=1/10 D=3", False, "no error raised")
    except DeltaTooLargeError as e:
        check("radius rejects delta=1/10 D=3", True, f"delta_max={float(e.delta_max):.5f}")

    delta = Fraction(1, 100)
    eps = Fraction(1, 100)
    for g, name in ((path_graph(4), "P4"), (cycle_graph(5), "C5")):
        res = approximate_volume(g, delta, eps)
        ex = exact_volume(g, DeltaParams(delta))
        width_ok = float(res.upper) / float(res.lower) <= (1 + float(eps)) ** 2 * (1 + 1e-9)
        check(
            f"volume interval {name}",
            res.lower <= ex <= res.upper and width_ok,
            f"K={res.K} xi={float(res.xi):.6g}",
        )
    pet = petersen_graph()
    res = approximate_volume(pet, delta, Fraction(1, 4))
    est = mc_volume(pet, delta, args.samples, seed=23)
    overlap = (
        est.mean - 4 * est.stderr <= float(res.upper)
        and float(res.lower) <= est.mean + 4 * est.stderr
    )
    check("volume vs mc Petersen", overlap, f"K={res.K} mc={est.mean:.4g}")
    rep = penrose_check(pet)
    check("penrose Petersen", rep.ok, f"marked={rep.marked}")

    rr = root_check(path_graph(4), DeltaParams(delta), radius=cert.radius)
    check("roots clear radius P4", rr.clears(slack=0.01), f"min={rr.min_modulus:.3f}")

    failed = [c for c in checks if not c[1]]
    if args.output == "json":
        payload = {
            "passed": len(checks) - len(failed),
            "failed": len(failed),
            "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        }
        print(json.dumps(payload, indent=2))
    else:
        for name, ok, detail in checks:
            print(f"{'ok  ' if ok else 'FAIL'} {name}" + (f"  ({detail})" if detail else ""))
        print(f"{len(checks) - len(failed)} passed, {len(failed)} failed")
    return 1 if failed else 0


_COMMANDS = {
    "volume": cmd_volume,
    "exact": cmd_exact,
    "mc": cmd_mc,
    "coeffs": cmd_coeffs,
    "weights": cmd_weights,
    "radius": cmd_radius,
    "selftest": cmd_selftest,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except GraphParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"error: cannot read graph file: {e}", file=sys.stderr)
        return 3
    except DeltaTooLargeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except SizeGuardError as e:
        print(f"error: {e}", file=sys.stderr)
        return 5
    except CertificateError as e:
        print(f"error: {e}", file=sys.stderr)
        return 6
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
