import json
import math
import subprocess
import sys
from fractions import Fraction

import pytest

from forestvol.cli import main
from forestvol.families import cycle_graph, petersen_graph, random_connected_graph
from forestvol.graphs import format_graph

from conftest import eps_reaching_order, run_without_site, sparse1000


@pytest.fixture
def graphs(tmp_path):
    files = {}
    for name, text in {
        "k2": "2 1\n0 1\n",
        "p3": "3 2\n0 1\n1 2\n",
        "tri": "3 3\n0 1\n0 2\n1 2\n",
        "matching": "4 2\n0 1\n2 3\n",
        "edgeless": "3 0\n",
        "petersen": format_graph(petersen_graph()),
        # C20: 15,127 independent sets, above the exact DP's limit
        "c20": "20 20\n" + "".join(f"{i} {i+1}\n" for i in range(19)) + "0 19\n",
        "bad": "2 1\n0 5\n",
        "huge": "100000000000 0\n",
    }.items():
        p = tmp_path / f"{name}.txt"
        p.write_text(text)
        files[name] = str(p)
    return files


def run_cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_exact_json(capsys, graphs):
    rc, out, _ = run_cli(capsys, ["exact", "--graph", graphs["k2"], "--delta", "1/4"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["vol"] == "7/16"
    assert doc["vol_float"] == 0.4375


def test_volume_json_schema(capsys, graphs):
    rc, out, _ = run_cli(
        capsys,
        ["volume", "--graph", graphs["p3"], "--delta", "1/100", "--eps", "1/100"],
    )
    assert rc == 0
    doc = json.loads(out)
    for key in ("xi", "lower", "upper", "n", "m", "max_degree", "delta", "eps", "R", "K", "a", "wall_ms"):
        assert key in doc
    assert doc["lower"] <= doc["xi"] <= doc["upper"]
    assert doc["K"] >= 1 and len(doc["a"]) == doc["K"]
    assert doc["delta"] == "1/100" and doc["eps"] == "1/100"


def test_volume_coeffs_roundtrip(capsys, graphs):
    """Re-feeding the exact coefficients into an offline exp-sum must
    reproduce xi to printed precision, and `coeffs --eps` follows the plan
    `volume` certifies: the same exit code, and on success the same K and
    R, with K = 0 and R = null in the exact cases (delta = 0, or maximum
    degree <= 1)."""
    for name in ("tri", "p3", "matching", "petersen", "edgeless"):
        for delta in ("0", "1/100", "1/10"):
            argv = ["--graph", graphs[name], "--delta", delta, "--eps", "1/10"]
            rc, vol_out, _ = run_cli(capsys, ["volume"] + argv)
            rc2, coeff_out, _ = run_cli(capsys, ["coeffs"] + argv)
            assert rc == rc2, (name, delta)
            if rc == 0:
                vol, co = json.loads(vol_out), json.loads(coeff_out)
                assert (co["K"], co["R"]) == (vol["K"], vol["R"]), (name, delta)
                assert len(co["a"]) == co["K"]
                if vol["exact"]:
                    assert co["K"] == 0 and co["R"] is None and co["patterns"] == []
    rc, vol_out, _ = run_cli(
        capsys,
        ["volume", "--graph", graphs["tri"], "--delta", "1/100", "--eps", "1/100"],
    )
    assert rc == 0
    vol = json.loads(vol_out)
    rc, coeff_out, _ = run_cli(
        capsys,
        ["coeffs", "--graph", graphs["tri"], "--delta", "1/100", "--eps", "1/100"],
    )
    assert rc == 0
    co = json.loads(coeff_out)
    assert co["K"] == vol["K"]
    total = sum(Fraction(s) for s in co["a"])
    box = Fraction(1, 2) + Fraction(1, 100)
    xi = float(box) ** co["n"] * math.exp(float(total))
    assert xi == pytest.approx(vol["xi"], rel=1e-12)


def test_coeffs_pattern_schema(capsys, graphs):
    rc, out, _ = run_cli(
        capsys,
        ["coeffs", "--graph", graphs["p3"], "--delta", "1/100", "--order", "2"],
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["K"] == 2
    assert {p["n"] for p in doc["patterns"]} == {2, 3}
    for p in doc["patterns"]:
        assert set(p["gamma"]) == {"1", "2"}
        Fraction(p["gamma"]["1"])  # parses as exact rationals


def test_coeffs_patterns_reproduce_a(capsys, tmp_path):
    """The pattern table lists patterns of at most K+1 vertices, and
    sum of gamma_k(H) count(H) over it reproduces every a_k.  The table and
    a are pinned to the values of a per-set gamma computation."""
    path = tmp_path / "petersen.txt"
    path.write_text(format_graph(petersen_graph()))
    rc, out, _ = run_cli(
        capsys, ["coeffs", "--graph", str(path), "--delta", "1/100", "--order", "3"]
    )
    assert rc == 0
    doc = json.loads(out)
    assert {p["n"] for p in doc["patterns"]} == {2, 3, 4}
    for k in range(1, 4):
        total = sum(p["count"] * Fraction(p["gamma"][str(k)]) for p in doc["patterns"])
        assert total == Fraction(doc["a"][k - 1]), k
    assert doc["a"] == ["-10/867", "1310/2255067", "-568280/17596287801"]
    table = [
        (p["key"], p["n"], p["count"], [p["gamma"][str(k)] for k in (1, 2, 3)])
        for p in doc["patterns"]
    ]
    assert table == [
        ("0201", 2, 15, ["-2/2601", "-2/6765201", "-8/52788863403"]),
        ("03010001", 3, 30, ["0", "44/2255067", "176/5865429267"]),
        ("04010000010001", 4, 60, ["0", "0", "-8134/17596287801"]),
        ("04010000010100", 4, 10, ["0", "0", "-9604/17596287801"]),
    ]


def test_coeffs_eps_and_order_exclusive_exit_2(capsys, graphs):
    """--order replaces --eps, so passing both is a usage error."""
    with pytest.raises(SystemExit) as exc:
        main(["coeffs", "--graph", graphs["p3"], "--delta", "1/100",
              "--eps", "1/10", "--order", "2"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_coeffs_eps_default_declared(capsys, graphs):
    """The --eps default lives in the parser, and a run without --eps picks
    K from the certificate exactly as --eps 1/100 does."""
    from forestvol.cli import build_parser

    args = build_parser().parse_args(["coeffs", "--graph", "g", "--delta", "1/100"])
    assert (args.eps, args.order) == ("1/100", None)
    argv = ["coeffs", "--graph", graphs["tri"], "--delta", "1/100"]
    rc, out, _ = run_cli(capsys, argv)
    rc2, out2, _ = run_cli(capsys, argv + ["--eps", "1/100"])
    assert rc == rc2 == 0 and out == out2
    assert json.loads(out)["R"] is not None


def test_coeffs_enumerates_graph_once(capsys, monkeypatch, tmp_path):
    """forestvol coeffs enumerates the input graph once and expands each
    pattern class once: on the 1000-vertex benchmark graph at delta = 1/300
    (K = 5), one enumeration of G and one miss per printed pattern."""
    from forestvol import coeffs
    from forestvol.treeweight import default_cache

    g = sparse1000()
    path = tmp_path / "sparse1000.txt"
    path.write_text(format_graph(g))
    sizes = []
    build_table = coeffs.code_table

    def counted(h, *args, **kwargs):
        sizes.append(h.n)
        return build_table(h, *args, **kwargs)

    monkeypatch.setattr(coeffs, "code_table", counted)
    default_cache().clear()
    rc, out, _ = run_cli(
        capsys, ["coeffs", "--graph", str(path), "--delta", "1/300", "--eps", "1/100"]
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["K"] == 5
    assert sizes.count(g.n) == 1
    assert all(n <= 6 for n in sizes if n != g.n)
    assert default_cache().misses == len(doc["patterns"]) == 18


def test_weights_json(capsys, graphs):
    rc, out, _ = run_cli(
        capsys,
        ["weights", "--graph", graphs["tri"], "--delta", "1/4", "--tree", "0,1"],
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["tree_edges"] == [[0, 1], [0, 2]]
    assert doc["broken_edges"] == [[1, 2]]
    assert doc["hat_w"] == "1/96"
    assert doc["w"] == "2/81"
    assert set(doc) == {"tree_edges", "broken_edges", "hat_w", "w", "delta"}


def test_weights_trace(graphs):
    """`weights` takes no --trace flag."""
    with pytest.raises(SystemExit) as exc:
        main(["weights", "--graph", graphs["tri"], "--delta", "1/4", "--tree", "0,1",
              "--trace"])
    assert exc.value.code == 2


def test_radius_success(capsys):
    rc, out, _ = run_cli(capsys, ["radius", "--delta", "1/100", "--max-degree", "3"])
    assert rc == 0
    doc = json.loads(out)
    assert 2.04 <= doc["R"] <= 2.05
    assert Fraction(doc["R_exact"]) > 2


def test_radius_delta_too_large_exit_4(capsys):
    rc, out, err = run_cli(capsys, ["radius", "--delta", "1/10", "--max-degree", "3"])
    assert rc == 4
    assert "0.0204" in err


def test_volume_delta_too_large_exit_4(capsys, graphs):
    rc, _, err = run_cli(
        capsys,
        ["volume", "--graph", graphs["tri"], "--delta", "1/10", "--eps", "1/100"],
    )
    assert rc == 4
    assert "delta" in err


def test_decimal_delta_rejected(capsys, graphs):
    rc, _, err = run_cli(capsys, ["exact", "--graph", graphs["k2"], "--delta", "0.25"])
    assert rc == 2
    assert "rational" in err


@pytest.mark.parametrize(
    "flag, text", [("--delta", "\u0663/1"), ("--delta", "1/2\n"), ("--eps", "\u0661")]
)
def test_non_ascii_or_trailing_rational_rejected(capsys, graphs, flag, text):
    """Rationals take the ASCII digits 0-9 only and nothing after them:
    an Arabic-Indic 3 or 1, or a trailing newline, exits 2."""
    argv = ["volume", "--graph", graphs["p3"], "--delta", "1/100", "--eps", "1/100"]
    argv[argv.index(flag) + 1] = text
    rc, out, err = run_cli(capsys, argv)
    assert rc == 2 and out == ""
    assert "is not a rational p/q" in err


@pytest.mark.parametrize("text", ["+0", " 0", "1_0", "\u0663", "\uff11\uff10", "-1", "3\n"])
@pytest.mark.parametrize(
    "argv",
    [
        ["mc", "--graph", "p3", "--delta", "1/4", "--samples", "1000", "--seed", None],
        ["mc", "--graph", "p3", "--delta", "1/4", "--samples", None],
        ["volume", "--graph", "p3", "--delta", "1/100", "--eps", "1/100",
         "--max-degree", None],
        ["coeffs", "--graph", "p3", "--delta", "1/100", "--order", None],
        ["radius", "--delta", "1/100", "--max-degree", None],
        ["selftest", "--samples", None],
        ["weights", "--graph", "tri", "--delta", "1/4", "--tree", None],
    ],
    ids=["seed", "mc-samples", "volume-max-degree", "order", "radius-max-degree",
         "selftest-samples", "tree"],
)
def test_integer_flags_take_ascii_digits_only(capsys, graphs, argv, text):
    """Every integer flag takes the ASCII digits 0-9 and nothing else, as
    rationals and graph files do: a sign, a space, an underscore, an
    Arabic-Indic or fullwidth digit, or a trailing newline exits 2 before
    any work."""
    argv = [graphs.get(a, a) if a else text for a in argv]
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert repr(text) in err


def test_parse_error_exit_3(capsys, graphs):
    rc, _, err = run_cli(capsys, ["exact", "--graph", graphs["bad"], "--delta", "1/4"])
    assert rc == 3
    assert "line" in err


def test_huge_header_exit_3(capsys, graphs):
    rc, out, err = run_cli(
        capsys, ["exact", "--graph", graphs["huge"], "--delta", "1/4"]
    )
    assert rc == 3 and out == ""
    assert "line 1" in err and "exceed the limit" in err


def test_missing_file_exit_3(capsys, tmp_path):
    rc, _, err = run_cli(capsys, ["exact", "--graph", str(tmp_path / "nope.txt"), "--delta", "1/4"])
    assert rc == 3


def test_size_guard_exit_5(capsys, graphs):
    rc, _, err = run_cli(capsys, ["exact", "--graph", graphs["c20"], "--delta", "1/4"])
    assert rc == 5
    assert "volume" in err


def test_volume_size_guard_exit_5(capsys, tmp_path):
    # 4-regular circulant on 1000 vertices: K = 17 needs 34-vertex patterns
    n = 1000
    edges = sorted({tuple(sorted((i, (i + s) % n))) for i in range(n) for s in (1, 2)})
    path = tmp_path / "circ.txt"
    path.write_text(f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    rc, out, err = run_cli(
        capsys, ["volume", "--graph", str(path), "--delta", "1/100", "--eps", "1/100"]
    )
    assert rc == 5
    assert out == ""
    assert "K=17" in err and "32" in err


def test_volume_size_guard_before_enumerating_exit_5(capsys, monkeypatch, tmp_path):
    """A cycle on 33 vertices at an eps that needs K >= 17 exits 5 before
    any connected set is enumerated."""
    from forestvol import coeffs
    from forestvol.interpolate import zero_free_radius

    def boom(*args, **kwargs):
        raise AssertionError("enumerated connected sets")

    delta = Fraction(1, 100)
    eps, order = eps_reaching_order(33, zero_free_radius(delta, 2).radius, 17)
    path = tmp_path / "c33.txt"
    path.write_text(format_graph(cycle_graph(33)))
    monkeypatch.setattr(coeffs, "code_table", boom)
    rc, out, err = run_cli(
        capsys, ["volume", "--graph", str(path), "--delta", str(delta), "--eps", str(eps)]
    )
    assert rc == 5 and out == ""
    assert f"K={order}" in err and "33 > 32" in err


@pytest.mark.parametrize(
    "g,order",
    [
        (cycle_graph(100), 40),
        (random_connected_graph(60, 20, seed=1, max_degree=3), 18),
    ],
    ids=["c100-order40", "random60-order18"],
)
def test_coeffs_size_guard_before_enumerating_exit_5(capsys, monkeypatch, tmp_path, g, order):
    """coeffs --order refuses the orders volume refuses, before any
    connected set is enumerated."""
    from forestvol import coeffs

    def boom(*args, **kwargs):
        raise AssertionError("enumerated connected sets")

    path = tmp_path / "g.txt"
    path.write_text(format_graph(g))
    monkeypatch.setattr(coeffs, "code_table", boom)
    argv = ["coeffs", "--graph", str(path), "--delta", "1/100"]
    rc, out, err = run_cli(capsys, argv + ["--order", str(order)])
    assert rc == 5 and out == ""
    assert f"K={order}" in err and f"{g.n} > 32" in err
    # order 16 needs 32-vertex patterns at most, so it passes the guard
    with pytest.raises(AssertionError, match="enumerated"):
        main(argv + ["--order", "16"])


@pytest.mark.parametrize("command", ["mc", "selftest"])
def test_mc_and_selftest_reject_threads_flag(graphs, command):
    argv = ["--samples", "1000", "--threads", "2"]
    if command == "mc":
        argv = ["--graph", graphs["p3"], "--delta", "1/4"] + argv
    with pytest.raises(SystemExit) as exc:
        main([command] + argv)
    assert exc.value.code == 2


def test_mc_rejects_zero_samples_exit_2(capsys, graphs):
    rc, out, err = run_cli(
        capsys, ["mc", "--graph", graphs["p3"], "--delta", "1/4", "--samples", "0"]
    )
    assert rc == 2 and out == ""
    assert "samples must be positive" in err


@pytest.mark.parametrize("delta", ["--delta=1", "--delta=-3/4", "--delta=1/2"])
def test_mc_rejects_delta_outside_range_exit_2(capsys, graphs, delta):
    rc, out, err = run_cli(
        capsys, ["mc", "--graph", graphs["p3"], delta, "--samples", "1000"]
    )
    assert rc == 2 and out == ""
    assert "delta must lie in [0, 1/2)" in err


def test_certificate_failures_exit_6(capsys, monkeypatch, graphs):
    from forestvol import interpolate

    argv = ["volume", "--graph", graphs["p3"], "--delta", "1/100", "--eps", "1/100"]
    with monkeypatch.context() as mp:
        # a witness a just above 1 makes log(a) too small for the re-check
        _, e_hi = interpolate._e_bounds()
        witness = Fraction(1) + Fraction(1, 10**6)
        mp.setattr(interpolate, "_e_bounds", lambda: (witness, e_hi))
        rc, out, err = run_cli(capsys, argv)
    assert rc == 6 and out == ""
    assert err.startswith("error: ") and "radius" in err
    assert "Traceback" not in err
    with monkeypatch.context() as mp:
        mp.setattr(interpolate, "_MAX_ORDER", 2)  # P3 at eps=1/100 needs K > 2
        rc, out, err = run_cli(capsys, argv)
    assert rc == 6 and out == ""
    assert err.startswith("error: ") and "truncation order" in err
    assert "Traceback" not in err
    rc, _, _ = run_cli(capsys, argv)
    assert rc == 0


def test_eps_below_160_bit_floor_gets_exact_k(capsys, monkeypatch, graphs):
    """K3 at delta=1/100 takes the exact first K below where 160-bit
    intervals resolve: 125 at eps=10^-47 (the 160-bit walk took 126) and
    128 at 10^-48 (it refused, exit 6), from the 1200-bit mpmath reference
    in the interpolate tests.  The query walks the tail series a bounded
    number of times, never towards _MAX_ORDER."""
    from forestvol import interpolate

    steps = []
    tails = interpolate._tails

    def counted(radius, digits):
        for tail in tails(radius, digits):
            steps.append(None)
            yield tail

    monkeypatch.setattr(interpolate, "_tails", counted)
    argv = ["volume", "--graph", graphs["tri"], "--delta", "1/100"]
    for e, K in ((47, 125), (48, 128)):
        steps.clear()
        rc, out, _ = run_cli(capsys, argv + ["--eps", f"1/{10**e}"])
        assert rc == 0 and json.loads(out)["K"] == K
        assert len(steps) <= 4 * (K + 1)


def test_volume_rejects_threads_flag(graphs):
    with pytest.raises(SystemExit) as exc:
        main(["volume", "--graph", graphs["k2"], "--delta", "1/100", "--eps", "1/100",
              "--threads", "2"])
    assert exc.value.code == 2


def test_bad_flags_exit_2(graphs):
    with pytest.raises(SystemExit) as exc:
        main(["volume", "--graph", graphs["k2"]])
    assert exc.value.code == 2


def test_unknown_tree_rank_exit_2(capsys, graphs):
    rc, _, err = run_cli(
        capsys, ["weights", "--graph", graphs["k2"], "--delta", "1/4", "--tree", "7"]
    )
    assert rc == 2


def test_mc_accepted_pinned(capsys, graphs):
    """131073 samples are two full chunks and one of a single sample; the
    accepted count is pinned, so the chunk layout cannot drift."""
    rc, out, _ = run_cli(
        capsys,
        ["mc", "--graph", graphs["p3"], "--delta", "1/4", "--samples", "131073",
         "--seed", "9"],
    )
    assert rc == 0
    assert json.loads(out)["accepted"] == 85772


def test_text_output(capsys, graphs):
    rc, out, _ = run_cli(
        capsys, ["exact", "--graph", graphs["k2"], "--delta", "1/4", "--output", "text"]
    )
    assert rc == 0
    assert "vol: 7/16" in out


def test_selftest_passes(capsys):
    rc, out, _ = run_cli(capsys, ["selftest", "--samples", "60000", "--output", "text"])
    assert rc == 0
    assert "0 failed" in out


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "forestvol.cli", "radius", "--delta", "1/1000", "--max-degree", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert 22.9 <= doc["R"] <= 23.0


_ORACLE_FREE_COMMANDS = """
import contextlib, io, sys

from forestvol.cli import main

graphs = dict(zip(("p3", "petersen", "tri"), sys.argv[1:]))
for argv in (
    ["volume", "--graph", graphs["p3"], "--delta", "1/100", "--eps", "1/100"],
    ["coeffs", "--graph", graphs["petersen"], "--delta", "1/100", "--order", "3"],
    ["radius", "--delta", "1/100", "--max-degree", "3"],
    ["weights", "--graph", graphs["tri"], "--delta", "1/4", "--tree", "0,1"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
unwanted = ("forestvol.oracles", "numpy", "mpmath", "dataclasses", "inspect", "typing")
loaded = [name for name in unwanted if name in sys.modules]
assert not loaded, f"volume, coeffs, radius and weights loaded {loaded}"
"""


def test_commands_without_oracles_leave_them_unloaded(graphs):
    """Only exact, mc and selftest import forestvol.oracles, and none of
    volume, coeffs, radius and weights loads mpmath, dataclasses, inspect
    or typing."""
    proc = run_without_site(
        _ORACLE_FREE_COMMANDS, *(graphs[name] for name in ("p3", "petersen", "tri"))
    )
    assert proc.returncode == 0, proc.stderr
