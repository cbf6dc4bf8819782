import json
import math
import subprocess
import sys
from fractions import Fraction

import pytest

from forestvol.cli import main


@pytest.fixture
def graphs(tmp_path):
    files = {}
    for name, text in {
        "k2": "2 1\n0 1\n",
        "p3": "3 2\n0 1\n1 2\n",
        "tri": "3 3\n0 1\n0 2\n1 2\n",
        # C20: 15,127 independent sets, above the exact DP's limit
        "c20": "20 20\n" + "".join(f"{i} {i+1}\n" for i in range(19)) + "0 19\n",
        "bad": "2 1\n0 5\n",
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
    reproduce xi to printed precision."""
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


def test_parse_error_exit_3(capsys, graphs):
    rc, _, err = run_cli(capsys, ["exact", "--graph", graphs["bad"], "--delta", "1/4"])
    assert rc == 3
    assert "line" in err


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


def test_mc_threads_bit_identical(capsys, graphs):
    rc, out1, _ = run_cli(
        capsys,
        ["mc", "--graph", graphs["p3"], "--delta", "1/4", "--samples", "131073",
         "--seed", "9", "--threads", "1"],
    )
    rc2, out2, _ = run_cli(
        capsys,
        ["mc", "--graph", graphs["p3"], "--delta", "1/4", "--samples", "131073",
         "--seed", "9", "--threads", "8"],
    )
    assert rc == rc2 == 0
    assert json.loads(out1) == json.loads(out2)


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
