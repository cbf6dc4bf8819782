"""The package's record types keep the value semantics of frozen
dataclasses: construction by position and keyword, equality and hashing
on the fields, a repr naming the class and its fields, pickling, and no
assignment."""

import pickle
from fractions import Fraction

import pytest

from forestvol.coeffs import TaylorCoeffs
from forestvol.graphs import Tree
from forestvol.interpolate import InterpolationResult, RadiusCertificate
from forestvol.oracles import McEstimate, PenroseReport, RootReport
from forestvol.treeweight import DeltaParams, TreeWeightRecord

F = Fraction

# (class, field names in order, one set of values, a set differing in every field)
RECORDS = [
    (Tree, ("vset", "edge_ranks"), (0b111, (0, 1)), (0b1011, (0, 2))),
    (DeltaParams, ("delta",), (F(1, 100),), (F(1, 4),)),
    (
        TreeWeightRecord,
        ("tree", "broken", "hat_w", "w"),
        (Tree(0b11, (0,)), (), F(1, 8), F(-1, 2)),
        (Tree(0b111, (0, 1)), (2,), F(1, 48), F(1, 6)),
    ),
    (TaylorCoeffs, ("a",), ((F(0), F(1, 3)),), ((F(0), F(-1, 7), F(2)),)),
    (
        RadiusCertificate,
        ("delta", "degree", "radius", "witness_a", "safety"),
        (F(1, 100), 3, F(23, 2), F(27, 10), F(99, 100)),
        (F(1, 150), 4, F(12, 1), F(271, 100), F(9, 10)),
    ),
    (
        InterpolationResult,
        (
            "n", "m", "delta", "eps", "degree", "exact", "radius",
            "K", "a", "xi", "lower", "upper", "wall_ms",
        ),
        (
            5, 5, F(1, 100), F(1, 100), 2, False, F(17),
            3, (F(0), F(1, 9), F(-1, 81), F(1, 729)), F(6004799503160661, 1 << 54),
            F(1, 33), F(1, 31), 1.5,
        ),
        (
            6, 4, F(1, 50), F(1, 10), 3, True, None,
            0, (F(0),), F(2),
            F(1, 64), F(1, 63), 2.5,
        ),
    ),
    (
        McEstimate,
        ("mean", "stderr", "samples", "seed", "accepted", "box_volume"),
        (0.25, 0.01, 1000, 0, 250, 1.0),
        (0.5, 0.02, 2000, 1, 1000, 2.0),
    ),
    (
        PenroseReport,
        (
            "tree_count", "marked", "connected_spanning",
            "duplicates", "missed", "extras", "mst_violations",
        ),
        (3, 4, 4, (), (), (), ()),
        (8, 9, 10, ((0, 1),), ((1, 2),), ((0, 2),), ((0, 1, 2),)),
    ),
    (RootReport, ("e",), ((F(1), F(3), F(1)),), ((F(1), F(2)),)),
]


@pytest.mark.parametrize(
    "cls, names, values, other", RECORDS, ids=[r[0].__name__ for r in RECORDS]
)
def test_record_value_semantics(cls, names, values, other):
    assert cls.__slots__ == names
    rec = cls(*values)
    assert tuple(getattr(rec, name) for name in names) == values
    assert cls(**dict(zip(names, values))) == rec

    twin = cls(*values)
    assert twin is not rec and twin == rec and hash(twin) == hash(rec)
    assert hash(rec) == hash(values)
    assert rec != cls(*other) and not rec == cls(*other)
    for i, name in enumerate(names):
        changed = values[:i] + other[i : i + 1] + values[i + 1 :]
        assert cls(*changed) != rec, name
    assert rec != values and rec.__eq__(values) is NotImplemented

    text = repr(rec)
    assert text.startswith(f"{cls.__name__}(") and text.endswith(")")
    for name, value in zip(names, values):
        assert f"{name}={value!r}" in text

    for name in names:
        with pytest.raises(AttributeError):
            setattr(rec, name, other[0])
        with pytest.raises(AttributeError):
            delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.not_a_field = 1
    assert tuple(getattr(rec, name) for name in names) == values

    assert pickle.loads(pickle.dumps(rec)) == rec


def test_record_types_differ():
    """Equal field values in two record types do not make them equal."""
    assert TaylorCoeffs((F(1),)) != RootReport((F(1),))


def test_delta_params_converts_and_checks():
    for given in (F(1, 100), "1/100", 0.01):
        d = DeltaParams(given).delta
        assert type(d) is Fraction
    assert DeltaParams("1/100").delta == F(1, 100)
    assert DeltaParams(0.25).delta == F(1, 4)
    assert DeltaParams(delta=0).delta == 0
    assert DeltaParams(F(1, 100)) == DeltaParams("1/100")
    assert hash(DeltaParams(F(1, 100))) == hash(DeltaParams("1/100"))
    assert DeltaParams(F(1, 3)).box_hi == F(5, 6)
    for bad in (F(-1, 100), F(1, 2), F(1), -1e-9):
        with pytest.raises(ValueError, match=r"^delta must lie in \[0, 1/2\)$"):
            DeltaParams(bad)
