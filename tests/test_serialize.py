import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loxokit import serialize as sz
from loxokit import symplectic as sp


def test_matrix_roundtrip():
    M = np.array([[1.0, 2.5], [-0.25, 1e-17]])
    obj = json.loads(json.dumps(sz.matrix_to_json(M)))
    assert obj == {"dim": 2, "data": [[1.0, 2.5], [-0.25, 1e-17]]}


def test_classification_roundtrip():
    S = np.diag([-np.e ** 2, -np.e ** -2])
    c = sp.classify(S, mode="poincare_map")
    obj = json.loads(json.dumps(sz.classification_to_json(c)))
    assert obj == {
        "type": "spectrum_classification",
        "schema_version": sz.SCHEMA_VERSION,
        "dim": c.dim,
        "mode": c.mode,
        "groups": [sz.group_to_json(g) for g in c.groups],
        "is_loxodromic": c.is_loxodromic,
        "has_negative_real": c.has_negative_real,
    }
    assert obj["schema_version"] == 1
    assert obj["has_negative_real"] is True
    [group] = obj["groups"]
    assert group["tag"] == "real_hyperbolic"
    assert group["negative_real"] is True
    assert group["lambda"] == pytest.approx(2.0, abs=1e-12)


def test_all_group_tags_roundtrip():
    cases = [
        (sp.RealHyperbolicPair(lam=0.7, chain_size=2, negative_real=True),
         {"tag": "real_hyperbolic", "lambda": 0.7, "chain_size": 2,
          "negative_real": True}),
        (sp.ComplexHyperbolicQuad(lam=1 + 2j, chain_size=1),
         {"tag": "complex_hyperbolic", "lambda_re": 1.0, "lambda_im": 2.0,
          "chain_size": 1}),
        (sp.EllipticGroup(theta=0.3), {"tag": "elliptic", "theta": 0.3}),
    ]
    for g, want in cases:
        assert json.loads(json.dumps(sz.group_to_json(g))) == want


@settings(deadline=None, max_examples=60)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_float_shortest_roundtrip(x):
    s = sz.format_float(x)
    assert float(s) == x


def test_write_csv_deterministic(tmp_path):
    cols = ["k", "value"]
    rows = [[1, 0.1], [2, 1 / 3], [40, 2.5e-17]]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    sz.write_csv(p1, cols, rows)
    sz.write_csv(p2, cols, rows)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == "k,value"
    assert lines[1] == "1,0.1"
    assert [float(line.split(",")[1]) for line in lines[1:]] == \
        [0.1, 1 / 3, 2.5e-17]


def test_write_atomic_replaces_and_cleans_up(tmp_path):
    target = tmp_path / "out.txt"
    target.write_text("old")
    sz.write_atomic(target, "new")
    assert target.read_text() == "new"
    leftovers = [p for p in tmp_path.iterdir() if p.name != "out.txt"]
    assert leftovers == []


def test_write_json_sorted_keys(tmp_path):
    path = tmp_path / "obj.json"
    sz.write_json(path, {"b": 1, "a": [2, 3]})
    text = path.read_text()
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"b": 1, "a": [2, 3]}
