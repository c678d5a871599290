import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings

from conftest import algebra_to_dict, structure_tables
from nilcohom.catalog import Catalog
from nilcohom.jsonio import algebra_from_dict, pack_checksum
from nilcohom.scalars import FIELD_QI, QI
from nilcohom.tables import parse_table

CAT = Catalog()


def test_schema_shape(catalog):
    mu = catalog.structure("g_{5,3}")
    data = algebra_to_dict(mu, "g_{5,3}")
    assert data == {
        "name": "g_{5,3}",
        "dim": 5,
        "field": "Q",
        "brackets": [
            {"i": 1, "j": 2, "terms": [{"k": 4, "c": "1"}]},
            {"i": 1, "j": 4, "terms": [{"k": 5, "c": "1"}]},
            {"i": 2, "j": 3, "terms": [{"k": 5, "c": "1"}]},
        ],
    }


def _typed(mu):
    return {pair: [(k, type(v), v) for k, v in sorted(coeffs.items())]
            for pair, coeffs in mu.c.items()}


@settings(max_examples=150, deadline=None)
@given(structure_tables())
@example(CAT.structure("g_{5,3}"))
@example(CAT.structure("12346_E"))
@example(CAT.structure("g_{247H}"))
@example(parse_table("ab = (1/2-3/4 i)c, ac = 2d", 4))
def test_round_trip_is_bit_exact(mu):
    again = algebra_from_dict(json.loads(json.dumps(algebra_to_dict(mu))))
    assert again == mu and again.field == mu.field
    assert _typed(again) == _typed(mu)  # every entry of the same type, too


def test_gaussian_table_survives_json():
    mu = parse_table("ab = (1/2-3/4 i)c, ac = 2d", 4)
    again = algebra_from_dict(json.loads(json.dumps(algebra_to_dict(mu))))
    assert again.field == FIELD_QI
    assert again.entry(0, 1, 2) == QI(Fraction(1, 2), Fraction(-3, 4))
    assert again.entry(0, 2, 3) == 2


def test_fractional_coefficients_survive():
    mu = parse_table("ab = 355/113c", 3)
    data = algebra_to_dict(mu)
    assert data["brackets"][0]["terms"][0]["c"] == "355/113"
    assert algebra_from_dict(data).entry(0, 1, 2) == Fraction(355, 113)


def test_rejects_bad_indices():
    with pytest.raises(Exception):
        algebra_from_dict({"dim": 3, "brackets": [
            {"i": 2, "j": 1, "terms": [{"k": 3, "c": "1"}]}]})
    with pytest.raises(ValueError):
        algebra_from_dict({"dim": 3, "field": "R", "brackets": []})


def test_pack_checksum_changes_with_content(tmp_path):
    (tmp_path / "a.json").write_text("{}")
    c1 = pack_checksum(tmp_path)
    (tmp_path / "a.json").write_text('{"x": 1}')
    c2 = pack_checksum(tmp_path)
    assert c1 != c2
