import json
import re
from fractions import Fraction

import pytest

from nilcohom.catalog import Catalog, IsomorphismWitness, named_polynomial
from nilcohom.errors import ExternalDataRequired, TableError, UnknownAlgebra
from nilcohom.liealg import is_lie, nil_index
from nilcohom.tables import parse_table


def test_lookup_is_notation_insensitive(catalog):
    a = catalog.get("g_{5,3}")
    assert catalog.get("g5,3") is a
    assert catalog.get("G_{5,3}") is a
    assert catalog.get("g_{6,14}").name == "12346_E"
    assert catalog.get("12457_N").name == "g_1(t)"
    with pytest.raises(UnknownAlgebra):
        catalog.get("g_{99,1}")


def test_pack_only_names_raise_a_specific_error(catalog):
    for name in ("g_{247H_1}", "g_{147E}(t)", "36", "g_{6,22}", "1346_C"):
        with pytest.raises(ExternalDataRequired):
            catalog.get(name)


def test_structures_match_printed_tables(catalog):
    assert catalog.structure("g_{5,3}") == parse_table("ab = d, ad = e, bc = e", 5)
    mu = catalog.structure("g_{147E_1}(t)", {"t": Fraction(2)})
    want = parse_table(
        "ab = d, ac = -f, af = -2g, bc = e, be = 2g, bf = 2g, cd = -2g", 7
    )
    assert mu == want


def test_missing_parameters_are_reported(catalog):
    with pytest.raises(UnknownAlgebra):
        catalog.structure("g_5(r,t)", {"r": 1})
    # a symbol that is not a parameter is refused, and named with the record
    with pytest.raises(TableError, match=re.escape("'x' is not a parameter of g_5(r,t)")):
        catalog.structure("g_5(r,t)", {"r": 1, "t": 1, "x": 2})
    with pytest.raises(TableError, match=re.escape("'x' is not a parameter of fam.json")):
        catalog.get("g_5(r,t)").check_assigned({"x": 2}, "fam.json")


def test_resolve_reads_an_existing_file_before_a_name(catalog, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # table text in a file spelled like the catalog's f_3; its parameters are
    # the given symbols it uses
    (tmp_path / "f_3").write_text("ab = s c\n")
    rec = catalog.resolve("f_3", ("s", "u"))
    assert (rec.name, rec.dim, rec.params) == ("f_3", 3, ("s",))
    # the text is held parsed, its parameters those it uses
    assert rec.symbolic() is rec.table and rec.table.params == ("s",)
    assert rec.structure({"s": 2}) == parse_table("ab = 2c", 3)
    assert rec.structure({"s": 2}).name == "f_3@s=2"
    (tmp_path / "fam.json").write_text(
        json.dumps({"name": "fam", "dim": 3, "table": "ab = t c", "params": ["t"]}))
    rec = catalog.resolve("fam.json")
    assert (rec.name, rec.params, rec.provenance) == ("fam", ("t",), "external-pack")
    (tmp_path / "f_3").unlink()
    assert catalog.resolve("f_3", ("s",)) is catalog.get("f_3")


def test_every_printed_record_is_a_lie_algebra(catalog):
    for name in catalog.names():
        rec = catalog.get(name)
        samples = rec.default_samples if rec.params else ({},)
        assert samples, name  # every family carries sample points
        for pt in samples:
            assert is_lie(rec.structure(pt)), (name, pt)


def test_family_nilpotency_steps(catalog):
    assert nil_index(catalog.structure("12346_E")) == 5
    for t in (Fraction(1), Fraction(2)):
        assert nil_index(catalog.structure("g_1(t)", {"t": t})) == 5
        assert nil_index(catalog.structure("g_I(t)", {"t": t})) == 6
        assert nil_index(catalog.structure("g_{147E_1}(t)", {"t": t})) == 3


def test_attached_cochains(catalog):
    rec = catalog.get("g_{5,3}")
    nu1 = rec.cochain("nu1")
    assert nu1.c == {(1, 2): {2: Fraction(1)}}
    nu2 = rec.cochain("nu2")
    assert nu2.bracket_basis(0, 1) == {1: Fraction(1)}
    assert nu2.bracket_basis(0, 2) == {2: Fraction(-1)}
    assert nu2.bracket_basis(0, 3) == {3: Fraction(-1)}


def test_witnesses_all_verify(catalog):
    for wid, w in catalog.witnesses().items():
        if w.param is None:
            ok, diffs = catalog.verify_witness(wid)
            assert ok, (wid, diffs)
        else:
            for t in w.samples:
                ok, diffs = catalog.verify_witness(wid, at=t)
                assert ok, (wid, t, diffs)


def test_witness_gives_the_printed_mid_family_coefficients(catalog):
    # the family reached from the rigid point carries the announced
    # half-cube coefficient at t=2: ad = 5f + 4g
    mu = catalog.structure("g_{247G}(t)", {"t": Fraction(2)})
    assert mu.bracket_basis(0, 3) == {5: Fraction(5), 6: Fraction(4)}
    ok, _ = catalog.verify_witness("247H-to-247G-curve", at=Fraction(2))
    assert ok


def test_gaussian_witness_needs_its_parameter(catalog):
    with pytest.raises(ValueError):
        catalog.verify_witness("247H-to-247K-curve")
    ok, _ = catalog.verify_witness("247H-to-247K-curve", at=Fraction(2))
    assert ok


def test_identity_witness():
    cat = Catalog()
    w = IsomorphismWitness(
        id="identity",
        source="g_{5,3}",
        basis=("a", "b", "c", "d", "e"),
        target="g_{5,3}",
    )
    cat._witnesses["identity"] = w
    ok, diffs = cat.verify_witness("identity")
    assert ok and not diffs


def test_witness_failure_reports_differing_brackets(catalog):
    w = IsomorphismWitness(
        id="wrong",
        source="g_{5,3}",
        basis=("b", "a", "c", "d", "e"),  # swaps a,b: flips table signs
        target="g_{5,3}",
    )
    catalog._witnesses["wrong"] = w
    try:
        ok, diffs = catalog.verify_witness("wrong")
        assert not ok and diffs
    finally:
        del catalog._witnesses["wrong"]


def test_degenerations(catalog):
    assert catalog.verify_degeneration("g_{137D}(t)", Fraction(0), "g_{137D}")
    assert catalog.verify_degeneration("g_{147E_1}(t)", Fraction(1), "g_{147D}")
    assert catalog.verify_degeneration("g_{247G}(t)", Fraction(0), "g_{247G}")
    assert catalog.verify_degeneration("g_{247K}(t)", Fraction(0), "g_{247K}")
    assert not catalog.verify_degeneration("g_{137D}(t)", Fraction(0), "g_{137A}")


def test_data_pack_round_trip(tmp_path):
    record = {
        "name": "pack_demo",
        "dim": 3,
        "field": "Q",
        "brackets": [{"i": 1, "j": 2, "terms": [{"k": 3, "c": "1"}]}],
        "aliases": ["demo_alias"],
        "citation": "transcribed for the loader test",
    }
    family = {
        "name": "pack_family(s)",
        "dim": 4,
        "table": "ab = sc",
        "params": ["s"],
        "citation": "parametric loader test",
    }
    (tmp_path / "demo.json").write_text(json.dumps(record))
    (tmp_path / "family.json").write_text(json.dumps(family))
    (tmp_path / "manifest.json").write_text(json.dumps({"name": "demo-pack"}))
    cat = Catalog(data_pack=tmp_path)
    assert cat.pack_name == "demo-pack" and cat.pack_checksum
    rec = cat.get("demo_alias")
    assert rec.provenance == "external-pack"
    assert cat.structure("pack_demo") == parse_table("ab = c", 3)
    fam = cat.get("pack_family(s)")
    assert fam.structure({"s": Fraction(2)}) == parse_table("ab = 2c", 4)


def test_data_pack_unlocks_skipped_names(tmp_path):
    # a pack may supply any cited-but-unprinted name; the loader trusts its
    # content and tags provenance, and lookups stop raising
    data = {
        "name": "g_{147E}(t)",
        "dim": 7,
        "table": "ab = d",
        "params": ["t"],
        "citation": "placeholder transcription used only to test resolution",
    }
    (tmp_path / "e.json").write_text(json.dumps(data))
    cat = Catalog(data_pack=tmp_path)
    rec = cat.get("g_{147E}(t)")
    assert rec.provenance == "external-pack"


_PACK_36 = {"name": "36", "dim": 6, "table": "ab = d, ac = e, bc = f"}


@pytest.mark.parametrize("records, message", [
    # an alias of a printed name, a printed name up to notation, and a name
    # an earlier file of the pack took
    ([{"name": "g_{5,1}x", "dim": 5, "table": "ab = e", "aliases": ["g_{5,2}"]}],
     "r0.json: 'g_{5,2}' already names 'g_{5,2}'"),
    ([{"name": "F_3", "dim": 3, "table": "ab = c, ac = b"}], "r0.json: 'F_3' already names 'f_3'"),
    ([_PACK_36, dict(_PACK_36, table="ab = c")], "r1.json: '36' already names '36'"),
], ids=["alias", "printed-name", "two-files"])
def test_a_pack_record_may_not_take_a_bound_name(tmp_path, records, message):
    for i, record in enumerate(records):
        (tmp_path / f"r{i}.json").write_text(json.dumps(record))
    with pytest.raises(ValueError) as err:
        Catalog(data_pack=tmp_path)
    assert str(err.value) == f"{tmp_path}/{message}"


def test_named_polynomials():
    assert named_polynomial("Q1") == named_polynomial("q1")
    with pytest.raises(UnknownAlgebra):
        named_polynomial("Q99")


def test_environment_variable_selects_the_pack(tmp_path, monkeypatch):
    data = {
        "name": "env_pack_algebra",
        "dim": 3,
        "brackets": [{"i": 1, "j": 2, "terms": [{"k": 3, "c": "1"}]}],
    }
    (tmp_path / "rec.json").write_text(json.dumps(data))
    monkeypatch.setenv("NILCOHOM_DATA_PACK", str(tmp_path))
    cat = Catalog()
    assert cat.get("env_pack_algebra").provenance == "external-pack"
