import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import algebra_to_dict
import nilcohom
from nilcohom import liealg, reproduce
from nilcohom.catalog import Catalog
from nilcohom.cli import main
from nilcohom.cohomology import h2_knil
from nilcohom.errors import ResourceCapExceeded
from nilcohom.liealg import StructureConstants, n_k, sn_k
from nilcohom.tables import parse_table


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_info_known_algebra(capsys):
    code, out, _ = run(capsys, "info", "g_{5,3}")
    assert code == 0
    assert "5-dim" in out and "3-step nilpotent" in out and "orbit dim 15" in out


def test_info_counterexample_algebra(capsys):
    code, out, _ = run(capsys, "info", "12346_E")
    assert code == 0 and "6-dim" in out and "5-step" in out


def test_info_abelian_json_file(tmp_path, capsys):
    path = tmp_path / "abelian4.json"
    path.write_text(json.dumps(algebra_to_dict(StructureConstants.abelian(4), "flat4")))
    code, out, _ = run(capsys, "info", str(path))
    assert code == 0 and "abelian" in out and "orbit dim 0" in out


def test_info_table_text_file(tmp_path, capsys):
    path = tmp_path / "heis.txt"
    path.write_text("dim 5\nab = e, cd = e\n")
    code, out, _ = run(capsys, "info", str(path))
    assert code == 0 and "5-dim" in out and "2-step" in out


def test_info_text_on_tables_that_are_not_nilpotent(tmp_path, capsys):
    code, out, _ = run(capsys, "info", "g_5(r,t)", "--params", "r=1,t=1")
    assert code == 0 and "solvable (length 3), not nilpotent" in out
    path = tmp_path / "sl2.txt"
    path.write_text("dim 3\nab = c, ca = 2a, cb = -2b\n")
    code, out, _ = run(capsys, "info", str(path))
    assert code == 0 and "not solvable," in out
    assert liealg.solvable_length(parse_table("ab = c, ca = 2a, cb = -2b", 3)) is None
    # J(a, b, d) = [[a, b], d] = [c, d] = a
    path = tmp_path / "not_lie.txt"
    path.write_text("dim 4\nab = c, cd = a\n")
    code, out, _ = run(capsys, "info", str(path))
    assert code == 0 and "4-dim over Q, not a Lie bracket (Jacobi fails)" in out


def test_table_text_dimension_leaves_out_the_imaginary_unit(tmp_path, capsys):
    # without a dim line the dimension is the highest letter other than i,
    # which is the imaginary unit
    path = tmp_path / "heis_qi.txt"
    for text in ("ab = i c\n", "dim 3\nab = i c\n"):
        path.write_text(text)
        code, out, _ = run(capsys, "info", str(path), "--json")
        info = json.loads(out)
        assert code == 0 and (info["dim"], info["field"], info["nil_step"]) == (3, "Qi", 2)
    # so a table whose highest letter is i (e_9) needs the dim line
    path.write_text("dim 9\nah = i\n")
    code, out, _ = run(capsys, "info", str(path), "--json")
    info = json.loads(out)
    assert code == 0 and (info["dim"], info["field"], info["nil_step"]) == (9, "Q", 2)
    path.write_text("ah = i\n")
    code, _, err = run(capsys, "info", str(path))
    assert code == 2 and "scalar part" in err


def test_cohomology_rejects_a_perfect_algebra_at_large_k(tmp_path, capsys):
    path = tmp_path / "sl2.txt"
    path.write_text("dim 3\nab = c, ca = 2a, cb = -2b\n")
    code, _, err = run(capsys, "cohomology", str(path), "--k", "30")
    assert code == 2 and "point violates N_30 = 0" in err


def test_info_parse_error_reports_position(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("ab = c,\nac = ?\n")
    code, _, err = run(capsys, "info", str(path))
    assert code == 2 and f"{path}: line 2" in err
    # the dimension counts only the letters a..z, so the parser names a
    # letter outside them, and table text names its file as a record does
    rec = tmp_path / "upj.json"
    rec.write_text('{"name": "upj", "dim": 3, "table": "AB = C"}')
    path.write_text("AB = C\n")
    for named in (rec, path):
        code, out, err = run(capsys, "info", str(named))
        fault = f"error: {named}: line 1, col 1: unknown basis letter 'A'\n"
        assert (code, out, err) == (2, "", fault)
    path.write_text("ab = \u0436\n")
    code, _, err = run(capsys, "info", str(path))
    assert code == 2 and err.startswith(f"error: {path}: line 1, col 6: unknown symbol '\u0436'")


def test_powers_and_quotients_of_basis_vectors_exit_2_naming_the_file(tmp_path, capsys):
    for text, fault in (("ab = c^2", "line 1, col 8: cannot raise a basis vector to a power"),
                        ("ab = c/d", "line 1, col 7: division by a basis-vector expression")):
        path = tmp_path / "bad.txt"
        path.write_text(text + "\n")
        assert run(capsys, "info", str(path)) == (2, "", f"error: {path}: {fault}\n"), text


def test_division_by_a_parameter_exits_2_naming_the_file(tmp_path, capsys):
    # a coefficient is divided only by a constant, also at a point that fixes t
    path = tmp_path / "bad.txt"
    path.write_text("ab = c/(1+t)\n")
    fault = "line 1, col 7: division by a non-constant coefficient"
    assert run(capsys, "info", str(path), "--params", "t=1") == (
        2, "", f"error: {path}: {fault}\n")


def test_terms_that_cancel_leave_no_bracket_term(tmp_path, capsys):
    path = tmp_path / "t.txt"
    for text, answer in (
            ("ab = c + d - c", "4-dim over Q, 2-step nilpotent, solvable length 2,"
                               " derivation dim 10, orbit dim 6"),
            # ab = d, ac = d; with the c term kept it would be 3-step
            ("ab = c + d - c, ac = d", "4-dim over Q, 2-step nilpotent, solvable length 2,"
                                       " derivation dim 10, orbit dim 6"),
            ("ab = c - c", "3-dim over Q, abelian, derivation dim 9, orbit dim 0")):
        path.write_text(text + "\n")
        assert run(capsys, "info", str(path)) == (0, f"t.txt: {answer}\n", ""), text


def test_record_terms_outside_the_dimension_or_field_exit_2_naming_the_file(tmp_path, capsys):
    record = ('{{"name": "x", "dim": 3,{} "brackets":'
              ' [{{"i": 1, "j": 2, "terms": [{{"k": {}, "c": "{}"}}]}}]}}')
    path = tmp_path / "x.json"
    for field, k, c, fault in (
            ("", 5, "1", "needs 1 <= k <= dim, has k = 5"),
            ("", 3, "2 i", "'c' is not a scalar over Q: '2 i'"),
            # a Gaussian scalar needs its real part: "12 i" is not 1+2 i
            (' "field": "Qi",', 3, "12 i", "'c' is not a scalar over Qi: '12 i'")):
        path.write_text(record.format(field, k, c))
        assert run(capsys, "info", str(path)) == (
            2, "", f"error: {path}: brackets[0]['terms'][0]: {fault}\n"), c


def test_a_real_record_declared_over_qi_answers_over_qi(tmp_path, capsys):
    path = tmp_path / "f3.json"
    answer = "f3: 3-dim over Qi, 2-step nilpotent, solvable length 2, derivation dim 6, orbit dim 3\n"
    for body in ('"table": "ab = c"',
                 '"brackets": [{"i": 1, "j": 2, "terms": [{"k": 3, "c": "1"}]}]'):
        path.write_text(f'{{"name": "f3", "dim": 3, "field": "Qi", {body}}}')
        assert run(capsys, "info", str(path)) == (0, answer, ""), body


def test_a_table_of_real_values_answers_over_q_whatever_its_terms(tmp_path, capsys):
    # 1+it-is at t = s = 1 and (it)(it) at t = 1 are real, in any order of terms
    path = tmp_path / "t.txt"
    answer = "3-dim over Q, 2-step nilpotent, solvable length 2, derivation dim 6, orbit dim 3\n"
    for text, params in (("ab = (1+it-is)c", "t=1,s=1"), ("ab = (it-is+1)c", "t=1,s=1"),
                         ("ab = (it)(it)c", "t=1")):
        path.write_text(text + "\n")
        code, out, err = run(capsys, "info", str(path), "--params", params)
        assert (code, out.split(": ", 1)[1], err) == (0, answer, ""), text
        code, out, _ = run(capsys, "info", str(path), "--params", params, "--json")
        assert code == 0 and json.loads(out)["field"] == "Q", text


def test_a_record_over_q_refuses_a_nonreal_coefficient_only(tmp_path, capsys):
    # (it)(it) = -t^2 is real, though built from Gaussian factors; i is not
    path = tmp_path / "sq.json"
    path.write_text('{"name": "sq", "dim": 3, "field": "Q", "table": "ab = (it)(it)c",'
                    ' "params": ["t"]}')
    answer = "sq@t=1: 3-dim over Q, 2-step nilpotent, solvable length 2, derivation dim 6, orbit dim 3\n"
    assert run(capsys, "info", str(path), "--params", "t=1") == (0, answer, "")
    path.write_text('{"name": "sq", "dim": 3, "field": "Q", "table": "ab = i c"}')
    assert run(capsys, "info", str(path)) == (
        2, "", f"error: {path}: 'field' is Q, but the table has Gaussian values\n")


def test_table_text_that_is_not_utf8_exits_2_naming_the_file(tmp_path, capsys):
    path = tmp_path / "bytes.txt"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "info", str(path))
    assert (code, out) == (2, "") and f"{path}: 'utf-8' codec" in err


def test_unknown_name_is_usage_error(capsys):
    # a failed lookup prints its message, not the repr of a KeyError
    for argv, message in (
        (["info", "not_an_algebra"], "unknown algebra 'not_an_algebra'"),
        (["info", "g_5(r,t)"], "g_5(r,t) needs parameter values for: r, t"),
        (["ideal", "member", "6", "4", "Q15"], "unknown polynomial 'Q15' (P1, P2, Q1..Q14)"),
    ):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_pack_only_name_is_reported(capsys):
    code, _, err = run(capsys, "cohomology", "g_{247H_1}", "--k", "3")
    assert code == 2 and "data pack" in err


def test_cohomology_rigid_certificate_line(capsys):
    code, out, _ = run(capsys, "cohomology", "g_{137B}", "--k", "3")
    assert code == 0
    assert "h=0" in out.replace(" ", "") and "RIGID in N_{7,3}" in out


def test_cohomology_json_deterministic(capsys):
    code, out1, _ = run(capsys, "cohomology", "g_{247K}", "--k", "3", "--json")
    assert code == 0
    data = json.loads(out1)
    assert data == {"algebra": "g_{247K}", "k": 3, "z": 38, "b": 37, "h": 1,
                    "rigid_certificate": False, "orbit_dim": 37}
    _, out2, _ = run(capsys, "cohomology", "g_{247K}", "--k", "3", "--json")
    assert out1 == out2


def test_cohomology_with_params(capsys):
    code, out, _ = run(capsys, "cohomology", "f_4+R", "--k", "3")
    assert code == 0 and "h=4" in out.replace(" ", "")


def test_exactness_small_curve(capsys):
    code, out, _ = run(capsys, "exactness", "g_{147E_1}(t)", "--at", "t=2",
                       "--constraint", "n3")
    assert code == 0 and "EXACT" in out


def test_exactness_with_an_empty_free_list_frees_no_parameter(capsys):
    code, out, _ = run(capsys, "exactness", "g_5(r,t)", "--at", "r=1,t=1", "--free", "")
    assert code == 1 and "free {}" in out and "NOT EXACT" in out
    assert "rank dF = 40, dim Ker dG = 41" in out


def test_exactness_bad_constraint_is_usage_error(capsys):
    code, _, err = run(capsys, "exactness", "g_5(r,t)", "--at", "r=1,t=1",
                       "--constraint", "x7")
    assert code == 2 and "bad constraint 'x7'" in err


def test_exactness_reports_a_tangent_outside_ker_dg(tmp_path, capsys):
    # the Jacobiator of ab = c, ac = s a is s c: the table is Lie only at
    # s = 0, and there its derivative in s leaves Ker dG
    path = tmp_path / "fam.txt"
    path.write_text("ab = c\nac = s a\n")
    argv = ("exactness", str(path), "--at", "s=0", "--constraint", "j")
    code, out, err = run(capsys, *argv, "--json")
    assert (code, err) == (1, "")
    assert json.loads(out) == {
        "family": "fam.txt", "point": {"s": "0"}, "free_params": ["s"], "constraint": "j",
        "dims": [10, 9, 3], "rank_dF": 4, "ker_dG_dim": 8, "containment": False,
        "exact": False,
    }
    code, out, err = run(capsys, *argv)
    assert (code, err) == (1, "") and out == (
        "fam.txt at (s=0), free {s}, constraint j: NOT EXACT\n"
        "  dims 10 -> 9 -> 3; rank dF = 4, dim Ker dG = 8, containment VIOLATED\n")


def test_exactness_without_at_is_the_empty_point(capsys):
    for tail in ((), ("--json",)):
        got = run(capsys, "exactness", "f_4", "--constraint", "n3", *tail)
        assert got == run(capsys, "exactness", "f_4", "--at", "", "--constraint", "n3", *tail)
        assert got[0] == 0
    code, out, err = run(capsys, "exactness", "g_5(r,t)")
    assert (code, out) == (2, "") and "needs parameter values for: r, t" in err


def test_ideal_gens_text_output(capsys):
    code, out, _ = run(capsys, "ideal", "gens", "5", "3", "SN")
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 2 and all("t_{" in l for l in lines)


def test_ideal_gens_over_the_word_cap_exits_3(capsys):
    for argv, cap in (
        (("12", "6", "N"), "over the cap 100000"),
        (("12", "8", "SN"), "over the cap 100000"),
        (("26", "2", "N"), "over the cap 12 on its dimension"),
        (("26", "2", "J"), "over the cap 12 on its dimension"),
    ):
        start = time.perf_counter()
        code, _, err = run(capsys, "ideal", "gens", *argv)
        assert code == 3 and cap in err
        assert time.perf_counter() - start < 1


def test_ideal_member_and_nonmember(capsys):
    code, out, _ = run(capsys, "ideal", "member", "6", "4", "Q5")
    assert code == 0 and "verified certificate" in out
    code, out, _ = run(capsys, "ideal", "member", "6", "4", "Q14")
    assert code == 1
    code, out, _ = run(capsys, "ideal", "member", "6", "4", "Q14^2", "--json")
    assert code == 0 and json.loads(out)["member"] is True
    code, out, _ = run(capsys, "ideal", "nonmember", "6", "4", "Q14")
    assert code == 0 and "NOT in the ideal" in out
    code, out, _ = run(capsys, "ideal", "nonmember", "6", "4", "Q5",
                       "--zeros", "1,2,4;1,3,4")
    assert code == 1 and "inconclusive" in out


def test_nonmember_with_an_empty_zeros_list_zeroes_nothing(capsys):
    # not the published assignment of Q14, and no refusal for other targets
    for zeros in ("", " ; "):
        code, out, _ = run(capsys, "ideal", "nonmember", "6", "4", "Q14", "--json",
                           "--zeros", zeros)
        assert code == 0 and json.loads(out)["zeroed"] == []
        code, out, _ = run(capsys, "ideal", "nonmember", "6", "4", "Q5", "--zeros", zeros)
        assert code == 1 and "inconclusive" in out


def test_a_pack_that_takes_a_printed_name_exits_2(tmp_path, capsys):
    record = {"name": "g_{5,1}x", "dim": 5, "table": "ab = e", "aliases": ["g_{5,2}"]}
    (tmp_path / "rec.json").write_text(json.dumps(record))
    for argv in (["info", "g_{5,2}"], ["reproduce", "dim5"]):
        code, out, err = run(capsys, "--data-pack", str(tmp_path), *argv)
        assert (code, out) == (2, "") and str(tmp_path / "rec.json") in err


def test_reproduce_dim5(capsys):
    code, out, _ = run(capsys, "reproduce", "dim5")
    assert code == 0
    assert out.count("[PASS]") == 8 and "0 failed, 0 skipped" in out


def test_run_suite_refuses_an_unknown_suite(catalog):
    with pytest.raises(ValueError, match="^unknown suite 'bogus' \\(choose from dim5, "):
        reproduce.run_suite("bogus", catalog)


def test_a_failed_membership_fails_the_ideals_suite(catalog, monkeypatch):
    q5 = reproduce.cat.named_polynomial("Q5")
    search = reproduce.member_bounded

    def miss_q5(f, gens, bound):
        return None if f == q5 else search(f, gens, bound)

    monkeypatch.setattr(reproduce, "member_bounded", miss_q5)
    report = reproduce.run_suite("ideals", catalog)
    failed = [(item.computed, item.status) for item in report.items if item.status != "pass"]
    assert failed == [("failures at [5]", "fail")] and not report.passed


def test_reproduce_dim6_skips_without_pack(capsys):
    code, out, _ = run(capsys, "reproduce", "dim6")
    assert code == 0
    assert out.count("[skip]") == 6 and out.count("[PASS]") == 1


# placeholder tables (not the published ones) for three pack-only names, and
# the status and computed text of each item they unlock
PLACEHOLDER_PACK = [
    {"name": "36", "dim": 6, "table": "ab = d, ac = e, bc = f"},
    {"name": "g_{247H_1}", "dim": 7, "table": "ab = d, ac = e, ad = f, bc = g"},
    {"name": "g_{147E}(t)", "dim": 7, "table": "ab = d, ac = e, ad = f, bc = t g, ae = g",
     "params": ["t"]},
]
PLACEHOLDER_ITEMS = {
    "36 k=2": ("pass", "(z,b,h)=(18, 18, 0)"),
    "g_{247H_1} rigidity": ("fail", "h=18, orbit dim 31"),
    "g_{147E}(2) restricted H^2": ("fail", "h=6 at t=2"),
}


@pytest.mark.parametrize("seed", ["0", "777"])
def test_reproduce_json_does_not_depend_on_the_hash_seed(seed):
    # every memo is keyed by a content hash, and str hashes change with
    # PYTHONHASHSEED: a fresh interpreter under each seed writes the
    # fixture's report, timings apart
    src = str(Path(nilcohom.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from nilcohom.cli import main;"
                               " sys.exit(main(['reproduce', 'all', '--json']))"],
        env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    for item in report["items"]:
        item.pop("seconds")
    assert report == json.loads((Path(__file__).parent / "data" / "reproduce_all.json").read_text())


def test_reproduce_json_deterministic_modulo_timing(tmp_path, capsys):
    def stripped(*pack):
        code, out, _ = run(capsys, *pack, "reproduce", "all", "--json")
        data = json.loads(out)
        for item in data["items"]:
            item.pop("seconds")
        return code, data

    code, report = stripped()
    assert code == 0
    assert report == json.loads((Path(__file__).parent / "data" / "reproduce_all.json").read_text())

    for i, record in enumerate(PLACEHOLDER_PACK):
        (tmp_path / f"r{i}.json").write_text(json.dumps(record))
    (tmp_path / "manifest.json").write_text(json.dumps({"name": "placeholder"}))
    code, packed = stripped("--data-pack", str(tmp_path))
    assert code == 1 and packed["pack"] == "placeholder"
    assert packed["counts"] == {"pass": 72, "fail": 2, "skip": 5}
    unlocked = {after["name"]: (after["status"], after["computed"])
                for before, after in zip(report["items"], packed["items"], strict=True)
                if after != before}
    assert unlocked == PLACEHOLDER_ITEMS


def test_reproduce_reports_a_raising_item_as_failed(tmp_path, capsys, monkeypatch):
    # a 5-step table for a 2-step item: h2_knil raises, that item fails with
    # the error as its computed text, and the rest of the suite still runs
    data = {"name": "36", "dim": 6, "table": "ab = c, ac = d, ad = e, ae = f"}
    (tmp_path / "36.json").write_text(json.dumps(data))
    code, out, _ = run(capsys, "--data-pack", str(tmp_path), "reproduce", "dim6", "--json")
    items = {item["name"]: item for item in json.loads(out)["items"]}
    assert code == 1
    assert items["36 k=2"]["status"] == "fail"
    assert items["36 k=2"]["computed"] == "point violates N_2 = 0"
    assert items["36 k=2"]["expected"] == "(z,b,h)=(18, 18, 0)"
    assert items["12346_E k=5"]["status"] == "pass"

    def capped(*args):
        raise ResourceCapExceeded("cap")

    # a resource cap still ends the run with its own exit code
    monkeypatch.setattr(reproduce, "h2_knil", capped)
    assert main(["reproduce", "dim5"]) == 3


def test_reproduce_text_prints_a_failing_item_with_its_expected_value(capsys, monkeypatch):
    # one item computes a wrong answer: the text report marks it FAIL with
    # the expected value beside it, counts it, and the run exits 1
    def dim5_items(catalog):
        items = reproduce._dim5_items(catalog)
        name, source, expected, _ = items[0]
        items[0] = (name, source, expected, lambda: "(z,b,h)=(0, 0, 0)")
        return items

    monkeypatch.setitem(reproduce._BUILDERS, "dim5", dim5_items)
    code, out, _ = run(capsys, "reproduce", "dim5")
    assert code == 1
    assert "[FAIL] f_3+R^2 k=2: (z,b,h)=(0, 0, 0)  (expected (z,b,h)=(20, 9, 11))\n" in out
    assert out.count("[PASS]") == 7
    assert out.endswith("suite dim5: 7 passed, 1 failed, 0 skipped\n")


def test_reproduce_text_names_the_data_pack_and_its_checksum(tmp_path, capsys):
    # a pack without a manifest is named by its directory; the checksum runs
    # over the file names and contents
    text = json.dumps({"name": "cli_pack_algebra", "dim": 3, "table": "ab = c"}).encode()
    (tmp_path / "rec.json").write_bytes(text)
    digest = hashlib.sha256(b"rec.json" + text).hexdigest()
    code, out, _ = run(capsys, "--data-pack", str(tmp_path), "reproduce", "dim5")
    assert code == 0
    assert out.endswith("suite dim5: 8 passed, 0 failed, 0 skipped\n"
                        f"data pack: {tmp_path.name} (sha256 {digest})\n")


def test_usage_error_exit_code(capsys):
    assert main(["reproduce", "nonsense"]) == 2
    assert main([]) == 2


def test_data_pack_flag(tmp_path, capsys):
    record = {
        "name": "cli_pack_algebra",
        "dim": 3,
        "brackets": [{"i": 1, "j": 2, "terms": [{"k": 3, "c": "1"}]}],
    }
    (tmp_path / "rec.json").write_text(json.dumps(record))
    code, out, _ = run(capsys, "--data-pack", str(tmp_path), "info", "cli_pack_algebra")
    assert code == 0 and "2-step" in out

    # a record without its name or dimension, and a pack that is not there,
    # are usage errors that name the file or directory
    nameless = tmp_path / "nameless" / "rec.json"
    dimless = tmp_path / "dimless" / "rec.json"
    for path, data in ((nameless, {"dim": 3, "table": "ab = c"}),
                       (dimless, {"name": "f_3", "table": "ab = c"})):
        path.parent.mkdir()
        path.write_text(json.dumps(data))
    for pack, named in ((nameless.parent, nameless), (dimless.parent, dimless),
                        (tmp_path / "no_such_dir", tmp_path / "no_such_dir")):
        code, _, err = run(capsys, "--data-pack", str(pack), "info", "f_3")
        assert code == 2 and str(named) in err


def test_a_manifest_without_a_string_name_is_a_usage_error(tmp_path, capsys):
    # a manifest that is not an object, or whose name is not a string, is
    # refused before any record is read, naming the manifest
    for sub, manifest in (("listed", [1]), ("numbered", {"name": 3})):
        path = tmp_path / sub / "manifest.json"
        path.parent.mkdir()
        path.write_text(json.dumps(manifest))
        code, _, err = run(capsys, "--data-pack", str(path.parent), "info", "f_3")
        assert code == 2 and str(path) in err


def test_bad_parameter_points_are_usage_errors(capsys):
    for at, message in (("r=1/0,t=1", "division by zero"),
                        ("r=1,t=1,t=2", "'t' assigned twice"),
                        ("r=1e999999999,t=1", "unexpected 'e'"),
                        ("r=t_{1,2,3},t=1", "malformed chart variable")):
        start = time.perf_counter()
        code, _, err = run(capsys, "exactness", "g_5(r,t)", "--at", at)
        assert code == 2 and message in err
        assert time.perf_counter() - start < 1
    code, _, err = run(capsys, "info", "f_4+R", "--params", "t=1/2,t=1/2")
    assert code == 2 and "assigned twice" in err


def test_ideal_variables_outside_the_chart_are_usage_errors(capsys):
    code, _, err = run(capsys, "ideal", "member", "6", "4", "t_{1,2,9}")
    assert code == 2 and "t_{1,2,9} is not a variable of the 6-dimensional chart" in err
    code, _, err = run(capsys, "ideal", "member", "6", "4", "t_{2,1,3}")
    assert code == 2 and "t_{2,1,3}" in err
    code, _, err = run(capsys, "ideal", "nonmember", "6", "4", "Q5", "--zeros", "1,2")
    assert code == 2 and "t_{1,2} is not a variable" in err
    code, _, err = run(capsys, "ideal", "nonmember", "6", "4", "Q5", "--zeros", "a,b,c")
    assert code == 2 and "bad --zeros entry 'a,b,c' (expected i,j,k)" in err
    # only ASCII digits, as in the table grammar: Arabic-Indic 1,2,4 is refused
    code, _, err = run(capsys, "ideal", "nonmember", "6", "4", "Q5",
                       "--zeros", "\u0661,\u0662,\u0664;1,3,4")
    assert code == 2 and "bad --zeros entry '\u0661,\u0662,\u0664'" in err
    code, _, err = run(capsys, "ideal", "member", "6", "4", "t_{1,2,3}+")
    assert code == 2 and "unexpected end of input" in err


def test_zeroth_powers_and_powers_of_zero_pass_the_power_caps(capsys):
    code, out, _ = run(capsys, "ideal", "member", "6", "4", "Q13^0", "--json")
    assert code == 1 and json.loads(out)["member"] is False  # 1 is no member
    code, out, _ = run(capsys, "ideal", "member", "6", "4", "(t_{1,2,3}-t_{1,2,3})^3")
    assert code == 0 and out.startswith("0 lies in the ideal")


def test_named_targets_take_any_power(capsys):
    code, out, _ = run(capsys, "ideal", "member", "6", "4", "Q13^3", "-D", "9", "--json")
    data = json.loads(out)
    assert code == 0 and data["member"] is True and data["target"] == "Q13^3"
    # the weight-directed search stops at MAX_WEIGHTED_NODES, as documented
    code, _, err = run(capsys, "ideal", "member", "6", "4", "Q5^4", "-D", "12")
    assert code == 3 and "200000 multiplier monomial prefixes" in err
    start = time.perf_counter()
    code, _, err = run(capsys, "ideal", "member", "6", "4", "Q5^99999")
    assert code == 2 and "too large" in err
    assert time.perf_counter() - start < 1
    # a product of 1,200 factors is refused at degree 65, before the search
    product = "*".join(["t_{1,2,3}"] * 1200)
    code, _, err = run(capsys, "ideal", "member", "3", "1", product, "-D", "1200")
    assert code == 2 and "product too large" in err


def test_unknown_parameter_names_are_usage_errors(tmp_path, capsys):
    code, _, err = run(capsys, "exactness", "g_5(r,t)", "--at", "r=1,t=1,x=2",
                       "--constraint", "sn5")
    assert code == 2 and "'x' is not a parameter of g_5(r,t) (parameters: r, t)" in err
    code, _, err = run(capsys, "exactness", "g_5(r,t)", "--at", "=1,r=1,t=1")
    assert code == 2 and "bad parameter assignment '=1'" in err
    code, _, err = run(capsys, "info", "g_{5,3}", "--params", "zz=3")
    assert code == 2 and "'zz' is not a parameter of g_{5,3} (parameters: none)" in err
    code, _, err = run(capsys, "cohomology", "f_4+R", "--k", "3", "--params", "t=1")
    assert code == 2 and "'t' is not a parameter" in err
    # a table text's parameters are the symbols it uses; a JSON table has none
    path = tmp_path / "heis_s.txt"
    path.write_text("dim 3\nab = s c\n")
    code, out, _ = run(capsys, "info", str(path), "--params", "s=2")
    assert code == 0 and "3-dim" in out and "2-step" in out
    # without a dim line the dimension comes from the letters that are not
    # parameters
    path.write_text("ab = s c\n")
    code, out, _ = run(capsys, "info", str(path), "--params", "s=2")
    assert code == 0 and "3-dim" in out and "2-step" in out
    # an evaluated table text is named by its point, as a family is
    assert out.startswith("heis_s.txt@s=2: 3-dim")
    code, _, err = run(capsys, "info", str(path), "--params", "s=2,u=1")
    assert code == 2 and "'u' is not a parameter of heis_s.txt (parameters: s)" in err
    path = tmp_path / "abelian2.json"
    path.write_text(json.dumps(algebra_to_dict(StructureConstants.abelian(2), "flat2")))
    code, _, err = run(capsys, "info", str(path), "--params", "s=2")
    assert code == 2 and "'s' is not a parameter of abelian2.json" in err
    # a parameter without a value is named the same way by every command
    for argv in (["info", "g_5(r,t)", "--params", "r=1"],
                 ["cohomology", "g_5(r,t)", "--k", "5", "--params", "r=1"],
                 ["exactness", "g_5(r,t)", "--at", "r=1"]):
        assert run(capsys, *argv) == (2, "", "error: g_5(r,t) needs parameter values for: t\n")
    code, out, err = run(capsys, "exactness", "g_5(r,t)", "--at", "r=1,t=1", "--free", "r,r")
    assert code == 2 and out == "" and "free parameter 'r' given twice" in err
    # the known names still answer
    code, out, _ = run(capsys, "exactness", "g_5(r,t)", "--at", "r=1,t=1", "--constraint", "sn5")
    assert code == 0 and "(r=1, t=1)" in out and "EXACT" in out


def test_word_walk_caps_exit_3(capsys, monkeypatch):
    # g_5(1,1) and g_6(1,1) are not nilpotent: their long words never vanish
    # with their tangents, so the walk stops at a cap instead of recursing
    # without end; words longer than the depth cap are refused before the
    # walk starts
    start = time.perf_counter()
    code, _, err = run(capsys, "exactness", "g_5(r,t)", "--at", "r=1,t=1",
                       "--constraint", "sn99999")
    assert code == 3 and f"100000 letters, over the cap {liealg.MAX_WALK_DEPTH}" in err
    assert time.perf_counter() - start < 5
    monkeypatch.setattr(liealg, "MAX_WALK_NODES", 20_000)
    code, _, err = run(capsys, "exactness", "g_6(r,t)", "--at", "r=1,t=1",
                       "--constraint", "sn30")
    assert code == 3 and "more than 20000 nonzero words" in err
    # the inner words of g_5(1,1) over its generating letters (0, 1) stay
    # under that cap
    code, out, _ = run(capsys, "exactness", "g_5(r,t)", "--at", "r=1,t=1",
                       "--constraint", "sn30")
    assert code == 1 and "rank dF = 41, dim Ker dG = 45, containment ok" in out
    # on a nilpotent table the walk prunes every long word, under both caps;
    # the rows of N_199 (200 letters, the longest words taken) all vanish, so
    # the sequence is not exact
    code, out, _ = run(capsys, "exactness", "g_{147E_1}(t)", "--at", "t=2",
                       "--constraint", "n199")
    assert code == 1 and "rank dF = 35, dim Ker dG = 59, containment ok" in out


def test_word_walk_caps_hold_for_the_public_tensors():
    # [e1, e2] = e2: the words [e1, e2, e1, ..., e1] never vanish
    mu = StructureConstants(2, {(0, 1): {1: 1}})
    for fn in (n_k, sn_k):
        with pytest.raises(ResourceCapExceeded, match="letters without vanishing"):
            fn(mu, liealg.MAX_WALK_DEPTH + 50)
    assert n_k(mu, liealg.MAX_WALK_DEPTH - 1)


def test_exactness_refuses_words_past_the_walk_depth(capsys):
    # N_K and SN_K words have K + 1 letters; past MAX_WALK_DEPTH the
    # constraint is refused before any work, so no n^(K+1)-sized dimension
    # is ever printed
    depth = liealg.MAX_WALK_DEPTH
    for kind in ("n", "sn"):
        for json_flag in ([], ["--json"]):
            code, out, err = run(capsys, "exactness", "g_1(t)", "--at", "t=1",
                                 "--constraint", f"{kind}{depth}", *json_flag)
            assert code == 3 and out == ""
            assert f"{kind.upper()}_{depth} have {depth + 1} letters, over the cap {depth}" in err
        # K + 1 = MAX_WALK_DEPTH letters still answer
        code, out, _ = run(capsys, "exactness", "g_1(t)", "--at", "t=1", "--constraint",
                           f"{kind}{depth - 1}", "--json")
        assert code == 1 and json.loads(out)["constraint"] == f"{kind}{depth - 1}"


def test_the_depth_refusal_stays_in_exactness(catalog, capsys):
    # only exactness prints an n^(K+1)-sized codomain, so only it refuses
    # words past MAX_WALK_DEPTH letters up front; on a 2-step table the walk
    # of h2_knil prunes every long word, and cohomology answers
    depth = liealg.MAX_WALK_DEPTH
    rep = h2_knil(catalog.structure("f_3"), depth + 300)
    assert (rep.z, rep.b, rep.h) == (8, 3, 5)
    code, out, _ = run(capsys, "cohomology", "f_3", "--k", str(depth + 300), "--json")
    assert code == 0 and [json.loads(out)[x] for x in "zbh"] == [8, 3, 5]
    start = time.perf_counter()
    code, out, err = run(capsys, "exactness", "f_3", "--at", "", "--constraint", f"n{depth}")
    assert code == 3 and out == "" and f"N_{depth} have {depth + 1} letters" in err
    assert time.perf_counter() - start < 5


def test_each_fault_exits_2_with_one_message(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("dim 5\nab = c, cd = e\n")
    for argv in (("cohomology", str(path), "--k", "3"),
                 ("exactness", str(path), "--at", "", "--constraint", "j")):
        assert run(capsys, *argv) == (2, "", "error: point violates the Jacobi identity\n")
    for argv in (("cohomology", "f_4", "--k", "2"),
                 ("exactness", "f_4", "--at", "", "--constraint", "n2")):
        assert run(capsys, *argv) == (2, "", "error: point violates N_2 = 0\n")


# -- argv property -----------------------------------------------------------------

_CATALOG = Catalog()
_PARAMS = {name: _CATALOG.get(name).params for name in _CATALOG.names()}
_CATALOG_NAMES = sorted(_PARAMS) + ["g_{247H_1}", "not_an_algebra", ""]
_FAMILIES = sorted(name for name, params in _PARAMS.items() if params)
_VALUES = st.one_of(
    st.integers(-3, 3).map(str),
    st.builds("{}/{}".format, st.integers(-3, 3), st.sampled_from([0, 2, 10**40])),
    st.just(str(10**40)),
)


def _assignment(draw, name):
    """"sym=value,..." over the parameters of ``name``, or over a few names
    known or not, repeats allowed."""
    params = list(_PARAMS.get(name, ()))
    names = draw(st.one_of(
        st.just(params), st.lists(st.sampled_from(params + ["r", "s", ""]), max_size=3)))
    return ",".join(f"{sym}={draw(_VALUES)}" for sym in names)


_KS = st.one_of(st.integers(-2, 8), st.integers(9, 199), st.integers(200, 10**6))
_TARGETS = st.sampled_from([
    "Q5", "Q13", "Q14", "P1", "q5^2", "Q13^2", "Q14^2", "Q5^99999", "Q15", "0", "3",
    "t_{1,2,3}*t_{2,3,4}", "t_{1,2,3}+t_{2,3,4}", "t_{1,2,9}", "t_{2,1,3}", "t_{1,2,3}+",
    "1/0", "x",
])


# -- JSON algebra records ----------------------------------------------------------

_SCALARS = st.sampled_from(["1", "-1/2", "1+2 i", "1/0", "1e9", "x", 2])
_INDICES = st.one_of(st.integers(0, 4), st.sampled_from(["1", None, 1.5, True]))
_TERMS = st.fixed_dictionaries({"k": _INDICES, "c": _SCALARS})
_BRACKETS = st.fixed_dictionaries(
    {"i": _INDICES, "j": _INDICES, "terms": st.one_of(st.lists(_TERMS, max_size=2), st.just(5))})
_TABLES = st.sampled_from(["ab = c", "ab = c, ac = d", "ab = (1+i)c", "ab = t c", "ab = zz", 3])


def _pruned(draw, fields):
    """``fields`` with up to two of its keys left out, and so every object
    nested in it."""
    if isinstance(fields, list):
        return [_pruned(draw, x) for x in fields]
    if not isinstance(fields, dict):
        return fields
    drop = draw(st.sets(st.sampled_from(sorted(fields)), max_size=2)) if fields else set()
    return {key: _pruned(draw, value) for key, value in fields.items() if key not in drop}


@st.composite
def _record_texts(draw):
    """Text of a JSON algebra record named ``drawn``, in either form, with
    keys left out, mistyped or out of range (dims 0 and 27 among them); or
    JSON that is no record, or text that is not JSON."""
    shape = draw(st.sampled_from(["brackets", "table", "other"]))
    if shape == "other":
        return draw(st.sampled_from(["[1, 2]", "5", "{\"name\": \"drawn\", 'dim': 3}", ""]))
    fields = {
        "name": draw(st.sampled_from(["drawn", 5])),
        "dim": draw(st.one_of(st.integers(0, 4), st.sampled_from([26, 27, "3"]))),
        "field": draw(st.sampled_from(["Q", "Qi", "R"])),
        "aliases": draw(st.sampled_from([["drawn_alias"], "drawn_alias"])),
    }
    if shape == "brackets":
        fields["brackets"] = draw(st.one_of(st.lists(_BRACKETS, max_size=3), st.just(5)))
    else:
        fields["table"] = draw(_TABLES)
        fields["params"] = draw(st.sampled_from([[], ["t"], [1], "t", ["tt"], [""], ["t", "t"]]))
    return json.dumps(_pruned(draw, fields))


def _record_argv(draw):
    """argv naming a drawn record as a file, or by name from a --data-pack
    directory that holds it (or holds nothing, or is not there), with the
    files to write under ``{dir}``; ``{dir}/pack`` always exists."""
    text = draw(_record_texts())
    where = draw(st.sampled_from(["file", "pack", "empty pack", "no pack"]))
    if where == "file":
        argv, files = ["{dir}/drawn.json"], {"drawn.json": text}
    else:
        pack = "{dir}/pack" if where != "no pack" else "{dir}/no_pack"
        name = draw(st.sampled_from(["drawn", "drawn_alias", "f_3"]))
        argv, files = ["--data-pack", pack, name], {}
        if where == "pack":
            files["pack/drawn.json"] = text
            manifest = draw(st.sampled_from([None, '{"name": "p"}', "[1]", "{"]))
            if manifest is not None:
                files["pack/manifest.json"] = manifest
    command = draw(st.sampled_from([["info"], ["cohomology", "--k", "2"],
                                     ["exactness", "--at", f"t={draw(_VALUES)}"]]))
    # the options go before the command, the name right after it
    argv = argv[:-1] + command[:1] + argv[-1:] + command[1:]
    return argv, files


@st.composite
def _argvs(draw):
    """argv for info, cohomology, exactness and ideal gens|member|nonmember,
    with the files it names (none but for a drawn JSON record).

    The g_5 and g_6 families keep SN_K with 8 < K < 200 out: at their
    points that are not nilpotent the word walk runs to its node cap, for
    seconds.  Chart sizes and degree bounds are those that answer in well
    under a second.
    """
    command = draw(st.sampled_from(
        ["info", "cohomology", "exactness", "gens", "member", "nonmember", "record"]))
    files = {}
    if command == "record":
        argv, files = _record_argv(draw)
    elif command == "info":
        name = draw(st.sampled_from(_CATALOG_NAMES))
        argv = ["info", name, "--params", _assignment(draw, name)]
    elif command == "cohomology":
        name = draw(st.sampled_from(_CATALOG_NAMES))
        argv = ["cohomology", name, "--k", str(draw(_KS)), "--params", _assignment(draw, name)]
    elif command == "exactness":
        family = draw(st.sampled_from(_FAMILIES + ["g_{5,3}", "not_an_algebra"]))
        kind = draw(st.sampled_from(["j", "n", "sn", "x"]))
        k = draw(_KS)
        assume(not (kind == "sn" and family in ("g_5(r,t)", "g_6(r,t)") and 8 < k < 200))
        argv = ["exactness", family, "--at", _assignment(draw, family),
                "--constraint", kind if kind == "j" else f"{kind}{k}"]
    elif command == "gens":
        argv = ["ideal", "gens", str(draw(st.sampled_from([-1, *range(8), 13, 26]))),
                str(draw(st.integers(-2, 6))), draw(st.sampled_from(["J", "N", "SN", "sn"]))]
    else:
        n, k = draw(st.one_of(st.just((6, 4)), st.tuples(
            st.sampled_from([-1, 0, 3, 5, 6, 13]), st.sampled_from([-2, 0, 2, 3, 4, 5]))))
        argv = ["ideal", command, str(n), str(k), draw(_TARGETS)]
        if command == "member" and draw(st.booleans()):
            argv += ["-D", str(draw(st.integers(-1, 6)))]
        if command == "nonmember" and draw(st.booleans()):
            argv += ["--zeros", draw(st.sampled_from(["1,2,4;1,3,4", "1,2,4", "1,2", "a,b", ""]))]
    if draw(st.booleans()):
        argv.append("--json")
    return argv, files


# malformed records, each with the key (or the fault) its error names
_MALFORMED = {
    '{"name": "x", "dim": 3, "brackets": [{"i": 1}]}': "'j' is missing",
    '{"brackets": []}': "'dim' is missing",
    '{"name": "x", "dim": 3, "brackets": 5}': "'brackets' is not a list",
    "[1, 2]": "not a JSON object",
    '{"name": "x", "dim": 3, "brackets": [{"i": 1, "j": 2, "terms": [{"k": 3}]}]}':
        "'c' is missing",
    "{\"name\": \"x\", 'dim': 3}": "Expecting property name",
    '{"name": "x", "dim": 3, "table": "ab = (1+i)c"}': "'field' is Q",
    '{"name": "x", "dim": 3, "brackets": [{"i": 1, "j": 2, "terms": [{"k": 3, "c": "1+2 i"}]}]}':
        "'c' is not a scalar over Q",
    '{"name": "x", "dim": 3, "table": "ab = c", "params": ["ss"]}': "'ss' is not one letter",
    '{"name": "x", "dim": 3, "table": "ab = c", "params": [""]}': "'' is not one letter",
    '{"name": "x", "dim": 3, "table": "ab = c", "params": ["t", "t"]}': "'t' is declared twice",
    '{"name": "x", "dim": 3, "table": "ab = c", "params": ["1"]}': "'1' is not one letter",
}


def _malformed_examples(test):
    """Each malformed record as an example, as a file and in a pack."""
    for text in _MALFORMED:
        test = example((["info", "{dir}/drawn.json"], {"drawn.json": text}))(test)
        test = example((["--data-pack", "{dir}/pack", "info", "f_3"],
                        {"pack/drawn.json": text}))(test)
    return test


def _main_in(tmp, argv, files):
    """Run main on argv with ``{dir}`` set to the directory ``tmp``, after
    writing ``files`` under it; returns (code, stdout, stderr)."""
    (Path(tmp) / "pack").mkdir(exist_ok=True)
    for name, text in files.items():
        (Path(tmp) / name).write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([arg.replace("{dir}", str(tmp)) for arg in argv])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None)
@example((["exactness", "g_1(t)", "--at", "t=1", "--constraint", "n100000"], {}))
@_malformed_examples
@given(_argvs())
def test_every_argv_answers_or_exits_2_or_3(case):
    argv, files = case
    with tempfile.TemporaryDirectory() as tmp:
        code, out, err = _main_in(tmp, argv, files)
    assert code in (0, 1, 2, 3)
    if code in (2, 3):
        assert out == "" and err
    elif "--json" in argv:
        json.loads(out)


def test_malformed_records_exit_2_naming_the_key_and_the_file(tmp_path):
    for text, fault in _MALFORMED.items():
        path = tmp_path / "pack" / "drawn.json"
        for argv in (["info", str(path)], ["--data-pack", str(path.parent), "info", "f_3"]):
            code, out, err = _main_in(tmp_path, argv, {"pack/drawn.json": text})
            assert (code, out) == (2, "") and fault in err and str(path) in err, (text, argv)


# a record in table form, and a real record declared over Q(i): each is
# the 2-step f_3, over Q and over Q(i), however it is given; and the
# family of f_3 scaled by t
_F3_TABLE = '{"name": "drawn", "dim": 3, "table": "ab = c"}'
_F3_OVER_QI = ('{"name": "drawn", "dim": 3, "field": "Qi",'
               ' "brackets": [{"i": 1, "j": 2, "terms": [{"k": 3, "c": "1"}]}]}')
_F3_FAMILY = '{"name": "drawn", "dim": 3, "table": "ab = t c", "params": ["t"]}'


@settings(max_examples=60, deadline=None)
@example(_F3_TABLE)
@example(_F3_OVER_QI)
@example(_F3_FAMILY)
@given(_record_texts())
def test_a_record_answers_the_same_as_a_file_and_from_a_pack(text):
    try:
        data = json.loads(text)
        named, family = data["name"] == "drawn", data.get("params") == ["t"]
    except (ValueError, TypeError, KeyError, AttributeError):
        named = family = False
    commands = [["info", "--json"]]
    if family:
        commands.append(["exactness", "--at", "t=1/2", "--constraint", "n3", "--json"])
    for command, *options in commands:
        with tempfile.TemporaryDirectory() as tmp:
            files = {"pack/drawn.json": text}
            as_file = _main_in(tmp, [command, "{dir}/pack/drawn.json", *options], files)
            from_pack = _main_in(tmp, ["--data-pack", "{dir}/pack", command, "drawn", *options],
                                 files)
        # only exactness answers 1 (NOT EXACT)
        ok = (0, 1, 2) if command == "exactness" else (0, 2)
        assert as_file[0] in ok and from_pack[0] in ok
        if named:
            # byte for byte the same answer, or both refuse it
            assert from_pack[:2] == as_file[:2]
        else:
            # a pack names its records; a file is named by its path
            assert from_pack[0] == 2


def test_a_family_answers_exactness_from_a_file_a_pack_and_table_text(tmp_path):
    record = '{"name": "fam", "dim": 3, "table": "ab = t c", "params": ["t"]}'
    files = {"fam.json": record, "pack/fam.json": record, "fam": "ab = t c\n"}
    point = ["--at", "t=1/2", "--constraint", "n3"]
    answers = [_main_in(tmp_path, argv, files) for argv in (
        ["exactness", "{dir}/fam.json", *point],
        ["--data-pack", "{dir}/pack", "exactness", "fam", *point],
        ["exactness", "{dir}/fam", *point],  # table text, named by its file
    )]
    assert answers[0] == answers[1] == answers[2] == (
        1, "fam at (t=1/2), free {t}, constraint n3: NOT EXACT\n"
        "  dims 10 -> 9 -> 246; rank dF = 3, dim Ker dG = 5, containment ok\n", "")


def test_a_parameter_symbol_given_a_value_is_still_refused(tmp_path):
    """A declared symbol that is not one letter declared once exits 2 naming
    the file also when the command gives it a value, and so does such a
    symbol given to a table-text file."""
    record = '{{"name": "x", "dim": 3, "table": "ab = c", "params": {}}}'
    for argv, files, fault in (
            (["info", "{dir}/x.json", "--params", "t=2"], {"x.json": record.format('["t", "t"]')},
             "'t' is declared twice"),
            (["exactness", "{dir}/x.json", "--at", "t=2"], {"x.json": record.format('["t", "t"]')},
             "'t' is declared twice"),
            (["info", "{dir}/x.json", "--params", "1=2"], {"x.json": record.format('["1"]')},
             "'1' is not one letter"),
            (["info", "{dir}/t.txt", "--params", "ss=1"], {"t.txt": "ab = c\n"},
             "'ss' is not one letter"),
            (["exactness", "{dir}/t.txt", "--at", "tt=1"], {"t.txt": "ab = c\n"},
             "'tt' is not one letter")):
        code, out, err = _main_in(tmp_path, argv, files)
        assert (code, out) == (2, "") and fault in err, argv
        assert argv[1].replace("{dir}", str(tmp_path)) in err, argv


def test_a_record_file_is_named_by_its_file_name_in_every_parameter_error(tmp_path):
    files = {"fam.json": '{"name": "fam", "dim": 3, "table": "ab = t c", "params": ["t"]}'}
    for command, option in (("info", "--params"), ("exactness", "--at")):
        assert _main_in(tmp_path, [command, "{dir}/fam.json", option, ""], files) == (
            2, "", "error: fam.json needs parameter values for: t\n")
        assert _main_in(tmp_path, [command, "{dir}/fam.json", option, "u=1"], files) == (
            2, "", "error: 'u' is not a parameter of fam.json (parameters: t)\n")
    # from a pack the record is named by its name
    files["pack/fam.json"] = files["fam.json"]
    assert _main_in(tmp_path, ["--data-pack", "{dir}/pack", "info", "fam"], files) == (
        2, "", "error: fam needs parameter values for: t\n")


def test_a_record_past_26_letters_exits_2_at_once(tmp_path):
    path = tmp_path / "pack" / "big.json"
    for argv in (["info", str(path)], ["--data-pack", str(path.parent), "info", "big"]):
        start = time.perf_counter()
        code, out, err = _main_in(tmp_path, argv, {"pack/big.json": '{"name": "big", "dim": 2000}'})
        assert (code, out) == (2, "") and "'dim' is 2000, outside 1..26" in err
        assert str(path) in err and time.perf_counter() - start < 1
