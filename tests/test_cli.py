import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from skeinalg.algebra import (ALGEBRA_MAX_DIM, conjugation_hom,
                              matrix_algebra, product_field_algebra,
                              identity_hom, make_hom, transport_algebra)
from skeinalg import bimodule as bimodule_mod
from skeinalg import jsonio
from skeinalg import tqft1d as tqft1d_mod
from skeinalg.bimodule import modulate, regular_bimodule
from skeinalg.cli import main
from skeinalg.errors import ContractViolation, ParseError
from skeinalg.jsonio import (algebra_from_json, algebra_to_json,
                             bimodule_from_json, bimodule_to_json,
                             hom_from_json, hom_to_json, laurent_from_json,
                             laurent_to_json, parse_braid_string,
                             system_from_json, tangle_from_json)
from skeinalg.laurent import LaurentPoly
from skeinalg.linalg import Matrix, matrix_power
from skeinalg.tangles import (CAP, CUP, ID, closed_braid_tangle, cross,
                              tangle, twist)
from skeinalg.tqft1d import make_system

TREFOIL = "A^7 + A^3 + A^-1 - A^-9"
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def run_cli(*argv):
    lines = []
    code = main(list(argv), out=lines.append)
    return code, lines


# -- round trips --------------------------------------------------------------


def test_algebra_roundtrip():
    a = matrix_algebra(2)
    assert algebra_from_json(algebra_to_json(a)) == a


def test_hom_roundtrip():
    u = Matrix.from_rows([[1, 1], [0, 1]])
    f = conjugation_hom(2, u)
    assert hom_from_json(hom_to_json(f)) == f


def test_bimodule_roundtrip():
    b = regular_bimodule(matrix_algebra(2))
    assert bimodule_from_json(bimodule_to_json(b)) == b


# -- the file formats, pinned by literal documents -----------------------------


def test_system_json_literal():
    doc = {"dim": 2, "step": [["-3", "1"], ["0", "1/2"]],
           "states": {"0": ["-1", "1"], "1": [-2, 1]},
           "costates": {"0": ["-2", "-1"], "1": ["-2", "3"]},
           "observables": {"0": [["1", "1"], ["-5/3", "-5/2"]],
                           "1": [["-7/3", "1/3"], ["1", "-1"]]}}
    half, third = Fraction(1, 2), Fraction(1, 3)
    assert system_from_json(doc) == make_system(
        2, Matrix.from_rows([[-3, 1], [0, half]]),
        states={"0": (-1, 1), "1": (-2, 1)},
        costates={"0": (-2, -1), "1": (-2, 3)},
        observables={"0": Matrix.from_rows([[1, 1], [-5 * third, -5 * half]]),
                     "1": Matrix.from_rows([[-7 * third, third], [1, -1]])})
    # labelled maps may be left out
    assert system_from_json({"dim": 1, "step": [["2"]]}) == \
        make_system(1, Matrix.from_rows([[2]]))


def test_laurent_roundtrip():
    p = LaurentPoly.from_dict({7: 1, -9: -1})
    assert laurent_from_json(laurent_to_json(p)) == p


def test_laurent_json_rejects_malformed_maps():
    for bad in ({"1": 1.5}, {"1": True}, {"x": 1}, {"1": "1/2"}, [1],
                {"1": 1, "01": 2}):
        with pytest.raises(ParseError):
            laurent_from_json(bad)


def test_tangle_roundtrip():
    # the closed braid s1 s1^-1, written slice by slice with named events
    doc = {"strands_in": 0,
           "slices": [["cup"], ["id", "cup", "id"], ["cross+", "id", "id"],
                      ["cross-", "id", "id"], ["id", "cap", "id"], ["cap"]]}
    t = closed_braid_tangle([1, -1], 2)
    assert tangle_from_json(doc) == t
    assert tangle_from_json(json.loads(json.dumps(doc))) == t


def test_tangle_json_positional_form():
    # named slices and positioned slices may be mixed
    doc = {"strands_in": 0,
           "slices": [["cup"], ["id", "cup", "id"], ["cross+", {"at": 0}],
                      ["cross-", "id", "id"], ["cap", {"at": 1}], ["cap"]]}
    assert tangle_from_json(doc) == closed_braid_tangle([1, -1], 2)
    doc = {"strands_in": 1,
           "slices": [["twist-", {"at": 0}], ["id", "cup"], ["cross+", "id"],
                      ["twist+", {"at": 2}], ["id", "cap"]]}
    assert tangle_from_json(doc) == tangle(1, [
        [twist(-1)], [ID, CUP], [cross(1), ID], [ID, ID, twist(1)],
        [ID, CAP]])


def test_tangle_json_bad_event():
    with pytest.raises(ParseError):
        tangle_from_json({"strands_in": 0, "slices": [["cupp"]]})


def test_bracket_misspelled_slice_option_exits_1(tmp_path):
    # with the crossing at 1 this is a 2-component link; at the default
    # position 0 it is another link, with another bracket
    doc = {"strands_in": 0,
           "slices": [["cup"], ["cup", {"at": 2}], ["cross+", {"at": 1}],
                      ["cap", {"at": 2}], ["cap"]]}
    path = tmp_path / "link.json"
    path.write_text(json.dumps(doc))
    assert run_cli("bracket", str(path)) == (0, ["A^5 + A"])
    for bad in ({"At": 1}, {"pos": 1}, {"at": 1, "pos": 1}):
        doc["slices"][2][1] = bad
        path.write_text(json.dumps(doc))
        assert run_cli("bracket", str(path)) == (1, [])
    doc["slices"] = [["cup"], ["cross+", {}], ["cap"]]
    path.write_text(json.dumps(doc))
    assert run_cli("bracket", str(path))[0] == 0


def test_braid_string():
    assert parse_braid_string("s1 s1 s1") == [1, 1, 1]
    assert parse_braid_string("s2^-1 s1") == [-2, 1]
    with pytest.raises(ParseError):
        parse_braid_string("t1")
    with pytest.raises(ParseError):
        parse_braid_string("s1^2")


# -- subcommands ---------------------------------------------------------------


def test_bracket_braid_trefoil():
    code, lines = run_cli("bracket", "--braid", "s1 s1 s1", "--strands", "2")
    assert code == 0
    assert lines == [TREFOIL]


def test_bracket_unknot_file(tmp_path):
    path = tmp_path / "unknot.json"
    path.write_text(json.dumps({"strands_in": 0, "slices": [["cup"], ["cap"]]}))
    code, lines = run_cli("bracket", str(path))
    assert code == 0
    assert lines == ["-A^2 - A^-2"]


def test_bracket_open_tangle_exits_2(tmp_path):
    path = tmp_path / "open.json"
    path.write_text(json.dumps({"strands_in": 1, "slices": [["id"]]}))
    code, _ = run_cli("bracket", str(path))
    assert code == 2


def test_bracket_unchained_slices_exit_2(tmp_path, capsys):
    path = tmp_path / "unchained.json"
    path.write_text(json.dumps({"strands_in": 0, "slices": [["cap"]]}))
    code, _ = run_cli("bracket", str(path))
    assert code == 2
    assert capsys.readouterr().err == \
        "error: slice 0 consumes 2 strands but 0 are available\n"


def test_bracket_parse_error_exits_1(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run_cli("bracket", str(path))[0] == 1
    assert run_cli("bracket", "--braid", "zz", "--strands", "2")[0] == 1
    # digits that int() refuses: past its digit limit, or not decimal
    for letter in ("s" + "1" * 5000, "s\u00b2"):
        assert run_cli("bracket", "--braid", "s1 " + letter, "--strands", "2")[0] == 1


DIRECTORY = object()

BIMODULE_WITH_MISSING_ALGEBRA = {
    "left": "missing.json", "right": "missing.json", "dim": 1,
    "left_action": [], "right_action": [], "point": ["1"]}


@pytest.mark.parametrize("argv,doc", [
    (["algebra", "tensor", "{0}", "{0}"], BIMODULE_WITH_MISSING_ALGEBRA),
    (["algebra", "validate", "{0}"], {"dim": 1, "mult": [1], "unit": ["1"]}),
    (["bracket", "{0}"], [1]),
    (["tqft1d", "{0}", "w[0]"], {"dim": 1, "step": [["1"]], "states": [1]}),
    # inputs json.dumps cannot produce: raw bytes, or the directory itself
    (["bracket", "{0}"], DIRECTORY),
    (["bracket", "{0}"], b'{"slices": "\xff"}'),
    (["bracket", "{0}"], b"1" * 5000),
    (["bracket", "{0}"], b"[" * 100000),
], ids=["missing-algebra-file", "flat-mult", "tangle-list", "states-list",
        "directory", "not-utf8", "int-past-digit-limit", "deep-nesting"])
def test_malformed_json_exits_1_without_traceback(tmp_path, argv, doc):
    path = tmp_path / "input.json"
    if doc is DIRECTORY:
        path = tmp_path
    elif isinstance(doc, bytes):
        path.write_bytes(doc)
    else:
        path.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "skeinalg"] + [a.format(path) for a in argv],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


FIELD_JSON = {"dim": 1, "mult": [[["1"]]], "unit": ["1"]}


@pytest.mark.parametrize("argv,doc", [
    (["algebra", "validate", "{0}"], dict(FIELD_JSON, dim=2)),
    (["algebra", "tensor", "{0}", "{0}"],
     {"left": FIELD_JSON, "right": FIELD_JSON, "dim": 2,
      "left_action": [[["1"]]], "right_action": [[["1"]]], "point": ["1"]}),
    (["tqft1d", "{0}", "u(1)"], {"dim": 2, "step": [["1"]]}),
], ids=["algebra", "bimodule", "system"])
def test_declared_dim_that_disagrees_with_the_file_exits_3(tmp_path, argv, doc):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    code, lines = run_cli(*[a.format(path) for a in argv])
    assert (code, lines) == (3, [])


def test_bracket_normalize_writhe():
    code, lines = run_cli("bracket", "--braid", "s1 s1 s1", "--strands", "2",
                          "--normalize-writhe")
    assert code == 0
    # (-A^3)^-3 times the raw bracket
    want = (LaurentPoly.from_dict({3: -1}) ** -3) * \
        LaurentPoly.from_dict({7: 1, 3: 1, -1: 1, -9: -1})
    assert lines == [str(want)]


def test_bracket_variable_rename():
    """--variable renames A in printed text only; JSON carries no name."""
    for argv in (["bracket", "--braid", "s1", "--strands", "2"],
                 ["bracket", "--braid", "s1 s2^-1 s1", "--strands", "3"],
                 ["tl", "closure", "--braid", "s1 s1 s1", "--strands", "2"],
                 ["tl", "annulus", "--braid", "s1", "--strands", "2"],
                 ["tl", "annulus", "--braid", "s1 s2^-1", "--strands", "3"]):
        code, plain = run_cli(*argv)
        assert code == 0 and "A" in plain[0]
        assert run_cli(*argv, "--variable", "q") == \
            (0, [re.sub(r"\bA\b", "q", line) for line in plain])
        emitted = run_cli(*argv, "--emit-json")
        assert emitted[0] == 0
        assert run_cli(*argv, "--emit-json", "--variable", "q") == emitted


def test_bracket_emit_json_roundtrip():
    code, lines = run_cli("bracket", "--braid", "s1 s1 s1", "--strands", "2",
                          "--emit-json")
    assert code == 0
    assert laurent_from_json(json.loads(lines[0])) == \
        LaurentPoly.from_dict({7: 1, 3: 1, -1: 1, -9: -1})


def test_tl_basis_command():
    code, lines = run_cli("tl", "basis", "3", "3")
    assert code == 0
    assert "5 diagrams" in lines[0]
    code, lines = run_cli("tl", "basis", "2", "2", "--emit-json")
    assert json.loads(lines[0])["count"] == 2


def test_tl_basis_too_large_exits_3_promptly():
    start = time.perf_counter()
    assert run_cli("tl", "basis", "30", "30") == (3, [])
    assert time.perf_counter() - start < 5
    assert run_cli("tl", "basis", "-1", "3") == (3, [])


def test_tl_closure_command():
    code, lines = run_cli("tl", "closure", "--braid", "s1 s1 s1",
                          "--strands", "2")
    assert code == 0
    assert lines == [TREFOIL]


def test_tl_annulus_command():
    code, lines = run_cli("tl", "annulus", "--braid", "s1", "--strands", "2",
                          "--emit-json")
    assert code == 0
    got = json.loads(lines[0])
    assert laurent_from_json(got["2"]) == LaurentPoly.from_dict({1: 1})


def test_algebra_validate(tmp_path):
    path = tmp_path / "m2.json"
    path.write_text(json.dumps(algebra_to_json(matrix_algebra(2))))
    code, lines = run_cli("algebra", "validate", str(path))
    assert code == 0
    assert lines == ["OK, dim 4"]


def test_algebra_validate_bad_exits_3(tmp_path):
    bad = algebra_to_json(matrix_algebra(2))
    bad["unit"] = ["2", "0", "0", "2"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, _ = run_cli("algebra", "validate", str(path))
    assert code == 3


def test_algebra_validate_past_the_cap_exits_3(tmp_path):
    n = ALGEBRA_MAX_DIM + 1
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"dim": n, "mult": [[[0] * n] * n] * n,
                                "unit": [0] * n}))
    assert run_cli("algebra", "validate", str(path)) == (3, [])


def test_algebra_file_past_the_cap_is_refused_before_parsing(monkeypatch):
    calls = []
    parse = jsonio.parse_rational

    def counted(x):
        calls.append(x)
        return parse(x)

    monkeypatch.setattr(jsonio, "parse_rational", counted)
    n = ALGEBRA_MAX_DIM + 1
    with pytest.raises(ContractViolation, match="ALGEBRA_MAX_DIM"):
        jsonio.algebra_from_json({"dim": n, "mult": [[[0] * n] * n] * n,
                                  "unit": [0] * n})
    assert calls == []
    # the counter sees the entries of a file that passes the cap
    jsonio.algebra_from_json(jsonio.algebra_to_json(matrix_algebra(2)))
    assert len(calls) >= 4 ** 3


def test_algebra_modulate_and_tensor(tmp_path):
    u = Matrix.from_rows([[1, 1], [0, 1]])
    hom_path = tmp_path / "conj.json"
    hom_path.write_text(json.dumps(hom_to_json(conjugation_hom(2, u))))
    code, lines = run_cli("algebra", "modulate", str(hom_path), "--emit-json")
    assert code == 0
    bimod = json.loads(lines[0])
    assert bimodule_from_json(bimod) == modulate(conjugation_hom(2, u))

    bpath = tmp_path / "reg.json"
    bpath.write_text(json.dumps(bimodule_to_json(
        regular_bimodule(matrix_algebra(2)))))
    code, lines = run_cli("algebra", "tensor", str(bpath), str(bpath))
    assert code == 0
    assert lines == ["tensor bimodule of dim 4"]


def test_algebra_tensor_past_dim_16_needs_no_flag(tmp_path):
    path = tmp_path / "reg5.json"
    path.write_text(json.dumps(bimodule_to_json(
        regular_bimodule(matrix_algebra(5)))))
    code, lines = run_cli("algebra", "tensor", str(path), str(path))
    assert code == 0
    assert lines == ["tensor bimodule of dim 25"]
    assert run_cli("algebra", "tensor", str(path), str(path),
                   "--max-dim", "25") == (1, [])


def test_algebra_trials_flag_is_gone(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(bimodule_to_json(
        modulate(identity_hom(matrix_algebra(2))))))
    assert run_cli("algebra", "iso", str(path), str(path),
                   "--trials", "32") == (1, [])


def test_algebra_iso_non_witness_exits_5(tmp_path, monkeypatch):
    # an invertible matrix that intertwines no action of M_2 on itself
    swap = Matrix.from_rows([[0, 1, 0, 0], [1, 0, 0, 0],
                             [0, 0, 1, 0], [0, 0, 0, 1]])
    monkeypatch.setattr(bimodule_mod, "find_invertible_in_affine_family",
                        lambda *args, **kwargs: swap)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(bimodule_to_json(
        modulate(identity_hom(matrix_algebra(2))))))
    for action in ("iso", "iso-unpointed"):
        code, lines = run_cli("algebra", action, str(path), str(path))
        assert (code, lines) == (5, [])


def test_algebra_iso_unpointed_swap_absent(tmp_path):
    qq = product_field_algebra(2)
    swap = make_hom(qq, qq, Matrix.from_rows([[0, 1], [1, 0]]))
    p1 = tmp_path / "id.json"
    p2 = tmp_path / "swap.json"
    p1.write_text(json.dumps(bimodule_to_json(modulate(identity_hom(qq)))))
    p2.write_text(json.dumps(bimodule_to_json(modulate(swap))))
    code, lines = run_cli("algebra", "iso-unpointed", str(p1), str(p2))
    assert code == 0
    assert lines == ["absent"]
    code, lines = run_cli("algebra", "iso", str(p1), str(p1))
    assert code == 0
    assert lines[0] == "present"


def test_bimodule_with_a_3000_digit_pointing(tmp_path):
    # the pointing of the tensor square has about 6000 digits, past both
    # MATRIX_POWER_MAX_ENTRY_BITS and Python's str() limit; the iso check
    # compares the pointings as integer images and reads neither out
    path = tmp_path / "b.json"
    path.write_text(json.dumps(dict(
        bimodule_to_json(regular_bimodule(matrix_algebra(1))),
        point=["7" * 3000])))
    env = dict(os.environ, PYTHONPATH=SRC)
    for extra in (["--emit-json"], []):
        proc = subprocess.run(
            [sys.executable, "-m", "skeinalg", "algebra", "tensor", str(path),
             str(path)] + extra, capture_output=True, text=True, env=env,
            timeout=60)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr.startswith("error:")
        assert "MATRIX_POWER_MAX_ENTRY_BITS" in proc.stderr
        assert "Traceback" not in proc.stderr
    assert run_cli("algebra", "iso", str(path), str(path)) == \
        (0, ["present", '[["1"]]'])


def _unipotent_system(states, costates, **labelled):
    """A system file on the step [[1, 1], [0, 1]], as a JSON string."""
    return json.dumps({"dim": 2, "step": [["1", "1"], ["0", "1"]],
                       "states": states, "costates": costates, **labelled})


def test_tqft1d_both_agree(tmp_path):
    path = tmp_path / "sys.json"
    path.write_text(_unipotent_system({"0": ["0", "1"]}, {"0": ["0", "1"]}))
    code, lines = run_cli("tqft1d", str(path), "w[0] . u(1) . v[0]")
    assert code == 0
    assert lines[-1].endswith("AGREE")
    assert "1 vs 1" in lines[-1]


def test_tqft1d_both_evaluates_each_picture_once(tmp_path, monkeypatch):
    # both pictures share one table, so each distinct u(t) is powered once
    calls = []

    def counted(m, t):
        calls.append(t)
        return matrix_power(m, t)

    monkeypatch.setattr(tqft1d_mod, "matrix_power", counted)
    path = tmp_path / "sys.json"
    path.write_text(_unipotent_system(
        {"0": ["0", "1"]}, {"0": ["1", "0"]},
        observables={"b": [["2", "0"], ["1", "1"]]}))
    code, lines = run_cli("tqft1d", str(path),
                          "w[0] . u(3) . a[b] . u(3) . a[b] . u(5) . v[0]")
    assert (code, lines[-1]) == (0, "scalars: 158 vs 158: AGREE")
    assert sorted(calls) == [3, 5]


def test_tqft1d_huge_duration_agrees(tmp_path):
    path = tmp_path / "sys.json"
    path.write_text(_unipotent_system({"x": ["0", "1"]}, {"y": ["1", "0"]}))
    code, lines = run_cli("tqft1d", str(path), "w[y] . u(2000000) . v[x]",
                          "--picture", "both")
    assert code == 0
    assert lines[-1] == "scalars: 2000000 vs 2000000: AGREE"


@pytest.mark.parametrize("picture", ["schrodinger", "heisenberg"])
def test_tqft1d_product_past_the_entry_bits_exits_3(tmp_path, picture):
    # each u(5800) of the Fibonacci step stays under
    # MATRIX_POWER_MAX_ENTRY_BITS, but their product does not
    path = tmp_path / "fib.json"
    path.write_text(json.dumps({"dim": 2, "step": [["2", "1"], ["1", "1"]],
                                "states": {"0": ["1", "0"]},
                                "costates": {"0": ["1", "0"]}}))
    code, lines = run_cli("tqft1d", str(path),
                          "w[0] . u(5800) . u(5800) . v[0]",
                          "--picture", picture)
    assert code == 3
    assert lines == []


def _identity_step_system(tmp_path, n):
    e0 = ["1"] + ["0"] * (n - 1)
    path = tmp_path / f"sys{n}.json"
    path.write_text(json.dumps({
        "dim": n, "step": [[str(int(i == j)) for j in range(n)]
                           for i in range(n)],
        "states": {"0": e0}, "costates": {"0": e0}}))
    return str(path)


def test_tqft1d_heisenberg_past_the_algebra_cap_exits_3_promptly(tmp_path):
    # End V for dim V = 12 is past ALGEBRA_MAX_DIM, and the Heisenberg
    # picture needs it for the costate's bimodule
    path = _identity_step_system(tmp_path, 12)
    start = time.perf_counter()
    assert run_cli("tqft1d", path, "w[0] . v[0]") == (3, [])
    assert time.perf_counter() - start < 1
    assert run_cli("tqft1d", path, "w[0] . v[0]", "--picture",
                   "schrodinger") == (0, ['schrodinger: [["1"]]'])
    code, lines = run_cli("tqft1d", _identity_step_system(tmp_path, 8),
                          "w[0] . v[0]")
    assert (code, lines[-1]) == (0, "scalars: 1 vs 1: AGREE")


def test_tqft1d_group_law_identical_output(tmp_path):
    path = tmp_path / "sys.json"
    path.write_text(_unipotent_system({"0": ["0", "1"]}, {"0": ["0", "1"]}))
    a = run_cli("tqft1d", str(path), "u(1) . u(2)", "--picture", "schrodinger")
    b = run_cli("tqft1d", str(path), "u(3)", "--picture", "schrodinger")
    assert a == b


def test_tqft1d_bad_label_exits_4(tmp_path):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({"dim": 1, "step": [["1"]],
                                "states": {"0": ["1"]},
                                "costates": {"0": ["1"]}}))
    code, _ = run_cli("tqft1d", str(path), "w[0] . v[7]")
    assert code == 4


def test_selftest_quick_exit_zero():
    code, lines = run_cli("selftest", "--level", "quick")
    assert code == 0
    assert lines[-1].startswith("all ")


def test_cli_deterministic(tmp_path):
    p1 = tmp_path / "reg.json"
    p1.write_text(json.dumps(bimodule_to_json(
        regular_bimodule(matrix_algebra(2)))))
    runs = [run_cli("algebra", "iso", str(p1), str(p1), "--seed", "9")
            for _ in range(2)]
    assert runs[0] == runs[1]


def test_selftest_catches_corrupted_loop_value(monkeypatch):
    """Mutation check: corrupting the loop constant must fail the suite.

    Composition picks the loop value up from its defining module at call
    time, while the relation checks compare against the true constant, so
    Reidemeister II and the TL relations break loudly.
    """
    import skeinalg.tl as tl_mod
    from skeinalg.selftest import run_selftest

    monkeypatch.setattr(tl_mod, "delta",
                        lambda: LaurentPoly.from_dict({2: -1}))
    lines = []
    code = run_selftest("quick", 0, lines.append)
    assert code == 5
    fails = [line for line in lines if line.startswith("FAIL ")]
    assert any(line.startswith("FAIL skein.") for line in fails)
    # the wrong loop value must be computed with, not fail to be called
    assert not any("positional argument" in line or "keyword argument" in line
                   for line in fails), fails


# -- the command-line contract, one row per pinned behaviour ------------------
#
# A new contract is a new row here.  Each row runs main in a fresh tmp_path
# that holds its input documents, written as JSON under their names.

M2_JSON = algebra_to_json(matrix_algebra(2))
# conjugation by [[1, 1], [0, 1]] on M_2
CONJUGATION_HOM = {"source": M2_JSON, "target": M2_JSON,
                   "matrix": [["1", "0", "-1", "0"], ["1", "1", "-1", "-1"],
                              ["0", "0", "1", "0"], ["0", "0", "1", "1"]]}
# f(E00) = E00 + E01 and f(E11) = E11 - E01: unital, not multiplicative
NON_MULTIPLICATIVE_HOM = {
    "source": M2_JSON, "target": M2_JSON,
    "matrix": [["1", "0", "0", "0"], ["1", "1", "0", "-1"],
               ["0", "0", "1", "0"], ["0", "0", "0", "1"]]}
# the regular bimodule of M_2 in a basis with fractional structure constants
FRACTIONAL_BIMODULE = bimodule_to_json(regular_bimodule(transport_algebra(
    matrix_algebra(2), Matrix.from_rows(
        [[1, Fraction(1, 3), 0, 0], [0, 1, Fraction(2, 5), 0],
         [0, 0, 1, Fraction(-1, 2)], [Fraction(3, 11), 0, 0, 1]]))))
MOVED_BY_A_SEVENTH = json.loads(json.dumps(FRACTIONAL_BIMODULE))
MOVED_BY_A_SEVENTH["left_action"][1][0][1] = str(
    Fraction(FRACTIONAL_BIMODULE["left_action"][1][0][1]) + Fraction(1, 7))
# a 2-component link (crossing at 1) with a positive twist on strand 3
TWISTED_LINK = {"strands_in": 0,
                "slices": [["cup"], ["cup", {"at": 2}], ["cross+", {"at": 1}],
                           ["twist+", {"at": 3}], ["cap", {"at": 2}], ["cap"]]}
# 19 crossings, past STATE_SUM_VERIFY_MAX_CROSSINGS
BRAID_19 = ("s1 s4^-1 s1 s2 s1 s3^-1 s2 s3^-1 s4^-1 s1^-1 s1^-1 s3^-1 s2 s3 "
            "s2 s2^-1 s4^-1 s1 s2")

# (argv, input documents, the exact stdout of exit 0)
GOLDEN_OUTPUTS = [
    # the README examples
    (["bracket", "--braid", "s1 s1 s1", "--strands", "2"], {},
     "A^7 + A^3 + A^-1 - A^-9\n"),
    (["bracket", "--braid", "s1 s1 s1", "--strands", "2",
      "--normalize-writhe"], {},
     "-A^-2 - A^-6 - A^-10 + A^-18\n"),
    (["tl", "basis", "3", "3"], {},
     "hom(3, 3) has 5 diagrams\n"
     "  bottom0-bottom1 bottom2-top2 top1-top0\n"
     "  bottom0-bottom1 bottom2-top0 top2-top1\n"
     "  bottom0-top2 bottom1-bottom2 top1-top0\n"
     "  bottom0-top0 bottom1-bottom2 top2-top1\n"
     "  bottom0-top0 bottom1-top1 bottom2-top2\n"),
    (["tl", "closure", "--braid", "s1", "--strands", "2"], {}, "A^5 + A\n"),
    (["tl", "annulus", "--braid", "s1 s2^-1", "--strands", "3", "--emit-json"],
     {}, '{"3": {"0": 1}, "1": {"-4": -1, "0": -1, "4": -1}}\n'),
    # the plane and annular closures
    (["tl", "closure", "--braid", "s1 s2^-1 s1", "--strands", "3"], {},
     "-A^3 - A^-1 - A^-5 - A^-9\n"),
    (["tl", "annulus", "--braid", "s1 s2^-1 s1", "--strands", "3",
      "--emit-json"], {},
     '{"3": {"1": 1}, "1": {"-7": 1, "-3": -1, "1": -1, "5": -1}}\n'),
    (["tl", "annulus", "--braid", "s1 s2^-1 s3", "--strands", "4",
      "--emit-json"], {},
     '{"4": {"1": 1}, "2": {"-3": -2, "1": -1, "5": -1}, '
     '"0": {"-7": 1, "-3": 1}}\n'),
    (["tl", "annulus", "--braid", "s1 s1", "--strands", "2"], {},
     "AnnularClass((-A^2 + A^-6)*z^0 + (A^2)*z^2)\n"),
    # a tangle file with positioned slices and a twist
    (["bracket", "t.json"], {"t.json": TWISTED_LINK}, "-A^8 - A^4\n"),
    (["bracket", "t.json", "--emit-json"], {"t.json": TWISTED_LINK},
     '{"4": -1, "8": -1}\n'),
    # a bracket the built-in state-sum check does not cover
    (["bracket", "--braid", BRAID_19, "--strands", "5"], {},
     "A^23 - A^19 - A^11 - 2*A^7 - 2*A^3 - 4*A^-1 - 2*A^-5 - 3*A^-9 "
     "- A^-13 - A^-21\n"),
    (["bracket", "--braid", BRAID_19, "--strands", "5", "--emit-json"], {},
     '{"-21": -1, "-13": -1, "-9": -3, "-5": -2, "-1": -4, "3": -2, "7": -2, '
     '"11": -1, "19": -1, "23": 1}\n'),
    # the algebra layer
    (["algebra", "modulate", "hom.json"], {"hom.json": CONJUGATION_HOM},
     "modulation of a hom 4 -> 4: bimodule of dim 4\n"),
    (["algebra", "iso", "b.json", "b.json"], {"b.json": FRACTIONAL_BIMODULE},
     'present\n[["1", "0", "0", "0"], ["0", "1", "0", "0"], '
     '["0", "0", "1", "0"], ["0", "0", "0", "1"]]\n'),
]

# (argv, input documents, the exit code)
ERROR_CONTRACT = [
    # a width, strand count or braid letter out of range
    (["tl", "basis", "--", "-1", "0"], {}, 3),
    (["bracket", "--braid", "s1", "--strands", "0"], {}, 3),
    (["bracket", "--braid", "s1", "--strands", "65"], {}, 3),
    (["tl", "closure", "--braid", "s1", "--strands", "65"], {}, 3),
    (["tl", "closure", "--braid", "s3", "--strands", "2"], {}, 3),
    # algebra files that parse but break an invariant
    (["algebra", "modulate", "hom.json"], {"hom.json": NON_MULTIPLICATIVE_HOM},
     3),
    (["algebra", "tensor", "bad.json", "good.json"],
     {"bad.json": MOVED_BY_A_SEVENTH, "good.json": FRACTIONAL_BIMODULE}, 3),
    # command lines that do not parse
    (["bracket", "--braid", "s1", "--strands", "x"], {}, 1),
    (["bracket", "--braid", "s1", "--strands", "2", "--bogus"], {}, 1),
    (["algebra", "validate", "k.json", "missing.json"], {"k.json": FIELD_JSON},
     1),
    (["algebra", "modulate", "hom.json", "hom.json"],
     {"hom.json": CONJUGATION_HOM}, 1),
]


def _write_inputs(docs, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc))


@pytest.mark.parametrize("argv,docs,stdout", GOLDEN_OUTPUTS,
                         ids=[" ".join(a) for a, _, _ in GOLDEN_OUTPUTS])
def test_cli_prints_its_golden_output(argv, docs, stdout, tmp_path,
                                      monkeypatch, capsys):
    _write_inputs(docs, tmp_path, monkeypatch)
    assert main(argv) == 0
    assert capsys.readouterr() == (stdout, "")


@pytest.mark.parametrize("argv,docs,code", ERROR_CONTRACT,
                         ids=[" ".join(a) for a, _, _ in ERROR_CONTRACT])
def test_cli_error_exits_with_its_code_and_one_error_line(
        argv, docs, code, tmp_path, monkeypatch, capsys):
    _write_inputs(docs, tmp_path, monkeypatch)
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "Traceback" not in err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bracket", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: skeinalg bracket")
