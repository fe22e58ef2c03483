import json
import os
import re
import subprocess
import sys
import time

import pytest

from skeinalg.algebra import (conjugation_hom, matrix_algebra,
                              product_field_algebra, identity_hom, make_hom)
from skeinalg.bimodule import modulate, regular_bimodule
from skeinalg.cli import main
from skeinalg.errors import ParseError
from skeinalg.jsonio import (algebra_from_json, algebra_to_json,
                             bimodule_from_json, bimodule_to_json,
                             hom_from_json, hom_to_json, laurent_from_json,
                             laurent_to_json, parse_braid_string,
                             system_from_json, system_to_json,
                             tangle_from_json, tangle_to_json)
from skeinalg.laurent import LaurentPoly
from skeinalg.linalg import Matrix
from skeinalg.samples import random_system
from skeinalg.tangles import closed_braid_tangle
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


def test_system_roundtrip():
    import random
    s = random_system(random.Random(0))
    assert system_from_json(system_to_json(s)) == s


def test_tangle_roundtrip():
    t = closed_braid_tangle([1, -1], 2)
    assert tangle_from_json(tangle_to_json(t)) == t


def test_laurent_roundtrip():
    p = LaurentPoly.from_dict({7: 1, -9: -1})
    assert laurent_from_json(laurent_to_json(p)) == p


def test_laurent_json_rejects_malformed_maps():
    for bad in ({"1": 1.5}, {"1": True}, {"x": 1}, {"1": "1/2"}, [1],
                {"1": 1, "01": 2}):
        with pytest.raises(ParseError):
            laurent_from_json(bad)


def test_tangle_json_positional_form():
    obj = {"strands_in": 0,
           "slices": [["cup"], ["cross+", {"at": 0}], ["cap"]]}
    t = tangle_from_json(obj)
    assert t.crossing_count() == 1


def test_tangle_json_bad_event():
    with pytest.raises(ParseError):
        tangle_from_json({"strands_in": 0, "slices": [["cupp"]]})


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


BIMODULE_WITH_MISSING_ALGEBRA = {
    "left": "missing.json", "right": "missing.json", "dim": 1,
    "left_action": [], "right_action": [], "point": ["1"]}


@pytest.mark.parametrize("argv,doc", [
    (["algebra", "tensor", "{0}", "{0}"], BIMODULE_WITH_MISSING_ALGEBRA),
    (["algebra", "validate", "{0}"], {"dim": 1, "mult": [1], "unit": ["1"]}),
    (["bracket", "{0}"], [1]),
    (["tqft1d", "{0}", "w[0]"], {"dim": 1, "step": [["1"]], "states": [1]}),
], ids=["missing-algebra-file", "flat-mult", "tangle-list", "states-list"])
def test_malformed_json_exits_1_without_traceback(tmp_path, argv, doc):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "skeinalg"] + [a.format(path) for a in argv],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


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
    with pytest.raises(SystemExit) as exc:
        run_cli("algebra", "tensor", str(path), str(path), "--max-dim", "25")
    assert exc.value.code == 2


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_algebra_iso_without_trials_exits_3(tmp_path, trials):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(bimodule_to_json(
        modulate(identity_hom(matrix_algebra(2))))))
    for action in ("iso-unpointed", "iso"):
        code, lines = run_cli("algebra", action, str(path), str(path),
                              "--trials", trials)
        assert (code, lines) == (3, [])


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


def test_tqft1d_both_agree(tmp_path):
    sys = make_system(2, Matrix.from_rows([[1, 1], [0, 1]]),
                      states={"0": (0, 1)}, costates={"0": (0, 1)})
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(system_to_json(sys)))
    code, lines = run_cli("tqft1d", str(path), "w[0] . u(1) . v[0]")
    assert code == 0
    assert lines[-1].endswith("AGREE")
    assert "1 vs 1" in lines[-1]


def test_tqft1d_huge_duration_agrees(tmp_path):
    sys = make_system(2, Matrix.from_rows([[1, 1], [0, 1]]),
                      states={"x": (0, 1)}, costates={"y": (1, 0)})
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(system_to_json(sys)))
    code, lines = run_cli("tqft1d", str(path), "w[y] . u(2000000) . v[x]",
                          "--picture", "both")
    assert code == 0
    assert lines[-1] == "scalars: 2000000 vs 2000000: AGREE"


@pytest.mark.parametrize("picture", ["schrodinger", "heisenberg"])
def test_tqft1d_product_past_the_entry_bits_exits_3(tmp_path, picture):
    # each u(5800) of the Fibonacci step stays under
    # MATRIX_POWER_MAX_ENTRY_BITS, but their product does not
    sys = make_system(2, Matrix.from_rows([[2, 1], [1, 1]]),
                      states={"0": (1, 0)}, costates={"0": (1, 0)})
    path = tmp_path / "fib.json"
    path.write_text(json.dumps(system_to_json(sys)))
    code, lines = run_cli("tqft1d", str(path),
                          "w[0] . u(5800) . u(5800) . v[0]",
                          "--picture", picture)
    assert code == 3
    assert lines == []


def test_tqft1d_group_law_identical_output(tmp_path):
    sys = make_system(2, Matrix.from_rows([[1, 1], [0, 1]]),
                      states={"0": (0, 1)}, costates={"0": (0, 1)})
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(system_to_json(sys)))
    a = run_cli("tqft1d", str(path), "u(1) . u(2)", "--picture", "schrodinger")
    b = run_cli("tqft1d", str(path), "u(3)", "--picture", "schrodinger")
    assert a == b


def test_tqft1d_bad_label_exits_4(tmp_path):
    sys = make_system(1, Matrix.identity(1), states={"0": (1,)},
                      costates={"0": (1,)})
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(system_to_json(sys)))
    code, _ = run_cli("tqft1d", str(path), "w[0] . v[7]")
    assert code == 4


def test_selftest_quick_exit_zero():
    code, lines = run_cli("selftest", "--level", "quick")
    assert code == 0
    assert lines[-1].startswith("all ")


def test_seed_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("SKEINALG_SEED", "12345")
    code, _ = run_cli("selftest", "--level", "quick")
    assert code == 0
    monkeypatch.setenv("SKEINALG_SEED", "not-a-number")
    code, _ = run_cli("selftest", "--level", "quick")
    assert code == 1


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


# -- the README examples, byte for byte ---------------------------------------

README_EXAMPLES = [
    (["bracket", "--braid", "s1 s1 s1", "--strands", "2"],
     "A^7 + A^3 + A^-1 - A^-9\n"),
    (["bracket", "--braid", "s1 s1 s1", "--strands", "2",
      "--normalize-writhe"],
     "-A^-2 - A^-6 - A^-10 + A^-18\n"),
    (["tl", "basis", "3", "3"],
     "hom(3, 3) has 5 diagrams\n"
     "  bottom0-bottom1 bottom2-top2 top1-top0\n"
     "  bottom0-bottom1 bottom2-top0 top2-top1\n"
     "  bottom0-top2 bottom1-bottom2 top1-top0\n"
     "  bottom0-top0 bottom1-bottom2 top2-top1\n"
     "  bottom0-top0 bottom1-top1 bottom2-top2\n"),
    (["tl", "closure", "--braid", "s1", "--strands", "2"], "A^5 + A\n"),
    (["tl", "annulus", "--braid", "s1 s2^-1", "--strands", "3", "--emit-json"],
     '{"3": {"0": 1}, "1": {"-4": -1, "0": -1, "4": -1}}\n'),
]


@pytest.mark.parametrize("argv,stdout", README_EXAMPLES,
                         ids=[" ".join(a) for a, _ in README_EXAMPLES])
def test_readme_examples_print_their_golden_output(argv, stdout, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == stdout
