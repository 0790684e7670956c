"""Command-line interface: exit codes, output shapes, expression parsing."""

import json
import os
import subprocess
import sys
from unittest import mock

import pytest
from _oracles import algebra_payload_v1, payload_checksum

import lefalg
from lefalg import cli
from lefalg.catalog import get, names
from lefalg.cli import CliError, load_algebra, parse_element_expr, run


def test_catalog_lists_every_name(capsys):
    assert run(["catalog"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == names()


def test_dims(capsys):
    assert run(["dims", "example2"]) == 0
    assert capsys.readouterr().out.strip() == "1 3 7 10 7 3 1"


def test_lef_dims_example3(capsys):
    assert run(["lef-dims", "example3"]) == 0
    assert capsys.readouterr().out.strip() == "1 2 3 4 5 5 4 2 1"


def test_check_sym_fails_on_example1(capsys):
    assert run(["check", "example1", "--sym"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "k=2: 3 vs 4" in out


def test_check_hl_passes_on_gr25(capsys):
    assert run(["check", "Gr-2-5", "--hl", "--omega", "s[1]"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_check_uses_catalog_omega_by_default(capsys):
    assert run(["check", "example3", "--hl"]) == 1
    assert "k=0: rank 0 of 1" in capsys.readouterr().out


def test_check_pd(capsys):
    assert run(["check", "P3xP3", "--pd"]) == 0
    assert run(["check", "example2", "--pd"]) == 1


def test_check_rejects_bad_omega(capsys):
    assert run(["check", "Gr-2-5", "--hl", "--omega", "nonsense"]) == 2
    assert "error" in capsys.readouterr().err


def test_check_requires_exactly_one_predicate(capsys):
    assert run(["check", "example1"]) == 2
    capsys.readouterr()
    assert run(["check", "example1", "--sym", "--pd"]) == 2


def test_mul(capsys):
    assert run(["mul", "example1", "10c - e^1*1", "e^1*1"]) == 0
    assert capsys.readouterr().out.strip() == \
        "10*e^1*a + 30*e^1*b - e^2*1"


def test_mul_schubert(capsys):
    assert run(["mul", "Gr-2-5", "s[1]", "s[3,2]"]) == 0
    assert capsys.readouterr().out.strip() == "s[3,3]"


def test_mul_rejects_mixed_degrees(capsys):
    assert run(["mul", "example1", "c + e^2*1", "c"]) == 2
    assert "degree" in capsys.readouterr().err


def test_verify(capsys):
    assert run(["verify", "Gr-2-4"]) == 0
    assert "ok" in capsys.readouterr().out


def test_unknown_algebra_is_usage_error(capsys):
    assert run(["dims", "no-such-thing"]) == 2
    assert "unknown catalog name" in capsys.readouterr().err


def test_no_arguments_is_usage_error(capsys):
    assert run([]) == 2


def test_report_json_deterministic(capsys):
    assert run(["report", "example1", "--json"]) == 0
    first = capsys.readouterr().out
    assert run(["report", "example1", "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["name"] == "example1"
    assert doc["dims"] == [1, 2, 4, 4, 2, 1]
    assert doc["lefschetz_dims"] == [1, 2, 3, 4, 2, 1]
    assert doc["omega"] == "10*c - e^1*1"
    assert doc["predicates"]["symmetry"]["passed"] is False
    assert doc["predicates"]["symmetry"]["witness"] == "k=2: 3 vs 4"
    assert doc["primitive"]["valid"] is False


def test_report_json_of_a_product_from_its_factors_is_pinned(capsys):
    # example1xexample3 is analysed from its factors; tests/data holds the
    # bytes its elimination prints, four fallbacks to rref included
    path = os.path.join(os.path.dirname(__file__), "data", "example1xexample3.report.json")
    with open(path, encoding="utf-8") as fh:
        expected = fh.read()
    assert run(["report", "--json", "example1xexample3"]) == 0
    assert capsys.readouterr().out == expected


def test_report_plain_text(capsys):
    assert run(["report", "Gr-2-5"]) == 0
    out = capsys.readouterr().out
    assert "hard_lefschetz: PASS" in out
    assert "primitive dims: 1 0 0 0" in out


def test_plain_report_ranks_no_primitive_dims_when_hard_lefschetz_fails(capsys):
    with mock.patch.object(cli, "primitive_dims", side_effect=AssertionError):
        assert run(["report", "example1"]) == 0
    assert capsys.readouterr().out == "\n".join([
        "name: example1", "top degree: 5", "dims: 1 2 4 4 2 1",
        "lefschetz dims: 1 2 3 4 2 1", "omega: 10*c - e^1*1",
        "symmetry: FAIL k=2: 3 vs 4", "poincare_duality: FAIL k=2: 3 vs 4",
        "hard_lefschetz: FAIL k=2: 3 vs 4",
        "primitive dims: not defined (hard Lefschetz fails)", ""])


def test_build_and_reload(tmp_path, capsys):
    src = tmp_path / "x.build.json"
    out = tmp_path / "x.alg.json"
    src.write_text('{"product": [{"P": 1}, {"P": 2}]}')
    assert run(["build", str(src), "-o", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "dims 1 2 2 1" in stdout
    assert f"wrote {out}" in stdout
    # the written file is loadable by every other command
    assert run(["dims", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "1 2 2 1"


def test_build_syntax_error_exit_2(tmp_path, capsys):
    src = tmp_path / "bad.build.json"
    src.write_text('{"P": ')
    assert run(["build", str(src)]) == 2
    assert "syntax error" in capsys.readouterr().err


def test_build_type_error_exit_2(tmp_path, capsys):
    src = tmp_path / "bad.build.json"
    src.write_text('{"P": -1}')
    assert run(["build", str(src)]) == 2
    assert "type error" in capsys.readouterr().err


def test_build_missing_file_exit_2(tmp_path, capsys):
    assert run(["build", str(tmp_path / "absent.json")]) == 2
    assert capsys.readouterr().err


def test_expression_parser_forms():
    a = get("example1").algebra
    assert parse_element_expr(a, "c").coords == \
        a.by_label("c").coords
    assert parse_element_expr(a, "10c") == 10 * a.by_label("c")
    assert parse_element_expr(a, "10*c") == 10 * a.by_label("c")
    from fractions import Fraction
    assert parse_element_expr(a, "-2/3*c") == \
        a.by_label("c") * Fraction(-2, 3)
    assert parse_element_expr(a, "10c - e^1*1") == \
        10 * a.by_label("c") - a.by_label("e^1*1")
    assert parse_element_expr(a, "3").degree == 0
    g = get("Gr-2-5").algebra
    assert parse_element_expr(g, "s[2,1] + 2*s[3]") == \
        g.by_label("s[2,1]") + 2 * g.by_label("s[3]")


def test_expression_parser_errors():
    a = get("example1").algebra
    for bad in ("", "c + q", "1.5*c", "c + c^2", "* c"):
        with pytest.raises((CliError, ValueError)):
            parse_element_expr(a, bad)


def test_load_algebra_from_file(tmp_path):
    from lefalg.serialize import write_algebra
    path = tmp_path / "g.alg.json"
    write_algebra(get("Gr-2-4").algebra, str(path))
    assert load_algebra(str(path)) == get("Gr-2-4").algebra
    with pytest.raises(CliError):
        load_algebra("definitely-not-a-name")


def _directory_args(tmp_path):
    return ["dims", str(tmp_path)]


def _deeply_nested_build_args(tmp_path):
    path = tmp_path / "deep.build.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    return ["build", str(path)]


@pytest.mark.parametrize("make_args", [_directory_args,
                                       _deeply_nested_build_args],
                         ids=["directory", "nested-json"])
def test_bad_input_exits_2_without_traceback(tmp_path, make_args):
    # a fresh interpreter, as the entry point runs, so that an escaping
    # exception would show as a traceback on stderr
    src = os.path.dirname(os.path.dirname(lefalg.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", "from lefalg.cli import main; main()",
         *make_args(tmp_path)],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_running_out_of_memory_exits_2_with_one_line(capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(lefalg.cli, "cmd_verify", exhausted)
    assert run(["verify", "Gr-2-4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory\n"
    assert "Traceback" not in captured.err


def test_import_loads_no_dataclasses_typing_or_hashlib():
    # every command pays for what `import lefalg.cli` loads; -S keeps the
    # site hooks of installed packages out of the count
    src = os.path.dirname(os.path.dirname(lefalg.__file__))
    unwanted = ("dataclasses", "typing", "inspect", "hashlib")
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, lefalg.cli; "
         f"print(' '.join(m for m in {unwanted!r} if m in sys.modules))"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def _loaded_modules(code: str) -> set[str]:
    """The lefalg modules a fresh ``python -S`` has loaded after ``code``."""
    src = os.path.dirname(os.path.dirname(lefalg.__file__))
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         code + "\nimport sys\nprint(*sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'lefalg'))"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_import_lefalg_loads_no_submodule():
    assert _loaded_modules("import lefalg") == {"lefalg"}


def test_every_public_name_resolves_to_its_module_object():
    import importlib
    for gone in ("relabeled", "pieri", "lr_coefficient"):
        assert gone not in lefalg.__all__
    for name in lefalg.__all__:
        value = getattr(lefalg, name)
        home = lefalg._HOME.get(name)
        if home is not None:
            assert value is getattr(importlib.import_module(f"lefalg.{home}"),
                                    name)
    assert lefalg.catalog is importlib.import_module("lefalg.catalog")
    with pytest.raises(AttributeError, match="no attribute 'relabeled'"):
        lefalg.relabeled


def test_the_cli_loads_every_layer_when_imported():
    # the command functions are bound at import, so a wrapper installed
    # after ``import lefalg.cli`` (perfbench's tracer) sees every layer
    assert _loaded_modules("import lefalg.cli") == {
        "lefalg", *(f"lefalg.{m}" for m in lefalg._SUBMODULES)}


@pytest.mark.parametrize("edit,error", [
    (lambda p: p.append(list(p[-1])), "duplicate product entry [1, 0, 1, 1]"),
    (lambda p: p.append([1, 1, 1, 0, [[0, "1"]]]),
     "product entry [1, 1, 1, 0] is a mirror entry"),
    (lambda p: p[-1].__setitem__(4, [[0, 1]]),
     "product entry [1, 0, 1, 1]: a term must be [int, \"p/q\"], got [0, 1]"),
], ids=["repeat", "mirror", "term"])
def test_a_bad_v2_file_exits_2(tmp_path, capsys, edit, error):
    from lefalg.serialize import algebra_payload
    payload = algebra_payload(get("P1xP1").algebra)
    edit(payload["products"])
    payload["checksum"] = payload_checksum(payload)
    path = tmp_path / "bad.alg.json"
    path.write_text(json.dumps(payload))
    assert run(["report", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {error}")


def test_build_refuses_to_write_a_noncommutative_table(tmp_path, capsys):
    payload = algebra_payload_v1(get("P1xP1").algebra)
    for entry in payload["products"]:
        if entry[:4] == [1, 0, 1, 1]:
            entry[4] = ["2"]
    src, out = tmp_path / "twisted.build.json", tmp_path / "twisted.alg.json"
    src.write_text(json.dumps({"algebra": payload}))
    assert run(["build", str(src), "-o", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: product table (1,1) cell (0,1) differs from its mirror, "
        "table (1,1) cell (1,0): a version 2 file holds commutative tables "
        "only\n")
    assert not out.exists()


@pytest.mark.parametrize("module", ["lefalg", "lefalg.cli"])
@pytest.mark.parametrize("argv,code", [(["report", "example3"], 0),
                                       (["check", "example1", "--sym"], 1),
                                       (["dims", "no-such-algebra"], 2)],
                         ids=["exit-0", "exit-1", "exit-2"])
def test_python_dash_m_runs_the_command_line(capsys, module, argv, code):
    assert run(argv) == code
    expected = capsys.readouterr()
    src = os.path.dirname(os.path.dirname(lefalg.__file__))
    proc = subprocess.run([sys.executable, "-m", module, *argv],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == code
    assert proc.stdout == expected.out
    assert proc.stderr == expected.err


def test_no_output_depends_on_a_cache_hit(capsys, monkeypatch):
    # the caches are for speed only: with nothing cached, each lookup builds
    # a fresh algebra, and every command must still print the same bytes
    commands = (["report", "example1"], ["report", "--json", "example2"],
                ["report", "example3"], ["check", "example1", "--hl"])

    def outputs():
        return [(run(argv), *capsys.readouterr()) for argv in commands]

    cached = outputs()
    uncached_gr = lefalg.schubert.grassmannian.__wrapped__
    monkeypatch.setattr(lefalg.catalog, "get", lefalg.catalog.get.__wrapped__)
    monkeypatch.setattr(lefalg.schubert, "grassmannian", uncached_gr)
    monkeypatch.setattr(lefalg.catalog, "grassmannian", uncached_gr)
    assert outputs() == cached
    assert lefalg.catalog.build_example3() == lefalg.catalog.get("example3").algebra


@pytest.mark.parametrize("command", [["check", "example1", "--hl"],
                                     ["report", "example1"]])
def test_empty_omega_is_an_error_not_the_default(capsys, command):
    # an empty --omega is given, so it is parsed, as --omega " " is
    assert run(command + ["--omega", ""]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: empty element expression\n"


@pytest.mark.parametrize("argv,expected", [
    (["lef-dims", "Gr-2-5", "--gens", "s[1]"], "1 1 1 1 1 1 1"),
    (["lef-dims", "P1xP2", "--gens", "h⊗1"], "1 1 0 0"),
])
def test_lef_dims_with_given_generators(capsys, argv, expected):
    assert run(argv) == 0
    assert capsys.readouterr().out == expected + "\n"


def test_check_with_given_generators(capsys):
    # s[1] comes from Gr(2,5): its powers vanish above degree 6, so L^8 = 0
    assert run(["check", "example3", "--pd", "--gens", "s[1]"]) == 1
    assert capsys.readouterr().out == \
        "poincare-duality example3: FAIL k=0: 1 vs 0\n"


def test_report_on_a_built_file_sums_degree_one(tmp_path, capsys):
    src, out = tmp_path / "blowup.build.json", tmp_path / "blowup.alg.json"
    src.write_text(json.dumps({"blowup": {
        "Y": {"P": 5}, "Z": {"catalog": "CxP1-even"},
        "pullback": [[[1]], [[1], [3]], [[6]]],
        "chern_N": [[4, 18], [54], []]}}))
    assert run(["build", str(src), "-o", str(out)]) == 0
    capsys.readouterr()
    assert run(["report", str(out)]) == 0
    assert "\nomega: h + e^1*1\n" in capsys.readouterr().out


# P1xP1 blown up at a point: L generated by h⊗1 and the exceptional class
# has dims 1 2 1, so symmetry holds and Poincare duality fails by rank
_BLOWUP_AT_A_POINT = {"blowup": {
    "Y": {"product": [{"P": 1}, {"P": 1}]}, "Z": {"P": 0},
    "pullback": [[["1"]]], "chern_N": [[], []]}}
_GENS = ["--gens", "h⊗1", "--gens", "e^1*1"]


@pytest.fixture
def blowup_at_a_point(tmp_path, capsys):
    src, out = tmp_path / "bl.build.json", tmp_path / "bl.alg.json"
    src.write_text(json.dumps(_BLOWUP_AT_A_POINT))
    assert run(["build", str(src), "-o", str(out)]) == 0
    capsys.readouterr()
    return str(out)


def test_poincare_duality_fails_by_rank(blowup_at_a_point, capsys):
    assert run(["check", blowup_at_a_point, "--pd", *_GENS]) == 1
    assert capsys.readouterr().out == \
        "poincare-duality Bl(P1xP1, P0): FAIL k=1: rank 1 of 2\n"


def test_report_pins_the_rank_failures(blowup_at_a_point, capsys):
    assert run(["report", blowup_at_a_point, "--omega", "h⊗1", *_GENS]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[3:] == ["lefschetz dims: 1 2 1",
                       "omega: h⊗1",
                       "symmetry: PASS",
                       "poincare_duality: FAIL k=1: rank 1 of 2",
                       "hard_lefschetz: FAIL k=0: rank 0 of 1",
                       "primitive dims: not defined (hard Lefschetz fails)"]


def test_verify_reports_a_noncommutative_file(tmp_path, capsys):
    # a version 1 file lists both orders of a product, so it can hold this
    payload = algebra_payload_v1(get("P1xP1").algebra)
    for entry in payload["products"]:
        if entry[:4] == [1, 0, 1, 1]:
            entry[4] = ["2"]
    payload["checksum"] = payload_checksum(payload)
    path = tmp_path / "twisted.alg.json"
    path.write_text(json.dumps(payload))
    assert run(["verify", str(path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["commutativity fails at degrees (1,1) indices (0,1)",
                       "commutativity fails at degrees (1,1) indices (1,0)"]


def test_report_on_a_point(capsys):
    # top degree 0: no degree-one class, so no omega
    assert run(["report", "P-0"]) == 0
    out = capsys.readouterr().out
    assert "\nomega: None\n" in out
    assert out.endswith("\nprimitive dims: 1\n")


def test_verify_reports_a_pairing_that_is_not_square(tmp_path, capsys):
    # degree 1 is empty, so the degree-0 pairing meets no classes
    src, out = tmp_path / "x.build.json", tmp_path / "x.alg.json"
    src.write_text(json.dumps({"algebra": {
        "format": "graded-algebra", "version": 1, "name": "x",
        "top_degree": 1, "basis": [["1"], []],
        "products": [[0, 0, 0, 0, ["1"]]], "integration": []}}))
    assert run(["build", str(src), "-o", str(out)]) == 0
    assert capsys.readouterr().out == f"x: dims 1 0\nwrote {out}\n"
    assert run(["verify", str(out)]) == 1
    assert capsys.readouterr().out == (
        "pairing at degree 0 is not square: 1x0\n"
        "pairing at degree 1 is not square: 0x1\n")


@pytest.mark.parametrize("expr,error", [
    ("h +", "empty term in element expression"),
    ("3/0 h", "bad coefficient in term '3/0 h': malformed rational: '3/0'"),
], ids=["empty-term", "zero-denominator"])
def test_mul_rejects_a_bad_term(capsys, expr, error):
    assert run(["mul", "P-2", expr, "h"]) == 2
    assert capsys.readouterr() == ("", f"error: {error}\n")
