"""Build-file parsing and evaluation: schema, errors, composition."""

import json

import pytest

from _oracles import brute_force_lefschetz_dims
from lefalg.buildfile import (BlowupNode, BuildFileError, BuildSyntaxError,
                              BuildTypeError, CatalogNode, GrNode, PNode,
                              evaluate, parse_build_file)
from lefalg.catalog import get
from lefalg.cli import run
from lefalg.constructors import projective_bundle
from lefalg.lefschetz import lefschetz_subalgebra
from lefalg.ring import verify_algebra
from lefalg.serialize import algebra_payload


EXAMPLE1_BUILD = json.dumps({
    "blowup": {
        "Y": {"P": 5},
        "Z": {"catalog": "CxP1-even"},
        "pullback": [[["1"]], [["1"], ["3"]], [["6"]]],
        "chern_N": [["4", "18"], ["54"], []],
    }
})


def test_parse_simple_nodes():
    assert parse_build_file('{"P": 3}') == PNode("$", 3)
    assert parse_build_file('{"Gr": [2, 5]}') == GrNode("$", 2, 5)
    assert parse_build_file('{"catalog": "example1"}') == \
        CatalogNode("$", "example1")


def test_parse_example1_tree_shape():
    tree = parse_build_file(EXAMPLE1_BUILD)
    assert isinstance(tree, BlowupNode)
    assert tree.y == PNode("$.blowup.Y", 5)
    assert tree.z == CatalogNode("$.blowup.Z", "CxP1-even")
    assert len(tree.pullback) == 3
    assert len(tree.chern) == 3


def test_evaluate_example1_matches_catalog_structure():
    built = evaluate(parse_build_file(EXAMPLE1_BUILD))
    ref = get("example1").algebra
    assert built.dims == ref.dims
    # same structure constants and integration; labels differ only in the
    # ambient variable name (h vs c)
    assert built.products == ref.products
    assert built.integration == ref.integration


def test_evaluate_basic_constructors():
    assert evaluate(parse_build_file('{"P": 3}')).dims == (1, 1, 1, 1)
    assert evaluate(parse_build_file('{"Gr": [2, 4]}')).dims == \
        (1, 1, 2, 1, 1)
    assert evaluate(parse_build_file(
        '{"product": [{"P": 1}, {"P": 1}, {"P": 1}]}')).dims == (1, 3, 3, 1)
    assert evaluate(parse_build_file('{"catalog": "Gr-2-5"}')).name == \
        "Gr-2-5"


def test_proj_bundle_node():
    doc = json.dumps({
        "proj_bundle": {
            "Y": {"P": 1},
            "chern": [["1"], [], []],
        }
    })
    alg = evaluate(parse_build_file(doc))
    assert alg.dims == (1, 2, 1)


def test_a_bundle_over_a_bundle_names_its_class_z2():
    pytest.importorskip("sympy")
    # the base, P(O + O) over P1, already has the label z^1*1, so the outer
    # bundle's class is z2; the total space is P1 x P1 x P1
    doc = json.dumps({"proj_bundle": {
        "Y": {"proj_bundle": {"Y": {"P": 1}, "chern": [["1"], ["0"], []]}},
        "chern": [["1"], ["0", "0"], ["0"]]}})
    alg = evaluate(parse_build_file(doc))
    assert alg.dims == (1, 3, 3, 1)
    assert alg.basis[1] == ("h", "z^1*1", "z2^1*1")
    assert verify_algebra(alg).ok
    assert lefschetz_subalgebra(alg).dims == brute_force_lefschetz_dims(alg)
    third = projective_bundle(alg, [alg.unit(), alg.zero(1), alg.zero(2)])
    assert third.basis[1] == ("h", "z^1*1", "z2^1*1", "z3^1*1")


def test_inline_algebra_node():
    payload = algebra_payload(get("P-2").algebra)
    doc = json.dumps({"algebra": payload})
    assert evaluate(parse_build_file(doc)) == get("P-2").algebra


def test_syntax_error_reports_line_and_column():
    with pytest.raises(BuildSyntaxError, match=r"line 1 column"):
        parse_build_file('{"P": 5')
    with pytest.raises(BuildSyntaxError, match=r"line 2"):
        parse_build_file('{\n  "P": }')


def test_type_errors_report_json_paths():
    with pytest.raises(BuildTypeError, match=r"\$\.P"):
        parse_build_file('{"P": -1}')
    with pytest.raises(BuildTypeError, match=r"\$\.Gr"):
        parse_build_file('{"Gr": [5, 2]}')
    with pytest.raises(BuildTypeError, match=r"\$\.product\[1\]"):
        parse_build_file('{"product": [{"P": 1}, 7]}')
    with pytest.raises(BuildTypeError, match="exactly one"):
        parse_build_file('{"P": 1, "Gr": [2, 4]}')
    with pytest.raises(BuildTypeError, match="unknown constructor"):
        parse_build_file('{"frobnicate": 1}')


def test_float_literals_rejected():
    with pytest.raises(BuildTypeError, match="float"):
        parse_build_file('{"proj_bundle": {"Y": {"P": 2}, '
                         '"chern": [["1"], [0.5]]}}')


def test_rational_tokens_accept_ints_and_strings():
    doc = json.dumps({
        "proj_bundle": {"Y": {"P": 2}, "chern": [[1], ["2"]]}
    })
    alg = evaluate(parse_build_file(doc))
    assert alg.dims == (1, 1, 1)  # rank-1 bundle: same profile as the base
    bad = json.dumps({
        "proj_bundle": {"Y": {"P": 2}, "chern": [["1"], ["x"]]}
    })
    with pytest.raises(BuildTypeError, match="malformed rational"):
        parse_build_file(bad)


def test_wrong_coordinate_count_is_a_type_error():
    doc = json.dumps({
        "proj_bundle": {"Y": {"P": 2}, "chern": [["1"], ["1", "2"]]}
    })
    with pytest.raises(BuildTypeError, match="coordinates"):
        evaluate(parse_build_file(doc))


def test_blowup_node_shape_errors():
    bad_pull = json.dumps({
        "blowup": {
            "Y": {"P": 5},
            "Z": {"catalog": "CxP1-even"},
            "pullback": [[["1"]], [["1"], ["3"]]],
            "chern_N": [["4", "18"], ["54"], []],
        }
    })
    with pytest.raises(BuildTypeError, match="pullback"):
        evaluate(parse_build_file(bad_pull))
    bad_chern = json.dumps({
        "blowup": {
            "Y": {"P": 5},
            "Z": {"catalog": "CxP1-even"},
            "pullback": [[["1"]], [["1"], ["3"]], [["6"]]],
            "chern_N": [["4", "18"]],
        }
    })
    with pytest.raises(BuildTypeError, match="c_1"):
        evaluate(parse_build_file(bad_chern))


def _example1_with(**changes):
    doc = json.loads(EXAMPLE1_BUILD)
    doc["blowup"].update(changes)
    return json.dumps(doc)


@pytest.mark.parametrize("text,message", [
    (_example1_with(pullback=[[["1"]], [["1"], ["3"]]]),
     "$.blowup.pullback: need matrices for degrees 0..2, got 2"),
    (_example1_with(pullback=[[["1"]], [["1", "3"]], [["6"]]]),
     "$.blowup.pullback[1]: entry grid is not 2x1"),
    (_example1_with(pullback=[[["1"]], [["1"], ["3"]], [["6"]], [["1"]]]),
     "$.blowup.pullback[3]: entry grid is not 0x1"),
    (_example1_with(chern_N=[["4", "18"]]),
     "$.blowup: chern_n must list c_1..c_3, got 1 entries"),
    (_example1_with(pullback=[[["1"]], [["1"], ["3"]], [["7"]]]),
     "$.blowup: pullback fails to be a ring map: multiplicativity fails on "
     "degrees (1,1) indices (0,0): f(xy) = 7*ab but f(x)f(y) = 6*ab"),
    (json.dumps({"blowup": {"Y": {"P": 2}, "Z": {"P": 1},
                            "pullback": [[[1]], [[1]]], "chern_N": [[1]]}}),
     "$.blowup: codimension must be at least 2, got r = 1"),
    (json.dumps({"blowup": {"Y": {"P": 2}, "Z": {"P": 2},
                            "pullback": [[[1]], [[1]], [[1]]],
                            "chern_N": []}}),
     "$.blowup: codimension must be at least 2, got r = 0"),
], ids=["matrix-count", "matrix-shape", "extra-matrix", "chern-count",
        "not-a-ring-map", "divisor", "equal-dimension"])
def test_blowup_errors_name_their_json_path(text, message):
    with pytest.raises(BuildTypeError) as info:
        evaluate(parse_build_file(text))
    assert str(info.value) == "type error at " + message


def test_unknown_catalog_reference_is_a_type_error():
    with pytest.raises(BuildTypeError, match="unknown catalog name"):
        evaluate(parse_build_file('{"catalog": "mystery"}'))


def test_both_error_kinds_are_buildfileerrors():
    assert issubclass(BuildSyntaxError, BuildFileError)
    assert issubclass(BuildTypeError, BuildFileError)
    assert issubclass(BuildFileError, ValueError)


@pytest.mark.parametrize("tree", [
    {"product": [{"P": 0}, {"P": 1}]},
    {"product": [{"Gr": [2, 4]}, {"product": [{"P": 0}, {"Gr": [1, 3]}]}]},
    {"product": [{"Gr": [2, 4]}, {"Gr": [2, 4]}, {"P": 1}]},
], ids=["P0xP1", "nested-with-point", "Gr24xGr24xP1"])
def test_product_trees_are_poincare_with_oracle_lefschetz_dims(tree):
    pytest.importorskip("sympy")
    # point factors and nested products, which no catalog name spells
    a = evaluate(parse_build_file(json.dumps(tree)))
    assert a.dims == a.dims[::-1]
    assert verify_algebra(a).ok
    assert lefschetz_subalgebra(a).dims == brute_force_lefschetz_dims(a)


_P1_PAYLOAD = {"format": "graded-algebra", "version": 1, "name": "P1",
               "top_degree": 1, "basis": [["1"], ["h"]],
               "products": [[0, 0, 0, 0, ["1"]], [0, 0, 1, 0, ["1"]]],
               "integration": ["1"]}


@pytest.mark.parametrize("tree,error", [
    ({"proj_bundle": {"Y": {"P": 2}, "chern": [["1"], [[1]]]}},
     "$.proj_bundle.chern[1][0]: expected an integer or a rational string, "
     "got [1]"),
    ({"proj_bundle": {"Y": {"P": 2}, "chern": [["1"], "0"]}},
     "$.proj_bundle.chern[1]: expected a list of rationals, got str"),
    (json.loads(_example1_with(pullback=["1"])),
     "$.blowup.pullback[0]: expected a list of rows"),
    ({"proj_bundle": {"Y": {"P": 1}}},
     "$.proj_bundle: expected keys ['Y', 'chern'], got ['Y']"),
    ({"proj_bundle": [1]}, "$.proj_bundle: expected an object"),
    ({"blowup": 3}, "$.blowup: expected an object"),
    (json.loads(_example1_with(chern_N=1)),
     "$.blowup.chern_N: expected a list [c_1, ..., c_r]"),
    ({"algebra": []}, "$.algebra: expected an inline algebra payload object"),
    ({"catalog": 5}, "$.catalog: expected a catalog name string"),
    ({"proj_bundle": {"Y": {"P": 1}, "chern": [["1"], [], ["1"]]}},
     "$.proj_bundle.chern[2]: degree 2 exceeds the top degree 1; "
     "give an empty list"),
    ({"proj_bundle": {"Y": {"P": 1}, "chern": [["2"], ["0"]]}},
     "$.proj_bundle: c_0 must be the unit class"),
    ({"algebra": dict(_P1_PAYLOAD, integration=["1", "0"])},
     "$.algebra: integration: expected 1 rational strings"),
    ({"catalog": "mystery"}, "$.catalog: unknown catalog name: 'mystery'"),
    (json.loads(_example1_with(pullback=[[["1"]], [["1", "3"]], [["6"]]])),
     "$.blowup.pullback[1]: entry grid is not 2x1"),
    (json.loads(_example1_with(pullback=[[["1"]], [["1"], ["3"]]])),
     "$.blowup.pullback: need matrices for degrees 0..2, got 2"),
    (json.loads(_example1_with(chern_N=[["4", "18"]])),
     "$.blowup: chern_n must list c_1..c_3, got 1 entries"),
], ids=["chern-token", "chern-row", "pullback-rows", "bundle-keys",
        "bundle-object", "blowup-object", "chern_N-list", "algebra-object",
        "catalog-string", "chern-past-top", "c0-unit", "integration-length",
        "catalog-name", "pullback-k", "pullback", "blowup"])
def test_build_errors_exit_2_with_their_json_path(tmp_path, capsys, tree,
                                                  error):
    path = tmp_path / "bad.build.json"
    path.write_text(json.dumps(tree))
    assert run(["build", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: type error at {error}\n")


# an inline point and an inline P1, each with a zero integration functional
_DEGENERATE_POINT = {"format": "graded-algebra", "version": 1, "name": "deg",
                     "top_degree": 0, "basis": [["1"]],
                     "products": [[0, 0, 0, 0, ["1"]]], "integration": ["0"]}
_DEGENERATE_P1 = dict(algebra_payload(get("P-1").algebra), name="flat",
                      integration=["0"])


@pytest.mark.parametrize("tree,error", [
    ({"blowup": {"Y": {"product": [{"P": 1}, {"P": 1}]},
                 "Z": {"algebra": _DEGENERATE_POINT},
                 "pullback": [[["1"]]], "chern_N": [[], []]}},
     "$.blowup: center deg: integration functional is identically zero"),
    ({"proj_bundle": {"Y": {"algebra": _DEGENERATE_P1},
                      "chern": [["1"], ["0"], []]}},
     "$.proj_bundle: base flat: integration functional is identically zero"),
    ({"product": [{"algebra": _DEGENERATE_POINT}, {"P": 1}]},
     "$.product: factor deg: integration functional is identically zero"),
    ({"product": [{"P": 1}, {"P": 2}, {"algebra": _DEGENERATE_P1}]},
     "$.product: factor flat: integration functional is identically zero"),
    ({"product": [{"P": 1}, {"algebra": _DEGENERATE_P1}, {"P": 2}]},
     "$.product: factor flat: integration functional is identically zero"),
    # every factor is built before the product checks any of them, so a
    # later factor's build error wins over an earlier degenerate factor
    ({"product": [{"P": 1}, {"algebra": _DEGENERATE_P1}, {"catalog": "nope"}]},
     "$.product[2].catalog: unknown catalog name: 'nope'"),
], ids=["blowup-center", "bundle-base", "product-left", "product-right",
        "product-middle", "product-build-error-first"])
def test_a_degenerate_constructor_input_is_refused_at_build_time(
        tmp_path, capsys, tree, error):
    src, out = tmp_path / "bad.build.json", tmp_path / "bad.alg.json"
    src.write_text(json.dumps(tree))
    assert run(["build", str(src), "-o", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: type error at {error}\n")
    assert not out.exists()
