"""Build-file parsing and evaluation: schema, errors, composition."""

import json

import pytest

from _oracles import brute_force_lefschetz_dims
from lefalg.buildfile import (BlowupNode, BuildFileError, BuildSyntaxError,
                              BuildTypeError, CatalogNode, GrNode, PNode,
                              evaluate, parse_build_file)
from lefalg.catalog import get
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
    # point factors and nested products, which no catalog name spells
    a = evaluate(parse_build_file(json.dumps(tree)))
    assert a.dims == a.dims[::-1]
    assert verify_algebra(a).ok
    assert lefschetz_subalgebra(a).dims == brute_force_lefschetz_dims(a)
