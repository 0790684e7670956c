"""Graded algebra core: construction, products, integration, maps, tensor."""

import itertools
import json
import random
import re
from fractions import Fraction
from unittest import mock

import pytest

from _oracles import (algebra_payload_v1, all_pairs, assert_dense_kronecker,
                      assert_ints_measured, dense_axiom_violations, dense_multiply,
                      full_scan_violations, relabeled, rescaled, unfactored)
from lefalg import catalog, cli, ring, schubert
from lefalg.buildfile import evaluate, parse_build_file
from lefalg.constructors import projective_space, truncated_polynomial_algebra
from lefalg.linalg import Matrix, rref
from lefalg.ring import (GradedAlgebra, RingMap, apply_ring_map, integrate,
                         multiply, pairing_matrix, render_element,
                         tensor_product, verify_algebra, verify_ring_map)
from lefalg.serialize import (algebra_from_payload, algebra_payload, read_algebra,
                              write_algebra)


@pytest.fixture(scope="module")
def p2():
    return projective_space(2)


@pytest.fixture(scope="module")
def p1xp1():
    p1 = projective_space(1)
    return tensor_product(p1, p1)


def test_rejects_empty_or_fat_degree_zero():
    with pytest.raises(ValueError):
        GradedAlgebra("bad", [[], ["x"]], {}, [1])
    with pytest.raises(ValueError):
        GradedAlgebra("bad", [["1", "1'"]], {}, [1, 1])


def test_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        truncated_polynomial_algebra("dup", [("x", 1), ("x", 1)])


def test_element_arithmetic(p2):
    h = p2.by_label("h")
    two_h = h + h
    assert two_h == 2 * h == h * 2
    assert (two_h - h) == h
    assert (-h).coords == (Fraction(-1),)
    assert (h * Fraction(1, 2)).coords == (Fraction(1, 2),)
    with pytest.raises(ValueError):
        h + p2.unit()  # degree mismatch


def test_an_element_scales_by_an_int_or_a_fraction_only(p2):
    # a string is text, not a scalar, even when it spells a rational
    h = p2.by_label("h")
    for scale in (lambda: h * "2", lambda: "2" * h, lambda: h * "x",
                  lambda: h * 0.5, lambda: True * h,
                  # an exponent is an int too: no bool, no string, no float
                  lambda: h ** True, lambda: h ** "2", lambda: h ** 2.0):
        with pytest.raises(TypeError):
            scale()
    assert (2 * h).coords == (h * 2).coords == (Fraction(2),)
    assert (h * Fraction(1, 3)).coords == (Fraction(1, 3),)


def _coordinate_types(x) -> set:
    """The types of x's coordinates; a Fraction is only there with a denominator > 1."""
    assert all(type(c) is int or c.denominator > 1 for c in x.coords), x.coords
    return set(map(type, x.coords))


def test_element_coordinates_follow_the_cell_rule():
    # the coordinate of an Element is an int when it is integral, else a Fraction,
    # as a cell's coefficient is; Fraction(2) images and Fraction inputs included
    a = truncated_polynomial_algebra("P2xP1", [("h", 2), ("k", 1)])
    h, k, half = a.by_label("h"), a.by_label("k"), Fraction(1, 2)
    f = RingMap(a, projective_space(2), [[((0, 1),)], [((0, Fraction(2)),), ((0, 1),)],
                                         [((0, 1),), ((0, Fraction(2)),)]])
    integral = {
        "element": a.element(1, [Fraction(4, 2), "3"]), "unit": a.unit(),
        "zero": a.zero(2), "zero above the top": a.zero(9),
        "basis_element": a.basis_element(2, 1),
        "+": h + k, "+ of halves": h * half + h * half, "-": h - 2 * k, "neg": -h,
        "scalar *": 3 * h, "* by an integral Fraction": h * Fraction(4, 2),
        "multiply": multiply(h + k, h - k), "**": (h + 2 * k) ** 3,
        "apply_ring_map": apply_ring_map(f, h + k), "f of a half": f(h * half),
    }
    for name, x in integral.items():
        assert _coordinate_types(x) <= {int}, name
    halves = {
        "element": a.element(1, ["1/2", Fraction(1, 3)]), "scalar *": h * half,
        "+": h + k * half, "-": h - k * half, "neg": -(h * half),
        "multiply": multiply(h * half, k), "**": (h * half) ** 2,
        "apply_ring_map": apply_ring_map(f, k * half),
    }
    for name, x in halves.items():
        assert Fraction in _coordinate_types(x), name
    assert (h * half).coords == (half, 0) and (h * half + h * half).coords == (1, 0)


def test_a_fraction_coordinate_element_is_its_int_twin(p2):
    # an Element built by hand from Fraction coordinates is the same class
    h2 = p2.by_label("h") ** 2
    by_hand = ring.Element(p2, 2, (Fraction(3),))
    assert (3 * h2).coords == (3,) and type((3 * h2).coords[0]) is int
    assert by_hand == 3 * h2 and hash(by_hand) == hash(3 * h2)
    assert str(by_hand) == str(3 * h2) == "3*h^2" and repr(by_hand) == repr(3 * h2)
    # integration still returns a Fraction, in and above the top degree
    for x in (h2, by_hand, p2.zero(2), h2 * h2):
        assert type(integrate(x)) is Fraction
    assert integrate(by_hand) == 3


def test_elements_of_different_algebras_do_not_mix(p2):
    other = projective_space(2)
    # same structure but a distinct instance is fine; a different algebra is not
    q = projective_space(3)
    with pytest.raises(ValueError):
        p2.by_label("h") + q.by_label("h")
    assert other.by_label("h").coords == p2.by_label("h").coords


def test_products_truncate_above_top(p2):
    h = p2.by_label("h")
    h2 = h * h
    assert h2.coords == (Fraction(1),)
    top_plus = h2 * h2  # degree 4 > 2
    assert top_plus.is_zero and top_plus.above_top
    assert integrate(top_plus) == 0
    # above-top zeros absorb further multiplication
    assert (top_plus * h).is_zero


def test_power_operator(p2):
    h = p2.by_label("h")
    assert h ** 0 == p2.unit()
    assert h ** 2 == h * h
    assert (h ** 3).is_zero
    with pytest.raises(ValueError):
        h ** -1


def test_a_power_past_the_top_degree_is_zero_with_no_product(p2):
    h = p2.by_label("h")
    with mock.patch.object(ring, "multiply", side_effect=AssertionError):
        assert h ** 10**9 == p2.zero(10**9)
        assert h ** 3 == p2.zero(3)
        assert h ** 1 is h
        assert h ** 0 == p2.unit()
    assert h ** 2 == h * h
    two = p2.unit() + p2.unit()
    assert two ** 3 == two * two * two  # degree 0 never passes the top


def test_a_power_squares_and_multiplies(p2):
    a = catalog.get("P1xP1xP1xP1xP1xP1xP1xP1").algebra  # top degree 8
    omega = ring._degree_one_sum(a)
    for x in (omega, omega + a.by_label(a.basis[1][0]), a.unit() * Fraction(3, 2)):
        expected = a.unit()
        for n in range(1, 9):
            expected = expected * x
            with mock.patch.object(ring, "multiply", wraps=ring.multiply) as spy:
                assert x ** n == expected
            assert spy.call_count <= 2 * (n - 1).bit_length()
    assert integrate(omega ** 8) == 40320  # 8! ways to order the eight factors
    one = p2.unit()
    with mock.patch.object(ring, "multiply", wraps=ring.multiply) as spy:
        assert one ** 10**6 == one
        assert (one + one) ** 100 == one * 2**100
    assert spy.call_count <= 2 * (10**6 - 1).bit_length() + 2 * (100 - 1).bit_length()


def test_integration_picks_top_class(p2):
    h = p2.by_label("h")
    assert integrate(h * h) == 1
    with pytest.raises(ValueError):
        integrate(h)  # not top degree


def test_zero_has_no_negative_degree(p2):
    with pytest.raises(ValueError):
        p2.zero(-1)
    assert p2.zero(3).coords == ()


def test_basis_element_checks_its_indices(p2):
    assert p2.basis_element(1, 0) == p2.by_label("h")
    for k, i in ((1, -1), (1, 1), (3, 0), (5, 0), (-1, 0)):
        with pytest.raises(ValueError, match=f"no basis class {i} in degree {k} of P2"):
            p2.basis_element(k, i)


def test_a_bool_is_no_degree_or_index(p2):
    # True == 1, but <deg True: h> is no class
    for call in (lambda: p2.element(True, [1]), lambda: p2.zero(False),
                 lambda: p2.basis_element(True, False),
                 lambda: p2.basis_element(1, False)):
        with pytest.raises(TypeError, match="not a bool"):
            call()
    with pytest.raises(ValueError):
        p2.element(3, [1])


def test_render_element(p2):
    h = p2.by_label("h")
    assert render_element(3 * h) == "3*h"
    assert render_element(h - 2 * h) == "-h"
    assert render_element(p2.zero(1)) == "0"
    assert render_element(2 * p2.unit()) == "2"
    assert render_element(Fraction(1, 2) * h) == "1/2*h"


def test_pairing_matrix_p2(p2):
    m = pairing_matrix(p2, 1)
    assert m == Matrix(1, 1, [[1]])
    assert pairing_matrix(p2, 0) == Matrix(1, 1, [[1]])


def test_verify_algebra_passes_on_good_ring(p2):
    assert verify_algebra(p2).ok


def test_verify_algebra_flags_degenerate_integration():
    # x with x^2 = 0 and integration reading the x coefficient is fine,
    # but zero integration kills the pairing
    one = ((0, Fraction(1)),)
    a = GradedAlgebra("degen", [["1"], ["x"]],
                      {(0, 0): [[one]], (0, 1): [[one]], (1, 0): [[one]]},
                      [0])
    rep = verify_algebra(a)
    assert not rep.ok
    assert any("integration" in v or "pairing" in v for v in rep.violations)


def test_verify_algebra_flags_broken_associativity():
    # tamper with P1 x P2: kill x * y^2 (but keep x*y) so that
    # (x*y)*y != x*(y*y) while commutativity still holds
    t, tables = _p1xp2_tables()
    i = t.basis[1].index("h⊗1")
    j = t.basis[2].index("1⊗h^2")
    tables[(1, 2)][i][j] = ()
    tables[(2, 1)][j][i] = ()
    a = GradedAlgebra("warped", t.basis, tables, t.integration)
    rep = verify_algebra(a)
    assert not rep.ok
    assert any("associativity" in v for v in rep.violations)


def test_verify_algebra_flags_broken_commutativity():
    t, tables = _p1xp2_tables()
    i = t.basis[1].index("h⊗1")
    j = t.basis[2].index("1⊗h^2")
    tables[(1, 2)][i][j] = ((0, Fraction(-1)),)  # mirror left intact
    a = GradedAlgebra("warped2", t.basis, tables, t.integration)
    rep = verify_algebra(a)
    assert any("commutativity" in v for v in rep.violations)


def test_tensor_product_dims_and_labels(p1xp1):
    assert p1xp1.dims == (1, 2, 1)
    assert p1xp1.basis[1] == ("h⊗1", "1⊗h")
    assert p1xp1.basis[2] == ("h⊗h",)
    assert p1xp1.name == "P1xP1"


def test_tensor_product_structure(p1xp1):
    x = p1xp1.by_label("h⊗1")
    y = p1xp1.by_label("1⊗h")
    assert (x * x).is_zero
    assert (y * y).is_zero
    assert render_element(x * y) == "h⊗h"
    assert integrate(x * y) == 1
    assert pairing_matrix(p1xp1, 1) == Matrix(2, 2, [[0, 1], [1, 0]])
    assert verify_algebra(p1xp1).ok


def test_tensor_product_betti_numbers_convolve():
    a = projective_space(2)
    b = projective_space(3)
    t = tensor_product(a, b)
    expected = tuple(sum(a.dim(i) * b.dim(k - i) for i in range(k + 1))
                     for k in range(t.top_degree + 1))
    assert t.dims == expected
    assert verify_algebra(t).ok


def test_tensor_is_associative_up_to_labels():
    p1 = projective_space(1)
    left = tensor_product(tensor_product(p1, p1), p1)
    right = tensor_product(p1, tensor_product(p1, p1))
    assert left.dims == right.dims == (1, 3, 3, 1)
    # structure constants agree after the obvious relabeling
    relab = relabeled(right, left.basis, name=left.name)
    assert relab.products == left.products
    assert relab.integration == left.integration


def _factor(name):
    """A catalog algebra, or "~name": that algebra rescaled to non-unit,
    non-integer structure constants."""
    if name.startswith("~"):
        return rescaled(catalog.get(name[1:]).algebra)[0]
    return catalog.get(name).algebra


@pytest.mark.parametrize("left, right", [
    ("P1", "P2"), ("Gr-2-4", "P1"), ("example1", "P1"), ("P1", "example2"),
    ("example3", "example1"), ("Gr-2-4", "~example1"), ("~P1xP2", "~P1xP2")])
def test_tensor_product_matches_the_dense_kronecker_oracle(left, right):
    a, b = _factor(left), _factor(right)
    assert_dense_kronecker(a, b, tensor_product(a, b))


def test_ring_map_functoriality():
    p3, p1 = projective_space(3), projective_space(1)
    # restriction h -> h: each class maps to the class in its place
    f = RingMap(p3, p1, [[((0, 1),)], [((0, 1),)]])
    assert verify_ring_map(f).ok
    h3 = p3.by_label("h")
    assert f(h3) == p1.by_label("h")
    # degree above the target top collapses to zero
    assert apply_ring_map(f, p3.by_label("h^2")).is_zero


def test_ring_map_detects_crushed_relation():
    # P1 -> P2 sending h to h is NOT a ring map: h^2 = 0 upstairs but the
    # pair (1,1) lands on h^2 != 0 downstairs. The checker must look at
    # degree sums beyond the source top to see it.
    p1, p2 = projective_space(1), projective_space(2)
    f = RingMap(p1, p2, [[((0, 1),)], [((0, 1),)]])
    rep = verify_ring_map(f)
    assert not rep.ok


def test_ring_map_shape_validation():
    p3, p1 = projective_space(3), projective_space(1)
    with pytest.raises(ValueError):
        RingMap(p3, p1, [[((0, 1),)]])  # missing degree 1
    with pytest.raises(ValueError):
        RingMap(p3, p1, [[((0, 1),)], [((0, 1),), ((1, 1),)]])
    # each image is a cell of the target degree: P1 -> P1xP1, h -> its image
    p1xp1 = catalog.get("P1xP1").algebra
    for bad in ([], [((0, 1),), ((1, 1),)],  # the wrong number of images
                [((1, 1), (0, 1))],  # terms out of order
                [((2, 1),)],  # a term outside degree 1
                [((0, 0),)]):  # a zero coefficient
        with pytest.raises(ValueError):
            RingMap(p1, p1xp1, [[((0, 1),)], bad])
    with pytest.raises(TypeError):
        RingMap(p1, p1xp1, [[((0, 1),)], [((0, 1.0),)]])  # a float coefficient


def test_relabeled_checks_profile(p2):
    with pytest.raises(ValueError):
        relabeled(p2, [["1"], ["x"]])
    r = relabeled(p2, [["1"], ["t"], ["t^2"]], name="retagged")
    assert r.by_label("t") * r.by_label("t") == r.by_label("t^2")


def test_structural_equality(p2):
    again = projective_space(2)
    assert p2 == again
    assert hash(p2) == hash(again)
    assert p2 != projective_space(3)


def test_products_past_the_top_are_the_zero_of_their_degree():
    for name in catalog.names():
        a = catalog.get(name).algebra
        if sum(a.dims) > 60:
            continue
        d = a.top_degree
        for k1 in range(d + 1):
            for k2 in range(d + 1 - k1, d + 1):
                for i in range(a.dim(k1)):
                    for j in range(a.dim(k2)):
                        prod = multiply(a.basis_element(k1, i),
                                        a.basis_element(k2, j))
                        assert prod == a.zero(k1 + k2), (name, k1, i, k2, j)
                        assert prod.coords == () and prod.above_top, name


@pytest.mark.parametrize("name", catalog.names())
def test_pairing_matrix_is_the_integral_of_products(name):
    a = catalog.get(name).algebra
    d = a.top_degree
    for k in range(d + 1):
        expected = [[integrate(multiply(a.basis_element(k, i),
                                        a.basis_element(d - k, j)))
                     for j in range(a.dim(d - k))] for i in range(a.dim(k))]
        assert pairing_matrix(a, k) == Matrix(a.dim(k), a.dim(d - k), expected)


def _p1xp2_tables():
    t = tensor_product(projective_space(1), projective_space(2))
    return t, {k: [list(row) for row in tab] for k, tab in t.tables.items()}


def test_constructor_rejects_a_float_coefficient():
    t, tables = _p1xp2_tables()
    tables[(1, 1)][0][1] = ((0, 0.5),)
    with pytest.raises(TypeError,
                       match=r"table \(1,1\) cell \(0,1\): coefficient 0.5"):
        GradedAlgebra("floaty", t.basis, tables, t.integration)


def test_constructor_rejects_a_bad_cell():
    t, tables = _p1xp2_tables()
    tables[(1, 2)][0][1] = ((1, Fraction(1)),)  # degree 3 has one class
    with pytest.raises(ValueError, match=r"table \(1,2\) cell \(0,1\)"):
        GradedAlgebra("long", t.basis, tables, t.integration)


def test_constructor_rejects_a_missing_table():
    t, tables = _p1xp2_tables()
    del tables[(2, 1)]
    with pytest.raises(ValueError, match=r"missing product table for degrees \(2,1\)"):
        GradedAlgebra("holey", t.basis, tables, t.integration)


@pytest.mark.parametrize("cell", [
    ((0, Fraction(1)), (1, Fraction(0))),  # a zero term
    ((1, Fraction(1)), (0, Fraction(1))),  # descending
    ((0, Fraction(1)), (0, Fraction(1))),  # repeated
    ((-1, Fraction(1)),), ((False, Fraction(1)),),
    [(0, Fraction(1))], ([0, Fraction(1)],), ((0, Fraction(1), 0),), 1, None,
], ids=repr)
def test_constructor_rejects_a_non_canonical_cell(cell):
    t, tables = _p1xp2_tables()  # (1,1) lands in degree 2, of dimension 2
    tables[(1, 1)][0][1] = cell
    with pytest.raises(ValueError, match=r"table \(1,1\) cell \(0,1\)"):
        GradedAlgebra("odd", t.basis, tables, t.integration)


def test_constructor_takes_int_or_fraction_coefficients_and_rejects_a_misshapen_table():
    for bad in (True, 0.5, "1"):
        t, tables = _p1xp2_tables()
        tables[(2, 1)][1][0] = ((0, bad),)  # a mirror cell, no longer shared
        with pytest.raises(TypeError, match=re.escape(
                f"product table (2,1) cell (1,0): coefficient {bad!r} is not "
                f"an int or a Fraction")):
            GradedAlgebra("odd", t.basis, tables, t.integration)
    t, tables = _p1xp2_tables()
    tables[(2, 1)][1][0] = ((0, 1),)
    assert GradedAlgebra(t.name, t.basis, tables, t.integration) == t
    t, tables = _p1xp2_tables()
    tables[(1, 1)] = tables[(1, 1)][:1]
    with pytest.raises(ValueError, match=r"table \(1,1\) is not 2x2"):
        GradedAlgebra("short", t.basis, tables, t.integration)


def test_list_rows_give_an_immutable_algebra_equal_to_the_original():
    t, tables = _p1xp2_tables()
    a = GradedAlgebra(t.name, t.basis, tables, list(t.integration))
    tables[(1, 1)][0][0] = ((0, Fraction(5)),)  # the caller's lists stay theirs
    assert a == t
    assert all(type(row) is tuple for tab in a.tables.values() for row in tab)
    assert all(type(tab) is tuple for tab in a.tables.values())
    assert type(a.integration) is tuple


@pytest.mark.parametrize("name", catalog.names())
def test_dense_view_rebuilds_the_same_algebra(name):
    # the dense view of a rebuild from the cells is the view of the original
    a = catalog.get(name).algebra
    b = GradedAlgebra(a.name, a.basis, a.tables, a.integration)
    assert b == a and dict(b.products) == dict(a.products)


def _assert_sparse_and_shared(a):
    d = a.top_degree
    assert sorted(a.tables) == sorted((k1, k2) for k1 in range(d + 1)
                                      for k2 in range(d + 1 - k1))
    for (k1, k2), table in a.tables.items():
        assert len(table) == a.dim(k1)
        for i, row in enumerate(table):
            assert len(row) == a.dim(k2)
            for j, cell in enumerate(row):
                assert isinstance(cell, tuple)
                # the canonical form: an int, or a Fraction that is not one
                assert all(type(c) is int and c != 0 or type(c) is Fraction
                           and c.denominator > 1 for _, c in cell)
                targets = [t for t, _ in cell]
                assert targets == sorted(set(targets))
                assert all(0 <= t < a.dim(k1 + k2) for t in targets)
                assert a.tables[(k2, k1)][j][i] is cell


@pytest.mark.parametrize("name", catalog.names())
def test_cells_are_sparse_and_shared_with_their_mirror(name):
    a = catalog.get(name).algebra
    _assert_sparse_and_shared(a)
    _assert_sparse_and_shared(
        GradedAlgebra(a.name, a.basis, a.tables, a.integration))
    for payload in (algebra_payload(a), algebra_payload_v1(a)):
        _assert_sparse_and_shared(
            algebra_from_payload(payload, require_checksum=False))


def _inline_p2(name: str, hh: str, top: str) -> dict:
    """A build node: P2 with h*h = hh * q and the integral of q equal to top."""
    return {"algebra": {
        "format": "graded-algebra", "version": 2, "name": name,
        "top_degree": 2, "basis": [["1"], ["h"], ["q"]],
        "products": [[0, 0, 0, 0, [[0, "1"]]], [0, 0, 1, 0, [[0, "1"]]],
                     [0, 0, 2, 0, [[0, "1"]]], [1, 0, 1, 0, [[0, hh]]]],
        "integration": [top]}}


@pytest.mark.parametrize("tree", [
    # c_1 h = 2h * h is the class q itself: an integral product
    {"proj_bundle": {"Y": _inline_p2("half", "1/2", "2"),
                     "chern": [["1"], ["2"], ["3"]]}},
    # (1/2 q) (x) (2 q') is the class q (x) q' itself: an integral product
    {"product": [_inline_p2("half", "1/2", "2"), _inline_p2("twice", "2", "1/2"),
                 {"Gr": [2, 4]}]},
    {"blowup": {"Y": {"product": [_inline_p2("half", "1/2", "2"), {"P": 1}]},
                "Z": {"P": 0}, "pullback": [[["1"]]],
                "chern_N": [[], [], []]}},
], ids=["bundle", "product", "point"])
def test_build_file_cells_are_ints_wherever_they_are_integral(tree):
    a = evaluate(parse_build_file(json.dumps(tree)))
    assert verify_algebra(a).ok
    _assert_sparse_and_shared(a)


def _with_coefficients(a: GradedAlgebra, kind) -> GradedAlgebra:
    """a built by hand from its cells, every coefficient c written kind(c)."""
    tables = {key: [[tuple((t, kind(c)) for t, c in cell) for cell in row]
                    for row in table] for key, table in a.tables.items()}
    return GradedAlgebra(a.name, a.basis, tables, a.integration)


def test_int_and_fraction_cells_give_one_algebra_file_and_report(tmp_path,
                                                                 capsys):
    p1xp2 = catalog.get("P1xP2").algebra
    ints = _with_coefficients(p1xp2, int)
    fractions = _with_coefficients(p1xp2, Fraction)
    for a, kind in ((ints, int), (fractions, Fraction)):
        assert {type(c) for table in a.tables.values() for row in table
                for cell in row for _, c in cell} == {kind}
    assert ints == fractions == p1xp2
    # an all-int table is read as stored, any other is an equal copy
    assert ring._int_table(ints, 1, 1) is ints.tables[1, 1]
    assert [list(map(tuple, row)) for row in ring._int_table(fractions, 1, 1)] \
        == list(map(list, ints.tables[1, 1]))
    outputs = []
    for a in (ints, fractions):
        path = tmp_path / f"{len(outputs)}.alg.json"
        write_algebra(a, str(path))
        with mock.patch.object(cli, "read_algebra", lambda ref: a):
            assert cli.run(["report", "hand-built.alg.json", "--json"]) == 0
        outputs.append((path.read_bytes(), capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0][1])["lefschetz_dims"] == [1, 2, 2, 1]


# P2 with h*h = q/2 and integration 2: one non-integral structure constant
_P2_HALF = {"format": "graded-algebra", "version": 2, "name": "P2-half",
            "top_degree": 2, "basis": [["1"], ["h"], ["q"]],
            "products": [[0, 0, 0, 0, [[0, "1"]]], [0, 0, 1, 0, [[0, "1"]]],
                         [0, 0, 2, 0, [[0, "1"]]], [1, 0, 1, 0, [[0, "1/2"]]]],
            "integration": ["2"]}


def test_int_table_reads_the_flag_the_constructor_set(tmp_path):
    # a pair whose cells hold only ints is flagged where its cells are checked,
    # and read as stored; any other is read as a scaled copy
    ints = catalog.get("P1xP2").algebra
    assert_ints_measured(ints)
    assert ints.tables.ints == set(ints.tables)
    half = algebra_from_payload(_P2_HALF, require_checksum=False)
    path = tmp_path / "half.alg.json"
    write_algebra(half, str(path))
    for a in (half, read_algebra(str(path))):  # h*h = q/2 alone holds a Fraction
        assert_ints_measured(a)
        assert a.tables.ints == set(a.tables) - {(1, 1)}
    t = tensor_product(half, projective_space(1))
    assert_ints_measured(t)
    assert set() < t.tables.ints < set(t.tables)
    assert ring._int_table(half, 1, 1) == [[[(0, 1)]]]
    assert ring._int_table(half, 0, 2) is half.tables[0, 2]


def _p2_twice() -> GradedAlgebra:
    """P2 by hand with h*h = 2q, every coefficient an integral Fraction."""
    return GradedAlgebra("P2-twice", [["1"], ["h"], ["q"]], ring.build_product_tables(
        [["1"], ["h"], ["q"]], lambda k1, i, k2, j: ((0, Fraction(2 if k1 else 1)),)),
        [1])


def test_every_kernel_branch_writes_an_integral_coefficient_as_an_int():
    # P1's unit cells meet P2-twice's unit cells 1*b, written Fraction(1),
    # and its h*h = Fraction(2) q on both sides; P2-half's 1/2 meets that 2
    p1, twice = projective_space(1), _p2_twice()
    half = algebra_from_payload(_P2_HALF, require_checksum=False)
    dict(twice.tables)
    assert not twice.tables.ints and half.tables.ints == set(half.tables) - {(1, 1)}
    for a, b in ((p1, twice), (twice, p1), (p1, half)):
        t = tensor_product(a, b)
        _assert_sparse_and_shared(t)
        assert_dense_kronecker(a, b, t)
        assert_ints_measured(t)
    nested = tensor_product(tensor_product(p1, half), twice)
    t = tensor_product(p1, half, twice)
    _assert_sparse_and_shared(t)
    assert_dense_kronecker(tensor_product(p1, half), twice, t)
    assert (t.name, t.basis, t.tables, t.integration) == \
        (nested.name, nested.basis, nested.tables, nested.integration)
    # (1 (x) h (x) h)^2 = 1 (x) q/2 (x) 2q: a non-unit times a non-unit, integral
    k, i = t.label_location("1⊗h⊗h")
    ((s, c),) = t.tables[k, k][i][i]
    assert (t.basis[2 * k][s], type(c), c) == ("1⊗q⊗q", int, 1)


def test_a_product_keeps_the_empty_degrees_of_its_factors():
    one = ((0, 1),)
    gap = GradedAlgebra("gap", [["1"], [], ["q"]],
                        {(0, 0): [[one]], (0, 1): [[]], (1, 0): [], (1, 1): [],
                         (0, 2): [[one]], (2, 0): [[one]]}, [1])
    t = tensor_product(gap, gap)
    assert t.dims == (1, 0, 2, 0, 1) and verify_algebra(t).ok
    assert_dense_kronecker(gap, gap, t)


def test_a_shared_unit_cell_past_the_dimension_is_still_refused():
    t = catalog.get("P1xP1xP1").algebra  # (1,1) lands in degree 2, of dimension 3

    def refusal(cell):
        tables = {key: [list(row) for row in table] for key, table in t.tables.items()}
        tables[1, 1][0][1] = cell
        with pytest.raises(ValueError) as e:
            GradedAlgebra("long", t.basis, tables, t.integration)
        return str(e.value)

    shared, fresh = ring._unit_cells(6)[5], tuple([(5, 1)])
    assert shared == fresh and shared is not fresh
    assert refusal(shared) == refusal(fresh) == (
        "product table (1,1) cell (0,1): ((5, 1),) is not a tuple of (t, c) terms "
        "with t ascending in 0..2 and c nonzero")


@pytest.mark.parametrize("factors", [["P1"] * 8, ["P-2"] * 4], ids=["P1^8", "P2^4"])
def test_every_unit_cell_of_a_product_is_the_shared_one(factors):
    a = tensor_product(*(catalog.get(n).algebra for n in factors))
    units = ring._unit_cells(max(a.dims))
    cells = [(cell, a.tables[k2, k1][j][i]) for (k1, k2), table in a.tables.items()
             for i, row in enumerate(table) for j, cell in enumerate(row) if cell]
    # every product of two monomials is one monomial
    assert cells and all(cell is units[cell[0][0]] for cell, _ in cells)
    assert all(mirror is cell for cell, mirror in cells)


def _built(tables) -> set:
    """The keys of the product tables that have been built."""
    return {key for key, table in tables._tables.items() if table is not None}


def test_a_product_builds_no_table_until_one_is_read():
    p1, gr = projective_space(1), catalog.get("Gr-2-4").algebra
    t = tensor_product(gr, gr, p1)
    tables, step = t.tables, t.tables._source[0]  # step: the tables of Gr-2-4xGr-2-4
    d = t.top_degree
    keys = [(k1, k2) for k1 in range(d + 1) for k2 in range(d + 1 - k1)]
    assert list(tables) == keys and len(tables) == len(keys)
    assert (1, 2) in tables and (d, 1) not in tables and (d, 1) not in tables.keys()
    assert _built(tables) == _built(step) == set()
    with pytest.raises(KeyError):
        tables[d, 1]
    assert _built(tables) == set()
    table = tables[2, 1]
    assert _built(tables) == {(1, 2), (2, 1)}
    assert type(table) is tuple and all(type(row) is tuple for row in table)
    assert tables[2, 1] is table
    assert all(tables[1, 2][j][i] is cell
               for i, row in enumerate(table) for j, cell in enumerate(row))
    # the fold step builds only the tables that block reads of (1, 2) need
    # (P1's tables (1, 0), (0, 1) and (0, 0) meet step tables (0, 2), (1, 1), (1, 2))
    assert _built(step) == {(0, 2), (2, 0), (1, 1), (1, 2), (2, 1)}


def _pairings_ranked(monkeypatch) -> list:
    """The algebras whose pairings `ring._pairing_violations` ranks from now on."""
    ranked, real = [], ring._pairing_violations
    monkeypatch.setattr(ring, "_pairing_violations", lambda a: ranked.append(a) or real(a))
    return ranked


def test_a_product_checks_each_distinct_factor_once(monkeypatch):
    p1, example2 = projective_space(1), catalog.get("example2").algebra
    ranked = _pairings_ranked(monkeypatch)
    tensor_product(*[p1] * 8)
    assert ranked == [p1]
    # a product factor keeps its factors' product integration, so its own
    # factors' checks stand for it: example2xP1's pairing is not ranked, and
    # none of its tables is built
    ranked.clear()
    inner = tensor_product(example2, p1)
    outer = tensor_product(inner, p1)
    assert ranked == [example2, p1, p1] and _built(inner.tables) == set()
    assert outer._factors == (inner, p1)


def test_a_degenerate_factor_is_named_first_in_argument_order(monkeypatch):
    p1, p2 = projective_space(1), projective_space(2)
    t = tensor_product(p1, p2)
    flat = GradedAlgebra("flat", p1.basis, p1.tables, [0])
    # a product's tables under another integration are not that product
    t_flat = GradedAlgebra("t-flat", t.basis, t.tables, [0])
    message = "factor {}: integration functional is identically zero"
    for factors, name in [((p1, flat, t_flat), "flat"), ((t_flat, p1, flat), "t-flat"),
                          ((flat, t, flat), "flat"), ((t, p2, t_flat, t), "t-flat")]:
        with pytest.raises(ValueError) as e:
            tensor_product(*factors)
        assert str(e.value) == message.format(name)
    ranked = _pairings_ranked(monkeypatch)
    twice = GradedAlgebra("t-twice", t.basis, t.tables, [2])  # nondegenerate, and checked
    assert tensor_product(t, twice, t).top_degree == 9
    assert ranked == [twice]


def test_the_input_check_builds_no_table_of_a_fresh_factor(monkeypatch):
    # built tables are commutative by construction, so a factor made by a rule
    # or by tensor_product is not scanned: only the pairing tables (k, d-k) are read
    scanned, real = [], ring._commutativity
    monkeypatch.setattr(ring, "_commutativity", lambda a: scanned.append(a) or real(a))
    p1, gr = projective_space(1), schubert.grassmannian.__wrapped__(2, 4)  # uncached
    inner = tensor_product(p1, gr)
    assert _built(inner.tables) == set() and scanned == []
    for f in (p1, gr):
        assert _built(f.tables) == {(k, f.top_degree - k) for k in range(f.top_degree + 1)}
    tensor_product(inner, p1)
    assert _built(inner.tables) == set() and scanned == []
    by_hand = GradedAlgebra("P1-by-hand", p1.basis, dict(p1.tables.items()), p1.integration)
    tensor_product(by_hand, p1)
    assert scanned == [by_hand]


def test_product_tables_of_another_shape_are_checked_as_any_tables_are(p1xp1):
    with pytest.raises(ValueError, match=r"^product table \(0,1\) is not 1x3$"):
        GradedAlgebra("wide", [["1"], ["a", "b", "c"], ["q"]], p1xp1.tables, [1])
    renamed = GradedAlgebra("renamed", [["1"], ["a", "b"], ["q"]], p1xp1.tables, [1])
    assert renamed.tables is p1xp1.tables


def test_report_leaves_some_product_table_unbuilt(capsys):
    # with its default generators a product is read from its factors and builds
    # no table; explicit generators eliminate on the tables it reads
    gr, p1 = catalog.get("Gr-2-5").algebra, projective_space(1)
    t = tensor_product(gr, gr, p1)
    gens = [arg for label in t.basis[1] for arg in ("--gens", label)]
    with mock.patch.object(cli, "read_algebra", lambda ref: t):
        assert cli.run(["report", "product.alg.json"]) == 0
        assert _built(t.tables) == set()
        assert cli.run(["report", "product.alg.json"] + gens) == 0
    assert capsys.readouterr().out.count("hard_lefschetz: PASS") == 2
    assert _built(t.tables) and _built(t.tables) != set(t.tables)


@pytest.mark.parametrize("factors", [["Gr-2-4", "Gr-2-4", "P1"], ["P1", "~P1xP2"],
                                     ["example3", "P-2"], ["P1", "half", "P1"]])
def test_every_product_cell_is_checked_as_it_is_formed(factors):
    half = algebra_from_payload(_P2_HALF, require_checksum=False)
    algebras = [half if n == "half" else _factor(n) for n in factors]
    checked, check_cell = {}, ring._check_cell

    def check(cell, n):
        checked[id(cell)] = (cell, n)
        return check_cell(cell, n)

    with mock.patch.object(ring, "_check_cell", check):
        t = tensor_product(*algebras)
        assert not checked
        tables = dict(t.tables.items())
    units = set(map(id, ring._unit_cells(max(t.dims))))
    formed = 0
    for (k1, k2), table in tables.items():
        for i, row in enumerate(table):
            for j, cell in enumerate(row):
                if cell and id(cell) not in units:
                    assert checked[id(cell)] == (cell, t.dim(k1 + k2))
                    assert tables[k2, k1][j][i] is cell
                    formed += 1
    assert formed


def test_catalog_products_read_in_any_order_match_the_dense_kronecker_oracle():
    for name in catalog.names():
        if catalog._is_factor(name):
            continue
        *left, right = [catalog.get(p).algebra for p in catalog._product_factors(name)]
        nested = left[0] if len(left) == 1 else tensor_product(*left)
        t = tensor_product(*left, right)
        keys = list(t.tables)
        random.Random(name).shuffle(keys)
        for key in keys:  # the first read of a pair may be either orientation
            t.tables[key]
        assert_dense_kronecker(nested, right, t)


def test_an_integral_fraction_factor_gives_a_product_flagged_as_its_checked_copy(capsys):
    # every product of P2-twice's integral Fractions is written as an int, so the
    # product's pairs are flagged as those of its cells copied through the
    # constructor are, though no pair of P2-twice is
    p1, twice = projective_space(1), _p2_twice()
    t = tensor_product(p1, twice)
    checked = GradedAlgebra(t.name, t.basis, dict(t.tables), t.integration)
    assert t == checked and t.tables.ints == checked.tables.ints == set(t.tables)
    assert not twice.tables.ints
    outputs = []
    for a in (t, checked):
        with mock.patch.object(cli, "read_algebra", lambda ref: a):
            for flags in ([], ["--json"]):
                assert cli.run(["report", "product.alg.json", *flags]) == 0
                outputs.append(capsys.readouterr().out)
    assert outputs[:2] == outputs[2:]
    assert "primitive dims: 1 1" in outputs[0]


def test_a_fully_read_product_drops_its_fold_and_a_partly_read_one_keeps_it():
    p1, gr = projective_space(1), catalog.get("Gr-2-4").algebra
    t = tensor_product(gr, p1, p1)
    tables, step = t.tables, t.tables._source[0]  # step: the tables of Gr-2-4xP1
    keys = list(tables)
    for key in keys[::2]:
        tables[key]
    assert _built(tables) != set(tables)
    # it keeps the pair of factor tables, and no more
    assert type(tables._source) is tuple and len(tables._source) == 2
    assert tables._source[0] is step and tables._source[1] is p1.tables
    for key in keys[1::2]:  # the rest still build, from the factor tables it kept
        tables[key]
    assert _built(tables) == set(tables)
    assert tables._source is None
    assert_dense_kronecker(tensor_product(gr, p1), p1, t)


def test_every_algebras_tables_are_read_only(tmp_path):
    p1, p2 = projective_space(1), catalog.get("P-2").algebra
    write_algebra(p2, str(tmp_path / "p2.alg.json"))
    one = ((0, 1),)
    by_hand = GradedAlgebra("P1-by-hand", [["1"], ["h"]],
                            {(0, 0): [[one]], (0, 1): [[one]], (1, 0): [[one]]}, [1])
    built = ring.build_product_tables(p2.basis, lambda k1, i, k2, j: ((0, 1),))
    for tables in (p2.tables, read_algebra(str(tmp_path / "p2.alg.json")).tables,
                   algebra_from_payload(_P2_HALF, require_checksum=False).tables,
                   by_hand.tables, built, tensor_product(p1, p1).tables):
        assert isinstance(tables, ring._Tables)
        with pytest.raises(TypeError):
            tables[1, 1] = ((((0, 5),),),)
        with pytest.raises(TypeError):
            tables[0, 1][0] = ((((0, 5),),),)
    p2 = catalog.get("P-2").algebra
    assert p2.by_label("h") * p2.by_label("h") == p2.by_label("h^2")
    assert verify_algebra(p2).ok


def test_the_dense_view_is_checked_as_any_mapping_is():
    a = catalog.get("P-1").algebra
    with pytest.raises(ValueError, match=re.escape(
            "product table (0,0) cell (0,0): (1,) is not a tuple of (t, c) terms")):
        GradedAlgebra(a.name, a.basis, a.products, a.integration)


@pytest.mark.parametrize("name", catalog.names())
def test_multiply_matches_the_dense_oracle(name):
    a = catalog.get(name).algebra
    products = dict(a.products)
    d = a.top_degree
    for k1 in range(d + 1):
        for k2 in range(d + 1 - k1):
            for i in range(a.dim(k1)):
                for j in range(a.dim(k2)):
                    x, y = a.basis_element(k1, i), a.basis_element(k2, j)
                    assert multiply(x, y) == dense_multiply(x, y, products)
    rng = random.Random(f"multiply-{name}")

    def rand_element(k):
        return a.element(k, [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                             if rng.random() < 0.6 else 0 for _ in range(a.dim(k))])

    for _ in range(25):
        k1 = rng.randint(0, d)
        k2 = rng.randint(0, d + 1 - k1)
        x, y = rand_element(k1), rand_element(min(k2, d))
        assert multiply(x, y) == dense_multiply(x, y, products)


def _axiom_violations_agree_with_the_dense_oracle(a):
    axioms = [v for v in verify_algebra(a).violations
              if v.startswith(("commutativity", "associativity"))]
    assert axioms == dense_axiom_violations(a)
    return axioms


def test_verify_algebra_flags_a_zero_product_made_nonzero():
    # P1 x P2 with x = h⊗1, y = 1⊗h: x*x = 0, so its cell is absent from the
    # sparse store; x*x := x*y keeps commutativity but breaks associativity
    t, tables = _p1xp2_tables()
    x, y = t.basis[1].index("h⊗1"), t.basis[1].index("1⊗h")
    assert t.tables[(1, 1)][x][x] == ()
    tables[(1, 1)][x][x] = tables[(1, 1)][x][y]
    axioms = _axiom_violations_agree_with_the_dense_oracle(
        GradedAlgebra("tampered", t.basis, tables, t.integration))
    assert axioms and all(v.startswith("associativity") for v in axioms)


def test_verify_algebra_flags_every_zero_cell_made_nonzero_on_one_side():
    # each zero product of P1^3 in turn becomes the first basis class of its
    # degree in one table only, the mirror cell left at zero
    t = catalog.get("P1xP1xP1").algebra
    d = t.top_degree
    tampered = 0
    for k1 in range(1, d + 1):
        for k2 in range(1, d + 1 - k1):
            for i in range(t.dim(k1)):
                for j in range(t.dim(k2)):
                    if t.tables[(k1, k2)][i][j] or (k1, i) == (k2, j):
                        continue
                    tables = {k: [list(row) for row in tab]
                              for k, tab in t.tables.items()}
                    tables[(k1, k2)][i][j] = ((0, Fraction(1)),)
                    a = GradedAlgebra("tampered", t.basis, tables, t.integration)
                    axioms = _axiom_violations_agree_with_the_dense_oracle(a)
                    assert any(v.startswith("commutativity") for v in axioms)
                    tampered += 1
    assert tampered >= 10


# Generator search and associativity on a spanning set of pairs. Given the
# unit law and commutativity, the generator pairs and the kept pairs make the
# multiplication operators a commutative algebra that holds every L_y, so a
# clean pair scan means a clean full scan; any violation, a broken unit law
# or broken commutativity reruns the full scan, whose report is returned.

GENERATOR_COUNTS = {
    "example1": (0, 2, 1, 0, 0, 0),
    "example3": (0, 2, 1, 0, 0, 0, 0, 0, 0),
    "Gr-3-8": (0, 1, 1, 1) + (0,) * 12,
    "P2xP2xP2xP2": (0, 4, 0, 0, 0, 0, 0, 0, 0),
}

# pairs per product degree k1 + k2: the kept pairs, dim A^k - |S_k| in
# degree k, with the ordered generator pairs that are not kept
PAIR_COUNTS = {
    "example1": (0, 0, 4, 6, 3, 1),
    "example3": (0, 0, 4, 7, 7, 5, 4, 2, 1),
    "Gr-3-8": (0, 0, 1, 3, 5, 6, 7, 6, 6, 6, 5, 4, 3, 2, 1, 1),
    "P2xP2xP2xP2": (0, 0, 16, 16, 19, 16, 10, 4, 1),
}


@pytest.mark.parametrize("name", sorted(GENERATOR_COUNTS))
def test_generator_counts_are_pinned(name):
    gens, _ = ring._generators(catalog.get(name).algebra)
    assert tuple(map(len, gens)) == GENERATOR_COUNTS[name]


@pytest.mark.parametrize("name", sorted(PAIR_COUNTS))
def test_pair_counts_are_pinned(name):
    a = catalog.get(name).algebra
    gens, pairs = ring._generators(a)
    counts = [0] * (a.top_degree + 1)
    for (k1, k2), ij in pairs.items():
        assert ij == sorted(set(ij))
        counts[k1 + k2] += len(ij)
    assert tuple(counts) == PAIR_COUNTS[name]
    for k1, ss in enumerate(gens):  # every ordered pair of generators
        for k2, ts in enumerate(gens):
            if k1 + k2 <= a.top_degree:
                assert set(itertools.product(ss, ts)) <= set(pairs.get((k1, k2), ()))


@pytest.mark.parametrize("name", sorted(PAIR_COUNTS))
def test_kept_pairs_and_generators_span_every_degree(name):
    # every pair starts with a generator, and the products of the pairs,
    # with the generators themselves, span each degree over Q (rref ranks)
    a = catalog.get(name).algebra
    gens, pairs = ring._generators(a)
    assert all(i in gens[k1] for (k1, _), ij in pairs.items() for i, _ in ij)
    for k in range(1, a.top_degree + 1):
        vecs = [a.basis_element(k, i).coords for i in gens[k]]
        vecs += [multiply(a.basis_element(k1, i), a.basis_element(k2, j)).coords
                 for (k1, k2), ij in pairs.items() if k1 + k2 == k for i, j in ij]
        assert rref(Matrix(len(vecs), a.dim(k), vecs)).rank == a.dim(k), k


@pytest.mark.parametrize("name", sorted(GENERATOR_COUNTS))
def test_generator_monomials_span_every_degree(name):
    # every product of generators (with repeats), multiplied out on the dense
    # tables and ranked by sympy, spans each degree over Q
    sympy = pytest.importorskip("sympy")
    a = catalog.get(name).algebra
    d = a.top_degree
    products = dict(a.products)
    gens = [a.basis_element(k, i)
            for k, idx in enumerate(ring._generators(a)[0]) for i in idx]
    monomials = {(): a.unit()}  # each product extends the one of its prefix
    for r in range(1, d + 1):
        for combo in itertools.combinations_with_replacement(range(len(gens)), r):
            prefix, g = monomials.get(combo[:-1]), gens[combo[-1]]
            if prefix is not None and prefix.degree + g.degree <= d:
                monomials[combo] = dense_multiply(prefix, g, products)
    spans = [[] for _ in range(d + 1)]
    for m in monomials.values():
        spans[m.degree].append(m.coords)
    for k in range(d + 1):
        rows = [[sympy.Rational(c.numerator, c.denominator) for c in v]
                for v in spans[k]]
        assert sympy.Matrix(rows).rank() == a.dim(k), k


def _scans(a):
    """verify_algebra's violations, and each associativity scan it ran as
    (number of pairs checked, violations found)."""
    calls, real = [], ring._associativity

    def spy(a, pairs):
        found = real(a, pairs)
        calls.append((sum(map(len, pairs.values())), found))
        return found

    with mock.patch.object(ring, "_associativity", spy):
        return verify_algebra(a).violations, calls


def test_a_clean_algebra_is_scanned_on_its_generators_only():
    a = catalog.get("Gr-3-8").algebra
    violations, calls = _scans(a)
    assert violations == ()
    assert calls == [(56, [])]  # the 56 pairs of `_generators`, once


def test_a_broken_unit_law_runs_the_full_scan():
    t, tables = _p1xp2_tables()
    tables[(0, 1)][0][0] = tables[(1, 0)][0][0] = ((0, Fraction(2)),)
    a = GradedAlgebra("bad-unit", t.basis, tables, t.integration)
    violations, calls = _scans(a)
    assert violations[0] == "unit law fails on degree 1 basis #0 (h⊗1)"
    assert [n for n, _ in calls] == [sum(map(len, all_pairs(a).values()))]
    assert violations == full_scan_violations(a)
    axioms = [v for v in violations if v.startswith("associativity")]
    assert axioms and axioms == dense_axiom_violations(a)


def test_broken_commutativity_runs_the_full_scan():
    # the operator argument needs commutativity, so a commutativity failure
    # goes straight to the full scan
    t, tables = _p1xp2_tables()
    i = t.basis[1].index("h⊗1")
    j = t.basis[2].index("1⊗h^2")
    tables[(1, 2)][i][j] = ((0, Fraction(-1)),)  # mirror left intact
    a = GradedAlgebra("warped2", t.basis, tables, t.integration)
    violations, calls = _scans(a)
    assert violations[0].startswith("commutativity")
    assert [n for n, _ in calls] == [sum(map(len, all_pairs(a).values()))]
    assert violations == full_scan_violations(a)


def test_a_violation_on_the_generators_reports_the_full_scan():
    # Gr(2,4) with s[1]*s[1,1] := 0 on both sides: the scan on the pairs of
    # S = {s[1], s[2]} finds one of the two broken triples, the full scan both
    t = catalog.get("Gr-2-4").algebra
    tables = {k: [list(row) for row in tab] for k, tab in t.tables.items()}
    tables[(1, 2)][0][1] = tables[(2, 1)][1][0] = ()
    a = GradedAlgebra("warped", t.basis, tables, t.integration)
    assert ring._generators(a) == ([[], [0], [0], [], []], {
        (1, 1): [(0, 0)], (1, 2): [(0, 0)], (1, 3): [(0, 0)],
        (2, 1): [(0, 0)], (2, 2): [(0, 0)]})
    violations, calls = _scans(a)
    (fast_pairs, fast), (full_pairs, full) = calls
    assert (fast_pairs, full_pairs) == (5, 22)
    assert fast == ["associativity fails on degrees (1,1,2) indices (0,0,1)"]
    assert full == fast + ["associativity fails on degrees (2,1,1) indices (1,0,0)"]
    assert violations == full_scan_violations(a)
    assert [v for v in violations if v.startswith("associativity")] == full
    assert full == dense_axiom_violations(a)


def _split_pairs(a):
    """The pairs of `ring._generators` split into those of two generators
    and the rest, each in the same form."""
    gens, pairs = ring._generators(a)
    both = {key: [(i, j) for i, j in ij if i in gens[key[0]] and j in gens[key[1]]]
            for key, ij in pairs.items()}
    rest = {key: [p for p in ij if p not in both[key]] for key, ij in pairs.items()}
    return both, rest


def test_the_generator_pairs_catch_what_the_other_pairs_miss():
    # P1xP2 with (h⊗1)^2 := h⊗h: only the pairs of two generators see it
    t, tables = _p1xp2_tables()
    i = t.basis[1].index("h⊗1")
    tables[(1, 1)][i][i] = ((t.basis[2].index("h⊗h"), Fraction(1)),)
    a = GradedAlgebra("warped", t.basis, tables, t.integration)
    both, rest = _split_pairs(a)
    assert ring._associativity(a, both)
    assert not ring._associativity(a, rest)
    assert full_scan_violations(a)[:2] == (
        "associativity fails on degrees (1,1,1) indices (0,0,1)",
        "associativity fails on degrees (1,1,1) indices (1,0,0)")


def test_the_kept_pairs_catch_what_the_generator_pairs_miss():
    # example3 with (z^1*s[1,1])^2 := 0: the generator pairs alone see no
    # violation, the kept pairs do
    t = catalog.get("example3").algebra
    tables = {k: [list(row) for row in tab] for k, tab in t.tables.items()}
    i = t.basis[3].index("z^1*s[1,1]")
    tables[(3, 3)][i][i] = ()
    a = GradedAlgebra("warped", t.basis, tables, t.integration)
    both, rest = _split_pairs(a)
    assert not ring._associativity(a, both)
    assert ring._associativity(a, rest)
    assert full_scan_violations(a)[:2] == (
        "associativity fails on degrees (1,2,3) indices (0,2,3)",
        "associativity fails on degrees (1,2,3) indices (1,1,3)")


def test_the_written_p1_to_the_8_scans_clean_and_a_mirrored_corruption_in_full(tmp_path):
    # read from its file, P1^8 keeps no factors and is scanned; 32,642 of its
    # 39,203 cells are empty, so most compositions are a zero side
    path = str(tmp_path / "p1-8.alg.json")
    write_algebra(catalog.get("x".join(["P1"] * 8)).algebra, path)
    t = read_algebra(path)
    assert t._factors == () and verify_algebra(t) == ring.CheckReport(())
    cells = [cell for table in t.tables.values() for row in table for cell in row]
    assert (len(cells), sum(not cell for cell in cells)) == (39203, 32642)
    # x_0 x_1 := 2 x_0 x_1 on both sides: a unit cell made a scaled one
    tables = {k: [list(row) for row in tab] for k, tab in t.tables.items()}
    (s, c), = tables[(1, 1)][0][1]
    tables[(1, 1)][0][1] = tables[(1, 1)][1][0] = ((s, 2 * c),)
    a = GradedAlgebra("P1^8-warped", t.basis, tables, t.integration)
    violations = verify_algebra(a).violations
    assert violations == full_scan_violations(a)
    assert len(violations) == 252
    assert violations[0] == "associativity fails on degrees (1,1,1) indices (0,1,2)"
    assert violations[-1] == "associativity fails on degrees (6,1,1) indices (27,1,0)"


# A product with its factors' product integration is verified from its
# factors. The reference is the scan of the same tables in an algebra that
# keeps no factors (`unfactored`); a failing factor sends the product to that
# scan, and an algebra the constructor makes on a product's tables, under any
# integration, is scanned too.

# every catalog product and the products of test_lefschetz's real inputs
_PRODUCTS = [n for n in catalog.names() if not catalog._is_factor(n)] + [
    "P2xP2xP2xP2", "Gr-2-5xGr-2-5xP1", "x".join(["P1"] * 8), "example2xP1xP1",
    "example3xP1xP1xP1xP1", "example1xexample3"]


def _scanned(monkeypatch) -> list:
    """The algebras whose associativity `verify_algebra` scans from now on."""
    scanned, real = [], ring._associativity
    monkeypatch.setattr(ring, "_associativity",
                        lambda a, pairs: scanned.append(a) or real(a, pairs))
    return scanned


def _fold_unbuilt(tables) -> bool:
    """Whether no table of a product, nor of a step of its fold, is built."""
    while type(tables) is ring._Kronecker:
        if _built(tables):
            return False
        tables = tables._source[0]
    return True


@pytest.mark.parametrize("name", _PRODUCTS)
def test_a_product_is_verified_from_its_factors_as_its_scan_reports(name, monkeypatch):
    factors = catalog.get(name).algebra._factors
    t = tensor_product(*factors)  # the catalog's product, no table read yet
    scanned = _scanned(monkeypatch)
    report = verify_algebra(t)
    # each distinct factor is scanned once, in argument order, and the product not
    assert list(map(id, scanned)) == list(dict.fromkeys(map(id, factors)))
    assert report == ring.CheckReport(()) and _fold_unbuilt(t.tables)
    assert verify_algebra(unfactored(t)) == report


def test_a_product_of_products_is_verified_through_its_factors_factors(monkeypatch):
    p1, example2 = projective_space(1), catalog.get("example2").algebra
    inner = tensor_product(example2, p1)
    outer = tensor_product(inner, p1, inner)
    scanned = _scanned(monkeypatch)
    assert verify_algebra(outer).ok
    assert list(map(id, scanned)) == [id(example2), id(p1), id(p1)]  # inner once, then p1
    assert _fold_unbuilt(outer.tables) and _built(inner.tables) == set()


def _p1xp2_with_x_squared_xy() -> GradedAlgebra:
    """P1xP2 with x*x := x*y (x = h⊗1, y = 1⊗h): commutative, its pairing
    tables untouched and nondegenerate, but not associative."""
    t, tables = _p1xp2_tables()
    i = t.basis[1].index("h⊗1")
    tables[(1, 1)][i][i] = ((t.basis[2].index("h⊗h"), 1),)
    return GradedAlgebra("P1xP2-warped", t.basis, tables, t.integration)


def test_a_non_associative_factor_sends_the_product_to_the_full_scan(tmp_path, capsys,
                                                                       monkeypatch):
    warped = _p1xp2_with_x_squared_xy()
    build = tmp_path / "p1xwarped.build.json"
    build.write_text(json.dumps(
        {"product": [{"P": 1}, {"algebra": algebra_payload_v1(warped)}]}))
    # `lefalg verify` reads catalog names and .alg.json files, so the build
    # file's product is handed to it in process, and its written file after
    t = evaluate(parse_build_file(build.read_text()))
    assert len(t._factors) == 2 and _built(t.tables) == set()
    out = str(tmp_path / "p1xwarped.alg.json")
    assert cli.run(["build", str(build), "-o", out]) == 0
    capsys.readouterr()
    scanned = _scanned(monkeypatch)
    outputs = []
    for a in (t, read_algebra(out)):  # the product from its factors, then its file
        with mock.patch.object(cli, "read_algebra", lambda ref: a):
            assert cli.run(["verify", "product.alg.json"]) == 1
        outputs.append(capsys.readouterr().out)
    # P1 is clean; the warped factor fails its generator pairs and is scanned
    # in full, so the product is scanned as its file is: pairs, then in full
    assert [x.name for x in scanned] == ["P1", *["P1xP2-warped"] * 2, *[t.name] * 4]
    assert scanned[3] is scanned[4] is t
    violations = full_scan_violations(t)
    assert violations and all(v.startswith("associativity") for v in violations)
    assert outputs[0] == outputs[1] == "".join(v + "\n" for v in violations)


@pytest.mark.parametrize("integration", [[0], [2], [-1]])
def test_product_tables_under_another_integration_are_scanned(integration, monkeypatch):
    t = tensor_product(projective_space(1), projective_space(2))
    a = GradedAlgebra("other", t.basis, t.tables, integration)
    assert t._factors and a._factors == ()
    scanned = _scanned(monkeypatch)
    report = verify_algebra(a)
    assert len(scanned) == 1 and scanned[0] is a  # scanned, not verified from the factors
    assert report == verify_algebra(unfactored(a))
    assert report.violations == (() if integration[0] else (
        "integration functional is identically zero",
        *(f"pairing at degree {k} is singular (rank 0 of {n})"
          for k, n in enumerate(t.dims))))
