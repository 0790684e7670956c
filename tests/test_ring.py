"""Graded algebra core: construction, products, integration, maps, tensor."""

import itertools
import json
import random
import re
from fractions import Fraction
from unittest import mock

import pytest

from _oracles import (algebra_payload_v1, all_pairs, assert_dense_kronecker,
                      dense_axiom_violations, dense_multiply,
                      full_scan_violations, identity, relabeled, rescaled)
from lefalg import catalog, cli, ring
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
                  lambda: h * 0.5, lambda: True * h):
        with pytest.raises(TypeError):
            scale()
    assert (2 * h).coords == (h * 2).coords == (Fraction(2),)
    assert (h * Fraction(1, 3)).coords == (Fraction(1, 3),)


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
    # restriction h -> h: matrices are identity in shared degrees
    mats = [identity(1), identity(1)]
    f = RingMap(p3, p1, mats)
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
    f = RingMap(p1, p2, [identity(1), identity(1)])
    rep = verify_ring_map(f)
    assert not rep.ok


def test_ring_map_shape_validation():
    p3, p1 = projective_space(3), projective_space(1)
    with pytest.raises(ValueError):
        RingMap(p3, p1, [identity(1)])  # missing degree 1
    with pytest.raises(ValueError):
        RingMap(p3, p1, [identity(1), identity(2)])


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
    ints = catalog.get("P1xP2").algebra
    assert ints._ints
    assert all(ring._int_table(ints, *key) is table for key, table in ints.tables.items())
    half = algebra_from_payload(_P2_HALF, require_checksum=False)
    path = tmp_path / "half.alg.json"
    write_algebra(half, str(path))
    for a in (half, read_algebra(str(path)), tensor_product(half, projective_space(1))):
        assert not a._ints
        # each read is a scaled copy, also of a table that holds only ints
        for key, table in a.tables.items():
            copy = ring._int_table(a, *key)
            assert copy is not table
            assert all(type(c) is int for row in copy for cell in row for _, c in cell)
    assert ring._int_table(half, 1, 1) == [[[(0, 1)]]]
    assert ring._int_table(half, 0, 2) == [[[(0, 1)]]]


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
    assert not twice._ints and not half._ints
    for a, b in ((p1, twice), (twice, p1), (p1, half)):
        t = tensor_product(a, b)
        _assert_sparse_and_shared(t)
        assert_dense_kronecker(a, b, t)
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
