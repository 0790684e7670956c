"""Constructors: truncated rings, series, pushforward, blowups, bundles."""

import gc
import itertools
import json
import random
import re
from fractions import Fraction

import pytest

from _oracles import (adjoint_pushforward_by_pairing_matrix, assert_ints_measured,
                      payload_checksum, sympy_basis)
from lefalg import buildfile, catalog, constructors, linalg, schubert
from lefalg.buildfile import evaluate, parse_build_file
from lefalg.catalog import (_monomial_pullback, build_example1,
                            build_example2, build_example3, cxp1_even, get)
from lefalg.constructors import (BlowupInput, adjoint_pushforward, blowup,
                                 chern_series_inverse, monomial_exponents,
                                 projective_bundle, projective_space, series,
                                 series_product, truncated_polynomial_algebra)
from lefalg.lefschetz import (check_hard_lefschetz, check_poincare_duality,
                              check_symmetry, lefschetz_subalgebra,
                              primitive_dims)
from lefalg.ring import (Element, GradedAlgebra, RingMap, _degree_one_sum,
                         build_product_tables, integrate, multiply,
                         render_element, tensor_product, verify_algebra,
                         verify_ring_map)
from lefalg.schubert import partitions_in_box
from lefalg.serialize import algebra_payload, read_algebra, write_algebra


# ---------------------------------------------------------------- rings


def test_truncated_polynomial_algebra_labels():
    z = truncated_polynomial_algebra("T", [("a", 1), ("b", 1)])
    assert z.dims == (1, 2, 1)
    assert z.basis[1] == ("a", "b")
    assert z.basis[2] == ("ab",)
    assert integrate(z.by_label("a") * z.by_label("b")) == 1
    assert (z.by_label("a") ** 2).is_zero
    assert verify_algebra(z).ok


def test_truncated_polynomial_algebra_exponent_labels():
    z = truncated_polynomial_algebra("T2", [("y1", 3), ("y2", 3)])
    assert z.dims == (1, 2, 3, 4, 3, 2, 1)
    assert z.basis[2] == ("y1^2", "y1y2", "y2^2")
    assert z.basis[4] == ("y1^3y2", "y1^2y2^2", "y1y2^3")
    assert verify_algebra(z).ok


def test_projective_space():
    p = projective_space(4)
    assert p.dims == (1,) * 5
    assert p.name == "P4"
    assert integrate(p.by_label("h") ** 4) == 1
    assert projective_space(0).dims == (1,)
    with pytest.raises(ValueError):
        projective_space(-1)


def test_bools_are_no_counts():
    # True == 1, but P1 must not come back as an algebra named "PTrue"
    with pytest.raises(ValueError):
        projective_space(True)
    with pytest.raises(ValueError):
        truncated_polynomial_algebra("T", [("a", 1), ("b", True)])


# ---------------------------------------------------------------- series


def test_series_normalization():
    z = cxp1_even()
    a = z.by_label("a")
    terms = series(z, [z.unit(), 2 * a])
    assert len(terms) == z.top_degree + 1
    assert terms[2].is_zero


def test_series_product_is_graded_convolution():
    z = cxp1_even()
    a, b = z.by_label("a"), z.by_label("b")
    u = series(z, [z.unit(), a + b])
    v = series(z, [z.unit(), a - b])
    w = series_product(u, v)
    assert w[0] == z.unit()
    assert w[1] == 2 * a
    assert w[2] == multiply(a + b, a - b)


def test_chern_series_inverse_pinned_division():
    # (1 + 6a + 18b + 90ab) / (1 + 2a) = 1 + 4a + 18b + 54ab
    z = cxp1_even()
    a, b, ab = z.by_label("a"), z.by_label("b"), z.by_label("ab")
    u = series(z, [z.unit(), 6 * a + 18 * b, 90 * ab])
    v = series(z, [z.unit(), 2 * a])
    q = series_product(u, chern_series_inverse(z, v))
    assert q[0] == z.unit()
    assert q[1] == 4 * a + 18 * b
    assert q[2] == 54 * ab


def test_chern_series_inverse_multiplies_back():
    z = truncated_polynomial_algebra("T2", [("y1", 3), ("y2", 3)])
    y1, y2 = z.by_label("y1"), z.by_label("y2")
    u = series(z, [z.unit(), 3 * y1 - y2, multiply(y1, y2),
                   multiply(y1, multiply(y1, y2))])
    inv = chern_series_inverse(z, u)
    back = series_product(u, inv)
    assert back[0] == z.unit()
    assert all(t.is_zero for t in back[1:])


def test_chern_series_inverse_requires_unit_head():
    z = cxp1_even()
    with pytest.raises(ValueError):
        chern_series_inverse(z, series(z, [2 * z.unit()]))


# ------------------------------------------------------- adjoint pushforward


def _class(a: GradedAlgebra, k: int, cell) -> Element:
    """The degree-k class of a whose coordinates the cell lists."""
    return a.element(k, [dict(cell).get(t, 0) for t in range(a.dim(k))])


def test_adjoint_pushforward_pinned_values():
    y = projective_space(5, var="c")
    z = cxp1_even()
    a, b = z.by_label("a"), z.by_label("b")
    pull = _monomial_pullback(y, [5], z, [a + 3 * b])
    push = adjoint_pushforward(pull, 3)
    cases = [("1", "6*c^3"), ("a", "3*c^4"), ("b", "c^4"), ("ab", "c^5")]
    for label, expected in cases:
        k, t = z.label_location(label)
        assert render_element(_class(y, k + 3, push[k][t])) == expected


def test_adjoint_pushforward_projection_formula():
    # <push(w), y> = <w, pull(y)> for all basis classes
    y = projective_space(5, var="c")
    z = cxp1_even()
    pull = _monomial_pullback(y, [5], z,
                              [z.by_label("a") + 3 * z.by_label("b")])
    push = adjoint_pushforward(pull, 3)
    for k in range(z.top_degree + 1):
        comp = y.top_degree - k - 3
        for i in range(z.dim(k)):
            w = z.basis_element(k, i)
            fw = _class(y, k + 3, push[k][i])
            for j in range(y.dim(comp)):
                u = y.basis_element(comp, j)
                lhs = integrate(multiply(fw, u))
                rhs = integrate(multiply(w, pull(u)))
                assert lhs == rhs


def test_adjoint_pushforward_matches_the_pairing_matrix_oracle():
    # the entries of [G^T | R] are integrals of the stored cells: with P3's
    # integral of h^3 = 1/2 they are Fractions, and h -> z/3 makes iota_*(1) = 2/3 h^2;
    # a center whose integral of z is 2 doubles R
    p3, p1 = projective_space(3), projective_space(1)
    half = GradedAlgebra("P3-half", p3.basis, p3.tables, [Fraction(1, 2)])
    two = GradedAlgebra("P1-two", p1.basis, p1.tables, [2])
    cases = [(RingMap(half, z, [[((0, 1),)], [((0, c),)]]), 2)
             for z in (p1, two) for c in (1, 3, Fraction(1, 3))]
    z = cxp1_even()
    cases.append((_monomial_pullback(projective_space(5, var="c"), [5], z,
                                     [z.by_label("a") + 3 * z.by_label("b")]), 3))
    y = truncated_polynomial_algebra("P3xP3", [("y1", 3), ("y2", 3)])
    z = truncated_polynomial_algebra("(P1)^3", [("z1", 1), ("z2", 1), ("z3", 1)])
    z1, z2, z3 = (z.by_label(label) for label in ("z1", "z2", "z3"))
    cases.append((_monomial_pullback(y, [3, 3], z, [z1 + z2, z2 + z3]), 3))
    for pull, r in cases:
        push = adjoint_pushforward(pull, r)
        expected = adjoint_pushforward_by_pairing_matrix(pull, r)
        assert push == expected
        assert [type(c) for cells in push for cell in cells for _, c in cell] == \
            [type(c) for cells in expected for cell in cells for _, c in cell]
    assert adjoint_pushforward(cases[2][0], 2) == [[((0, Fraction(2, 3)),)], [((0, 2),)]]
    assert adjoint_pushforward(cases[5][0], 2) == [[((0, Fraction(4, 3)),)], [((0, 4),)]]


def _algebra(basis, products, integration):
    """Products by the unit, plus the given ones keyed (k1, i, k2, j) with
    k1 <= k2; every other product is zero, so the pairing may be any shape."""
    def mult(k1, i, k2, j):
        if k1 == 0:
            return ((j, Fraction(1)),)
        return products.get((k1, i, k2, j), ())
    return GradedAlgebra("T", basis, build_product_tables(basis, mult),
                         integration)


def test_adjoint_pushforward_rejects_an_inconsistent_codimension():
    pull = line_in_p3().pullback
    for r in (0, 1, 3):
        with pytest.raises(ValueError, match="codimension mismatch"):
            adjoint_pushforward(pull, r)


def test_adjoint_pushforward_rejects_a_degenerate_pairing():
    p2 = projective_space(2)
    flat = GradedAlgebra("P2-flat", p2.basis, p2.tables, [0])
    point = projective_space(0)
    pull = RingMap(flat, point, [[((0, 1),)]])
    with pytest.raises(ValueError,
                       match="ambient pairing is degenerate in degree 2"):
        adjoint_pushforward(pull, 2)
    # blowup checks its ambient before it pushes forward, as every constructor does
    with pytest.raises(ValueError, match="^ambient P2-flat: integration functional "
                                         "is identically zero$"):
        blowup(BlowupInput(flat, point, pull, 2, (point.zero(1),
                                                  point.zero(2))))


def test_blowup_rejects_an_ambient_pairing_the_pushforward_cannot_see():
    # every product of positive degree is zero, so the pairing of degrees 1
    # and 2 is singular; with r = 3 the pushforward reads only the pairing
    # of degree 3 against degree 0, which is fine
    y = _algebra([["1"], ["h"], ["q"], ["p"]], {}, [1])
    point = projective_space(0)
    pull = RingMap(y, point, [[((0, 1),)]])
    assert adjoint_pushforward(pull, 3) == [[((0, 1),)]]
    with pytest.raises(ValueError, match=r"^ambient T: pairing at degree 1 "
                                         r"is singular \(rank 0 of 1\)$"):
        blowup(BlowupInput(y, point, pull, 3,
                           (point.zero(1), point.zero(2), point.zero(3))))


def _noncommutative(integration) -> GradedAlgebra:
    """Basis 1; x, y; xy with x*y = xy but y*x = 2xy: its tables are not commutative."""
    unit = ((0, 1),)
    return GradedAlgebra("Q", [["1"], ["x", "y"], ["xy"]], {
        (0, 0): [[unit]], (0, 1): [[unit, ((1, 1),)]], (1, 0): [[unit], [((1, 1),)]],
        (0, 2): [[unit]], (2, 0): [[unit]], (1, 1): [[(), unit], [((0, 2),), ()]]},
        integration)


def test_a_non_commutative_input_is_refused_with_its_first_commutativity_line():
    line = "commutativity fails at degrees (1,1) indices (0,1)"
    point, p1 = projective_space(0), projective_space(1)
    for integration in ([1], [0]):  # before any pairing line
        q = _noncommutative(integration)
        assert verify_algebra(q).violations[0] == line
        builds = {"factor": lambda: tensor_product(p1, q),
                  "base": lambda: projective_bundle(q, [q.unit(), q.zero(1), q.zero(2)]),
                  "ambient": lambda: blowup(BlowupInput(
                      q, point, RingMap(q, point, [[((0, 1),)]]), 2,
                      [point.zero(1), point.zero(2)]))}
        for what, build in builds.items():
            with pytest.raises(ValueError) as e:
                build()
            assert str(e.value) == f"{what} Q: {line}"


def test_a_blowup_refuses_a_non_commutative_ambient_before_any_rref(monkeypatch):
    # P2 with the cell h^2 * 1 emptied: its unit column differs from its unit row,
    # so the pushforward would find the pairing degenerate; the ambient is checked
    # first, and refused with the line tensor_product gives
    p2, point = projective_space(2), projective_space(0)
    tables = {k: [list(row) for row in table] for k, table in p2.tables.items()}
    tables[2, 0][0][0] = ()
    skew = GradedAlgebra("skew", p2.basis, tables, p2.integration)
    line = "commutativity fails at degrees (0,2) indices (0,0)"
    assert verify_algebra(skew).violations[0] == line
    with pytest.raises(ValueError) as e:
        tensor_product(skew, projective_space(1))
    assert str(e.value) == f"factor skew: {line}"
    calls = []
    monkeypatch.setattr(constructors, "rref", lambda m: calls.append(m) or linalg.rref(m))
    with pytest.raises(ValueError) as e:
        blowup(BlowupInput(skew, point, RingMap(skew, point, [[((0, 1),)]]), 2,
                           (point.zero(1), point.zero(2))))
    assert str(e.value) == f"ambient skew: {line}" and calls == []


def test_adjoint_pushforward_rejects_a_non_square_pairing():
    # Gram matrices 1x2 (rank 1, so only the shape shows it) and 2x1
    one = ((0, Fraction(1)),)
    wide = _algebra([["1"], ["h"], ["p", "q"], ["t"]], {(1, 0, 2, 0): one}, [1])
    wide_pull = RingMap(wide, projective_space(2),
                        [[((0, 1),)], [((0, 1),)], [((0, 1),), ()]])
    tall = _algebra([["1"], ["a", "b"]], {}, [1, 0])
    tall_pull = RingMap(tall, projective_space(0), [[((0, 1),)]])
    for pull in (wide_pull, tall_pull):
        with pytest.raises(ValueError,
                           match="ambient pairing is degenerate in degree 1"):
            adjoint_pushforward(pull, 1)


# ---------------------------------------------------------------- blowups


def line_in_p3():
    y = projective_space(3)
    z = projective_space(1, var="z", name="line")
    pull = _monomial_pullback(y, [3], z, [z.by_label("z")])
    # N = O(1) + O(1), so c_1 = 2z and c_2 = z^2 = 0 (above the center's top)
    return BlowupInput(y, z, pull, 2, (2 * z.by_label("z"), z.zero(2)))


def test_blowup_of_p3_along_line():
    x = blowup(line_in_p3())
    assert x.dims == (1, 2, 2, 1)
    assert verify_algebra(x).ok
    e = x.by_label("e^1*1")
    assert integrate(e ** 3) == 2


def test_blowup_sign_convention_flips_odd_e_powers():
    data = line_in_p3()
    plus = blowup(data, sign=1)
    minus = blowup(data, sign=-1)
    ep = plus.by_label("e^1*1")
    em = minus.by_label("e^1*1")
    assert integrate(ep ** 3) == -integrate(em ** 3) == 2
    assert verify_algebra(minus).ok


def test_blowup_betti_additivity():
    data = line_in_p3()
    x = blowup(data)
    y, z, r = data.y, data.z, data.codim
    for k in range(x.top_degree + 1):
        extra = sum(z.dim(k - i) for i in range(1, r))
        assert x.dim(k) == y.dim(k) + extra


def test_example1_exceptional_cube():
    x = get("example1").algebra
    e = x.by_label("e^1*1")
    e3 = e ** 3
    assert x.basis[3] == ("c^3", "e^1*ab", "e^2*a", "e^2*b")
    assert e3.coords == (Fraction(-6), Fraction(-54), Fraction(4),
                         Fraction(18))
    assert render_element(e3) == "-6*c^3 - 54*e^1*ab + 4*e^2*a + 18*e^2*b"


def test_example1_e3_outside_pullback_e_span():
    pytest.importorskip("sympy")
    x = get("example1").algebra
    c = x.by_label("c")
    e = x.by_label("e^1*1")
    c3 = (c ** 3).coords
    c2e = (c * c * e).coords
    ce2 = (c * e * e).coords
    e3 = (e ** 3).coords
    assert len(sympy_basis([c3, c2e, ce2], x.dim(3))) == 3
    assert len(sympy_basis([c3, c2e, ce2, e3], x.dim(3))) == 4


def test_example1_top_e_power_integral():
    x = get("example1").algebra
    e = x.by_label("e^1*1")
    assert integrate(e ** 5) == -90


def test_blowup_e_top_integral_matches_segre_class():
    """With this sign convention, integrating e^n over the blowup equals
    (-1)^n times the integral of the top Segre class of the normal bundle
    over the center (n = ambient top degree). Two independent code paths:
    e-power reduction vs series inversion."""
    fixtures = []
    fixtures.append(line_in_p3())
    x1 = get("example1")
    from lefalg.catalog import build_example1  # rebuild to get the input data
    y = projective_space(5, var="c")
    z = cxp1_even()
    a, b = z.by_label("a"), z.by_label("b")
    pull = _monomial_pullback(y, [5], z, [a + 3 * b])
    fixtures.append(BlowupInput(y, z, pull, 3,
                                (4 * a + 18 * b, 54 * multiply(a, b),
                                 z.zero(3))))
    for data in fixtures:
        x = blowup(data)
        n = data.y.top_degree
        e = x.by_label("e^1*1")
        total = [data.z.unit()] + [c for c in data.chern_n
                                   if c.degree <= data.z.top_degree]
        segre = chern_series_inverse(data.z, series(data.z, total))
        expected = (-1) ** n * integrate(segre[data.z.top_degree])
        assert integrate(e ** n) == expected


def test_blowup_rejects_divisors():
    y = projective_space(2)
    z = projective_space(1, var="z", name="divisor")
    pull = _monomial_pullback(y, [2], z, [z.by_label("z")])
    with pytest.raises(ValueError, match="codimension"):
        blowup(BlowupInput(y, z, pull, 1, ()))


def test_blowup_rejects_inconsistent_codimension():
    data = line_in_p3()
    with pytest.raises(ValueError):
        blowup(BlowupInput(data.y, data.z, data.pullback, 3,
                           data.chern_n + (data.z.zero(3),)))


def test_blowup_rejects_wrong_chern_count():
    data = line_in_p3()
    with pytest.raises(ValueError):
        blowup(BlowupInput(data.y, data.z, data.pullback, 2,
                           data.chern_n[:1]))


def test_blowup_rejects_non_ring_map_pullback():
    # the degree-2 image contradicts the square of the degree-1 image:
    # c maps to a+3b but c^2 maps to 0 instead of (a+3b)^2 = 6ab
    y = projective_space(5, var="c")
    z = cxp1_even()
    a, b = z.by_label("a"), z.by_label("b")
    bad = RingMap(y, z, [[((0, 1),)], [((0, 1), (1, 3))], [()]])
    with pytest.raises(ValueError):
        blowup(BlowupInput(y, z, bad, 3,
                           (4 * a + 18 * b, 54 * multiply(a, b), z.zero(3))))


def test_blowup_rejects_wrong_self_intersection():
    # tamper with the top Chern class so it contradicts pull(push(1))
    z = truncated_polynomial_algebra("ctr", [("z1", 1), ("z2", 1), ("z3", 1)])
    z1, z2, z3 = (z.by_label(t) for t in ("z1", "z2", "z3"))
    y = truncated_polynomial_algebra("amb", [("y1", 3), ("y2", 3)])
    pull = _monomial_pullback(y, [3, 3], z, [z1 + z2, z2 + z3])
    c1 = 2 * z1 + 6 * z2 + 2 * z3
    c2 = 8 * multiply(z1, z2) + 4 * multiply(z1, z3) + 8 * multiply(z2, z3)
    bad_c3 = 7 * multiply(z1, multiply(z2, z3))
    with pytest.raises(ValueError, match="self-intersection"):
        blowup(BlowupInput(y, z, pull, 3, (c1, c2, bad_c3)))


def test_blowup_rejects_a_sign_other_than_plus_or_minus_one():
    with pytest.raises(ValueError, match="sign must be"):
        blowup(line_in_p3(), sign=0)


def test_blowup_rejects_a_pullback_from_another_ambient():
    data = line_in_p3()
    # an equal algebra is not enough: the pullback must start at data.y
    other = projective_space(3)
    assert other == data.y and other is not data.y
    with pytest.raises(ValueError, match="pullback must map the ambient"):
        blowup(data._replace(y=other))


@pytest.mark.parametrize("build", [
    lambda sign: blowup(line_in_p3(), sign=sign), build_example1,
    build_example2], ids=["line-in-P3", "example1", "example2"])
def test_blowup_signs_give_isomorphic_rings(build):
    # sign=-1 replaces e by -e: its class e^i*w is (-1)^i times the sign=+1
    # class, so each structure constant picks up the signs of its 3 classes
    plus, minus = build(sign=1), build(sign=-1)
    assert minus.basis == plus.basis
    assert minus.integration == plus.integration
    flip = [[(-1) ** int(lbl[2:lbl.index("*")]) if lbl.startswith("e^") else 1
             for lbl in labels] for labels in plus.basis]
    for (k1, k2), table in plus.tables.items():
        for i, row in enumerate(table):
            for j, cell in enumerate(row):
                f = flip[k1][i] * flip[k2][j]
                assert minus.tables[(k1, k2)][i][j] == tuple(
                    (t, f * flip[k1 + k2][t] * c) for t, c in cell)


def point_in_p1xp1():
    y = get("P1xP1").algebra
    z = projective_space(0)
    return BlowupInput(y, z, RingMap(y, z, [[((0, 1),)]]), 2,
                       (z.zero(1), z.zero(2)))


def _sign_flip(plus: GradedAlgebra, minus: GradedAlgebra) -> RingMap:
    """The diagonal map sending each class e^i*w to (-1)^i e^i*w."""
    images = []
    for labels in plus.basis:
        signs = [(-1) ** int(lbl[2:lbl.index("*")]) if lbl.startswith("e^")
                 else 1 for lbl in labels]
        images.append([((i, c),) for i, c in enumerate(signs)])
    return RingMap(plus, minus, images)


@pytest.mark.parametrize("build, identity_ok", [
    (build_example1, False), (build_example2, False),
    # the e-class of a point blown up in a surface has degree 1, and every
    # product with an odd number of e-factors vanishes, so the two sign
    # builds are the same ring and the identity is a ring map as well
    (lambda sign: blowup(point_in_p1xp1(), sign=sign), True)],
    ids=["example1", "example2", "Bl(P1xP1, P0)"])
def test_the_sign_builds_are_isomorphic_by_flipping_e(build, identity_ok):
    plus, minus = build(sign=1), build(sign=-1)
    assert verify_ring_map(_sign_flip(plus, minus)).ok
    same = RingMap(plus, minus, [[((i, 1),) for i in range(n)] for n in plus.dims])
    assert verify_ring_map(same).ok == identity_ok
    assert (plus.tables == minus.tables) == identity_ok


def _from_file(doc: dict):
    return lambda: evaluate(parse_build_file(json.dumps(doc)))


# sha256 of the canonical payload JSON of each build, taken from the
# constructors that reduced Elements coordinate by coordinate: the tables
# built from cells must match theirs cell for cell.
PINNED_BUILDS = {
    "example1": (
        lambda: build_example1(1),
        "08df786d7225492241da8852cd01b2621648d75b16bb42afbfd41cc48e62ab3b"),
    "example1-minus": (
        lambda: build_example1(-1),
        "1342f32c3eb966d35b0bd5f0444a4ea6e779249932a66c60a9ec7c3b1d348c8a"),
    "example2": (
        lambda: build_example2(1),
        "e46e92a53c9f44d14b2045d227b22a5ed58a5a36f453cc47f7ae9136756420e5"),
    "example2-minus": (
        lambda: build_example2(-1),
        "87f8bcdf50eb4e57e098b4000c371b55a0fac442f275f4fa354d8cb375342249"),
    "example3": (
        build_example3,
        "f7d2fab5633ed31bbf023547c341fbba22ff3503575bf01e07fa9402a1b6388f"),
    "Bl(P5, CxP1-even)": (_from_file({"blowup": {
        "Y": {"P": 5}, "Z": {"catalog": "CxP1-even"},
        "pullback": [[[1]], [[1], [3]], [[6]]], "chern_N": [[4, 18], [54], []]}}),
        "72561ffeaea42e289cdc13d321f2246d2a67bce1982ebc34235ab61768147551"),
    "Bl(P1xP1, P0)": (_from_file({"blowup": {
        "Y": {"product": [{"P": 1}, {"P": 1}]}, "Z": {"P": 0},
        "pullback": [[["1"]]], "chern_N": [[], []]}}),
        "7d186d2e2f890c050341eb2bf9d245e584cacf07c91b1ac579fd27e983fdd484"),
    # h pulls back to z/2, so iota_*(1) = h^2/2: image and pushforward cells
    # with a Fraction coefficient
    "Bl(P3, P1) with h -> z/2": (_from_file({"blowup": {
        "Y": {"P": 3}, "Z": {"P": 1}, "pullback": [[["1"]], [["1/2"]]],
        "chern_N": [["2"], []]}}),
        "043d902b701d525d8a1ff21db66e0122713caeb430704989c68e2e20253bfd82"),
    # c(S* + O(1)) = 1 + 2s[1] + (s[2] + 2s[1,1]) + s[2,1] on Gr(2,4)
    "ProjBundle(Gr-2-4,3)": (_from_file({"proj_bundle": {
        "Y": {"Gr": [2, 4]}, "chern": [["1"], ["2"], ["1", "2"], ["1"]]}}),
        "9ac4912c1da9b5726646791953af5cd40a75224412cb087e49c4b7dce663944d"),
}


@pytest.mark.parametrize("name", list(PINNED_BUILDS))
def test_built_tables_are_pinned_by_digest(name):
    build, digest = PINNED_BUILDS[name]
    assert payload_checksum(algebra_payload(build())) == digest


@pytest.mark.parametrize("name", list(PINNED_BUILDS))
def test_built_tables_read_in_any_order_are_pinned_by_digest(name):
    # each pair is built on its first read, which may be either orientation
    build, digest = PINNED_BUILDS[name]
    a = build()
    keys = list(a.tables)
    random.Random(name).shuffle(keys)
    for key in keys:
        a.tables[key]
    assert payload_checksum(algebra_payload(a)) == digest


def test_example2_normal_bundle_by_series_division():
    """c(N) = i^*c(T_Y) / c(T_Z) recomputed from scratch here."""
    z = truncated_polynomial_algebra("ctr", [("z1", 1), ("z2", 1), ("z3", 1)])
    z1, z2, z3 = (z.by_label(t) for t in ("z1", "z2", "z3"))

    def power4(t):
        one_plus = series(z, [z.unit(), t])
        out = one_plus
        for _ in range(3):
            out = series_product(out, one_plus)
        return out

    tangent_y = series_product(power4(z1 + z2), power4(z2 + z3))
    tangent_z = series_product(
        series_product(series(z, [z.unit(), 2 * z1]),
                       series(z, [z.unit(), 2 * z2])),
        series(z, [z.unit(), 2 * z3]))
    cn = series_product(tangent_y, chern_series_inverse(z, tangent_z))
    assert cn[1] == 2 * z1 + 6 * z2 + 2 * z3
    assert render_element(cn[2]) == "8*z1z2 + 4*z1z3 + 8*z2z3"
    assert render_element(cn[3]) == "8*z1z2z3"


def test_example2_shape_and_center_class():
    x = get("example2").algebra
    assert x.dims == (1, 3, 7, 10, 7, 3, 1)
    assert verify_algebra(x).ok


# ---------------------------------------------------------------- bundles


def test_trivial_projective_bundle_is_a_product():
    p1 = projective_space(1)
    triv = projective_bundle(p1, [p1.unit(), p1.zero(1), p1.zero(2)])
    assert triv.dims == (1, 2, 1)
    zeta = triv.by_label("z^1*1")
    assert (zeta * zeta).is_zero
    assert integrate(zeta * triv.by_label("h")) == 1
    assert verify_algebra(triv).ok


def test_rank_one_bundle_is_isomorphic_to_base():
    p2 = projective_space(2)
    line = projective_bundle(p2, [p2.unit(), p2.by_label("h")])
    assert line.dims == p2.dims
    assert verify_algebra(line).ok


def test_projective_bundle_validates_chern_degrees():
    p2 = projective_space(2)
    with pytest.raises(ValueError):
        projective_bundle(p2, [p2.unit()])  # needs rank >= 1, s+1 >= 2
    with pytest.raises(ValueError):
        projective_bundle(p2, [p2.unit(), p2.by_label("h^2")])
    with pytest.raises(ValueError):
        projective_bundle(p2, [2 * p2.unit(), p2.by_label("h")])


def test_every_class_argument_is_checked_alike():
    # a class of the wrong algebra or degree is refused by one check, whose
    # message names the argument
    p2, line = projective_space(2), line_in_p3()
    lef = lefschetz_subalgebra(p2)
    cases = [
        (p2, "generators", lambda x: lefschetz_subalgebra(p2, [x])),
        (p2, "omega", lambda x: check_hard_lefschetz(lef, x)),
        (p2, "series entry 1", lambda x: series(p2, [p2.unit(), x])),
        (p2, "c_1", lambda x: projective_bundle(p2, [p2.unit(), x])),
        (line.z, "c_1(N)",
         lambda x: blowup(line._replace(chern_n=(x, line.z.zero(2))))),
    ]
    for a, what, call in cases:
        with pytest.raises(ValueError, match=re.escape(
                f"{what} must be homogeneous of degree 1")):
            call(a.unit())
        with pytest.raises(ValueError, match=re.escape(
                f"{what} must be an element of {a.name}")):
            call(projective_space(3).by_label("h"))


def test_example3_bundle_relation():
    x = get("example3").algebra
    zeta = x.by_label("z^1*1")
    assert render_element(zeta ** 4) == "s[3,1] + z^1*s[2,1] + z^2*s[1,1]"
    s1 = x.by_label("s[1]")
    assert render_element(s1 * s1 * zeta ** 4) == \
        "s[3,3] + 2*z^1*s[3,2] + z^2*s[3,1] + z^2*s[2,2]"


def test_example3_shape():
    x = get("example3").algebra
    assert x.dims == (1, 2, 4, 5, 6, 5, 4, 2, 1)
    assert x.dim(2) == 4 and x.dim(6) == 4
    assert verify_algebra(x).ok


def test_projective_bundle_betti_numbers():
    # P(E) adds s copies of the base cohomology, shifted
    g = get("Gr-2-5").algebra
    x = get("example3").algebra
    for k in range(x.top_degree + 1):
        assert x.dim(k) == sum(g.dim(k - i) for i in range(3))


# ---------------------------------------------------------------- garbage


def test_enumerators_match_an_itertools_reference():
    for n in range(4):
        for caps in itertools.product(range(3), repeat=n):
            grid = list(itertools.product(*(range(c + 1) for c in caps)))
            for degree in range(-1, sum(caps) + 2):
                want = sorted((e for e in grid if sum(e) == degree),
                              reverse=True)
                assert monomial_exponents(caps, degree) == want, (caps, degree)
    assert monomial_exponents((), 0) == [()]
    assert monomial_exponents((), 1) == monomial_exponents((), -1) == []
    for rows, cols in itertools.product(range(4), range(4)):
        padded = itertools.combinations_with_replacement(
            range(cols, -1, -1), rows)  # weakly decreasing rows-tuples
        every = [tuple(x for x in p if x) for p in padded]
        for size in range(-1, rows * cols + 2):
            want = sorted((p for p in every if sum(p) == size), reverse=True)
            assert partitions_in_box(rows, cols, size) == want, (rows, cols, size)


def _cyclic_garbage(build) -> int:
    """How many objects build() leaves in reference cycles when it returns."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        build()
        gc.collect()
        return len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def _file_round_trip(path):
    write_algebra(catalog.get("Gr-2-5xGr-2-5xP1").algebra, path)
    a = read_algebra(path)
    assert verify_algebra(a).ok
    lef, omega = lefschetz_subalgebra(a), _degree_one_sum(a)
    assert check_symmetry(lef).passed and check_poincare_duality(lef).passed
    assert check_hard_lefschetz(lef, omega).passed
    assert primitive_dims(lef, omega).valid
    return a


_BUNDLE_OVER_A_BUNDLE = json.dumps({"proj_bundle": {
    "Y": {"proj_bundle": {"Y": {"P": 1}, "chern": [["1"], ["0"], []]}},
    "chern": [["1"], ["0", "0"], ["0"]]}})

# beyond the catalog names: each takes a scratch file path
_MORE_BUILDS = {
    "Gr-3-8": lambda path: schubert.grassmannian(3, 8),
    "example1-sign-minus": lambda path: build_example1(sign=-1),
    "bundle-over-a-bundle":
        lambda path: evaluate(parse_build_file(_BUNDLE_OVER_A_BUNDLE)),
    "Gr-2-5xGr-2-5xP1-file": _file_round_trip,
}


@pytest.mark.parametrize("name", [*catalog.names(), *_MORE_BUILDS])
def test_no_build_leaves_a_reference_cycle(name, monkeypatch, tmp_path):
    # nothing is cached, so every class and table built is dropped on return
    # and must be freed by reference counting alone; every table is read, since
    # a product builds its tables only then
    uncached_gr = schubert.grassmannian.__wrapped__
    monkeypatch.setattr(catalog, "get", catalog.get.__wrapped__)
    for module in (schubert, catalog, buildfile):
        monkeypatch.setattr(module, "grassmannian", uncached_gr)
    build = _MORE_BUILDS.get(name, lambda path: catalog.get(name).algebra)
    assert _cyclic_garbage(lambda: dict(build(tmp_path / "x.alg.json").tables.items())) == 0


def _analysed(a: GradedAlgebra) -> GradedAlgebra:
    """a after the stage that `lefalg report` runs: the subalgebra, the three
    predicates and the primitive dims, which read only part of its tables."""
    lef, omega = lefschetz_subalgebra(a), _degree_one_sum(a)
    check_symmetry(lef), check_poincare_duality(lef), check_hard_lefschetz(lef, omega)
    primitive_dims(lef, omega)
    return a


@pytest.mark.parametrize("name", [*catalog.names(), *_MORE_BUILDS])
def test_no_partly_read_build_leaves_a_reference_cycle(name, monkeypatch, tmp_path):
    # as above, but the algebra is dropped with only the tables the analysis
    # read built, so it still holds its rule and the rule's memos
    uncached_gr = schubert.grassmannian.__wrapped__
    monkeypatch.setattr(catalog, "get", catalog.get.__wrapped__)
    for module in (schubert, catalog, buildfile):
        monkeypatch.setattr(module, "grassmannian", uncached_gr)
    build = _MORE_BUILDS.get(name, lambda path: catalog.get(name).algebra)
    assert _cyclic_garbage(lambda: _analysed(build(tmp_path / "x.alg.json"))) == 0


def test_an_analysis_builds_part_of_a_grassmannians_tables():
    a = _analysed(schubert.grassmannian.__wrapped__(3, 8))
    built = [key for key, table in a.tables._tables.items() if table is not None]
    assert len(built) == 43 < len(a.tables) == 136
    assert a.tables._source is not None  # the rule stays for the pairs not built
    dict(a.tables.items())
    assert a.tables._source is None


@pytest.mark.parametrize("name", ["Gr-3-8", "Gr-4-10", "example1", "example2", "example3"])
def test_the_hl_pass_builds_no_table_beyond_the_subalgebras(name, monkeypatch):
    # hard Lefschetz and the primitive dims multiply the image chains by omega
    # alone, so they read only the tables (1, j) that the subalgebra built;
    # example3 fails hard Lefschetz, so its kernels extend the chains too
    monkeypatch.setattr(catalog, "grassmannian", schubert.grassmannian.__wrapped__)
    entry = catalog.get.__wrapped__(name)
    tables = entry.algebra.tables._tables
    lef = lefschetz_subalgebra(entry.algebra)
    built = {key for key, table in tables.items() if table is not None}
    hl, prim = check_hard_lefschetz(lef, entry.omega), primitive_dims(lef, entry.omega)
    assert hl.passed == prim.valid == name.startswith("Gr")
    assert {key for key, table in tables.items() if table is not None} == built


# ---------------------------------------------------------------- lazy rules


def test_a_rule_is_asked_only_when_its_pair_is_read():
    asked = []

    def mult(k1, i, k2, j):
        asked.append((k1, k2))
        return ((0, 3),) if k1 == k2 == 1 else ((0, 1),)  # h * h = 3q

    basis = [["1"], ["h"], ["q"]]
    a = GradedAlgebra("P2-thrice", basis, build_product_tables(basis, mult), [1])
    assert asked == []
    assert a.tables[1, 1] == ((((0, 3),),),) and asked == [(1, 1)]
    assert a.tables[2, 0] == ((((0, 1),),),) and asked == [(1, 1), (0, 2)]
    assert a.tables[0, 2][0][0] is a.tables[2, 0][0][0] and len(asked) == 2


@pytest.mark.parametrize("cell,error,message", [
    (((0, 0),), ValueError, "product table (1,1) cell (0,0): ((0, 0),) is not a tuple of "
     "(t, c) terms with t ascending in 0..0 and c nonzero"),
    (((0, 1.5),), TypeError, "product table (1,1) cell (0,0): coefficient 1.5 is not an int "
     "or a Fraction"),
    (((1, 1),), ValueError, "product table (1,1) cell (0,0): ((1, 1),) is not a tuple of "
     "(t, c) terms with t ascending in 0..0 and c nonzero"),
])
def test_a_rule_error_surfaces_where_its_pair_is_first_read(cell, error, message):
    basis = [["1"], ["h"], ["q"]]
    tables = build_product_tables(
        basis, lambda k1, i, k2, j: cell if k1 == k2 == 1 else ((0, 1),))
    a = GradedAlgebra("P2-bad", basis, tables, [1])  # no pair is built yet
    assert a.tables[0, 1] == ((((0, 1),),),)
    for _ in range(2):  # the pair stays unbuilt, so a second read raises again
        with pytest.raises(error) as e:
            a.tables[1, 1]
        assert str(e.value) == message
    assert a.tables._tables[1, 1] is None and a.tables._source is not None


def test_each_constructor_flags_the_pairs_whose_cells_hold_only_ints():
    # the integral catalog rules give only ints; h -> z/2 gives non-integral
    # pullback and pushforward cells, so that blowup flags only some pairs
    rational = PINNED_BUILDS["Bl(P3, P1) with h -> z/2"][0]()
    bundle = PINNED_BUILDS["ProjBundle(Gr-2-4,3)"][0]()
    for a in (get("P-3").algebra, schubert.grassmannian(2, 5), get("example1").algebra,
              get("example2").algebra, bundle):
        assert_ints_measured(a)
        assert a.tables.ints == set(a.tables), a.name
    assert_ints_measured(rational)
    assert (0, 0) in rational.tables.ints and rational.tables.ints != set(rational.tables)
