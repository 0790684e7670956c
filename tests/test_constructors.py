"""Constructors: truncated rings, series, pushforward, blowups, bundles."""

from fractions import Fraction

import pytest

from lefalg.catalog import _monomial_pullback, cxp1_even, get
from lefalg.constructors import (BlowupInput, adjoint_pushforward, blowup,
                                 chern_series_inverse, projective_bundle,
                                 projective_space, series, series_product,
                                 truncated_polynomial_algebra)
from lefalg.linalg import row_space_rank
from lefalg.ring import (integrate, multiply, render_element, tensor_product,
                         verify_algebra)


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


def test_adjoint_pushforward_pinned_values():
    y = projective_space(5, var="c")
    z = cxp1_even()
    a, b = z.by_label("a"), z.by_label("b")
    pull = _monomial_pullback(y, [5], z, [a + 3 * b])
    push = adjoint_pushforward(pull, 3)
    cases = [(z.unit(), "6*c^3"), (a, "3*c^4"), (b, "c^4"),
             (multiply(a, b), "c^5")]
    for w, expected in cases:
        img = y.element(w.degree + 3, push[w.degree].mat_vec(w.coords))
        assert render_element(img) == expected


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
            fw = y.element(k + 3, push[k].mat_vec(w.coords))
            for j in range(y.dim(comp)):
                u = y.basis_element(comp, j)
                lhs = integrate(multiply(fw, u))
                rhs = integrate(multiply(w, pull(u)))
                assert lhs == rhs


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
    x = get("example1").algebra
    c = x.by_label("c")
    e = x.by_label("e^1*1")
    c3 = (c ** 3).coords
    c2e = (c * c * e).coords
    ce2 = (c * e * e).coords
    e3 = (e ** 3).coords
    assert row_space_rank([c3, c2e, ce2]) == 3
    assert row_space_rank([c3, c2e, ce2, e3]) == 4


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
    # degree-2 matrix contradicts the square of the degree-1 matrix:
    # c maps to a+3b but c^2 maps to 0 instead of (a+3b)^2 = 6ab
    y = projective_space(5, var="c")
    z = cxp1_even()
    a, b = z.by_label("a"), z.by_label("b")
    from lefalg.linalg import Matrix
    from lefalg.ring import RingMap
    bad = RingMap(y, z, [Matrix.identity(1),
                         Matrix.from_rows([["1"], ["3"]]),
                         Matrix.zero(1, 1)])
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
