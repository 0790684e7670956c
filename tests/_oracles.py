"""Independent reference computations shared by the test modules.

These deliberately avoid the library code paths they are checking: spans
are enumerated monomial by monomial and ranked by plain Gauss-Jordan
elimination over Fraction (not the modular rank engine), and Schubert
products are expanded through single-row Pieri steps only, so agreement is
a real cross-check. Products and ring axioms are recomputed from the dense
view ``a.products``, coordinate by coordinate, never from the sparse cells
that `multiply` and `verify_algebra` read.

`full_scan_violations` is the one exception: it is `verify_algebra` itself
with every basis class taken as a generator, so that associativity is
checked on every basis triple, as it was before the generator search.
"""

import itertools
from fractions import Fraction
from unittest import mock

from lefalg.linalg import Matrix, rref
from lefalg import ring
from lefalg.ring import Element, GradedAlgebra, multiply
from lefalg.schubert import Box, pieri


def brute_force_lefschetz_bases(a: GradedAlgebra) -> tuple[tuple, ...]:
    """The RREF basis, from `rref`, of the span of all degree-k products of
    degree-one basis classes, for each k."""
    gens = [a.basis_element(1, i) for i in range(a.dim(1))]
    bases = [(a.unit().coords,)]
    for k in range(1, a.top_degree + 1):
        vecs = []
        for combo in itertools.combinations_with_replacement(gens, k):
            el = a.unit()
            for g in combo:
                el = multiply(el, g)
            vecs.append(el.coords)
        res = rref(Matrix.from_rows(vecs)) if vecs else None
        bases.append(tuple(res.reduced.row(i) for i in range(res.rank))
                     if res else ())
    return tuple(bases)


def brute_force_lefschetz_dims(a: GradedAlgebra) -> tuple[int, ...]:
    """dim of the span of all degree-k products of degree-one classes."""
    return tuple(len(b) for b in brute_force_lefschetz_bases(a))


def _h_times(vec: dict, p: int, box: Box) -> dict:
    out: dict = {}
    for shape, c in vec.items():
        for bigger in pieri(shape, p, box):
            out[bigger] = out.get(bigger, 0) + c
    return out


def jacobi_trudi_product(lam, mu, box: Box) -> dict:
    """sigma_lam * sigma_mu in the box quotient, via Pieri steps only.

    sigma_mu = det(h_{mu_i + j - i}) for mu with at most two rows; each h_p
    acts by the Pieri rule, which stays valid after truncating to the box.
    Returns {nu: coefficient} with zero entries dropped.
    """
    if len(mu) > 2:
        raise ValueError("two-row expansion only")
    mu2 = (tuple(mu) + (0, 0))[:2]
    out: dict = {}
    for perm, sgn in (((0, 1), 1), ((1, 0), -1)):
        rows = [mu2[i] + perm[i] - i for i in range(2)]
        if any(r < 0 for r in rows):
            continue
        vec = {tuple(lam): sgn}
        for p in rows:
            if p > 0:
                vec = _h_times(vec, p, box)
        for shape, c in vec.items():
            out[shape] = out.get(shape, 0) + c
    return {s: c for s, c in out.items() if c}


def dense_multiply(x: Element, y: Element, products: dict) -> Element:
    """x*y summed over every coordinate pair of the dense tables ``products``.

    ``products`` is ``dict(a.products)``, taken once by the caller: each
    read of the view densifies a whole table.
    """
    a = x.algebra
    k = x.degree + y.degree
    if k > a.top_degree:
        return a.zero(k)
    table = products[(x.degree, y.degree)]
    out = [Fraction(0)] * a.dim(k)
    for i, ci in enumerate(x.coords):
        for j, cj in enumerate(y.coords):
            for t, c in enumerate(table[i][j]):
                out[t] += ci * cj * c
    return a.element(k, out)


def _dense_sum(coeffs, vectors, n: int) -> list[Fraction]:
    """sum of c * v over the dense coefficients and their dense vectors."""
    out = [Fraction(0)] * n
    for c, v in zip(coeffs, vectors):
        if c:
            for t, x in enumerate(v):
                out[t] += c * x
    return out


def dense_axiom_violations(a: GradedAlgebra) -> list[str]:
    """The commutativity and associativity violations, worded as verify_algebra.

    Every table pair is compared entry by entry. For every basis triple,
    (b_i b_j) b_l and b_i (b_j b_l) are composed from the dense tables: each
    pair product b_i b_j or b_j b_l is read once and expanded coordinate by
    coordinate.
    """
    products = dict(a.products)
    d = a.top_degree
    bad = []
    for k1 in range(d + 1):
        for k2 in range(k1, d + 1 - k1):
            for i in range(a.dim(k1)):
                for j in range(a.dim(k2)):
                    if products[(k1, k2)][i][j] != products[(k2, k1)][j][i]:
                        bad.append(f"commutativity fails at degrees ({k1},{k2}) "
                                   f"indices ({i},{j})")
    for k1 in range(d + 1):
        for k2 in range(d + 1 - k1):
            for k3 in range(d + 1 - k1 - k2):
                t12, t23 = products[(k1, k2)], products[(k2, k3)]
                t12_3, t1_23 = products[(k1 + k2, k3)], products[(k1, k2 + k3)]
                n = a.dim(k1 + k2 + k3)
                for i, j in itertools.product(range(a.dim(k1)), range(a.dim(k2))):
                    bij = t12[i][j]
                    for l in range(a.dim(k3)):
                        lhs = _dense_sum(bij, [row[l] for row in t12_3], n)
                        rhs = _dense_sum(t23[j][l], t1_23[i], n)
                        if lhs != rhs:
                            bad.append(f"associativity fails on degrees "
                                       f"({k1},{k2},{k3}) indices ({i},{j},{l})")
    return bad


def full_scan_violations(a: GradedAlgebra) -> tuple[str, ...]:
    """verify_algebra's violations with associativity on all of A x A x A."""
    with mock.patch.object(ring, "_generators",
                           lambda a: [range(n) for n in a.dims]):
        return ring.verify_algebra(a).violations
