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


def brute_force_lefschetz_dims(a: GradedAlgebra) -> tuple[int, ...]:
    """dim of the span of all degree-k products of degree-one classes."""
    gens = [a.basis_element(1, i) for i in range(a.dim(1))]
    dims = [1]
    for k in range(1, a.top_degree + 1):
        vecs = []
        for combo in itertools.combinations_with_replacement(gens, k):
            el = a.unit()
            for g in combo:
                el = multiply(el, g)
            vecs.append(el.coords)
        dims.append(rref(Matrix.from_rows(vecs)).rank)
    return tuple(dims)


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


def dense_axiom_violations(a: GradedAlgebra) -> list[str]:
    """The commutativity and associativity violations, worded as verify_algebra.

    Every table pair is compared entry by entry, and every basis triple is
    multiplied out both ways with `dense_multiply`.
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
                for i, j, l in itertools.product(range(a.dim(k1)), range(a.dim(k2)),
                                                 range(a.dim(k3))):
                    bi = a.basis_element(k1, i)
                    bj = a.basis_element(k2, j)
                    bl = a.basis_element(k3, l)
                    lhs = dense_multiply(dense_multiply(bi, bj, products), bl,
                                         products)
                    rhs = dense_multiply(bi, dense_multiply(bj, bl, products),
                                         products)
                    if lhs != rhs:
                        bad.append(f"associativity fails on degrees "
                                   f"({k1},{k2},{k3}) indices ({i},{j},{l})")
    return bad


def full_scan_violations(a: GradedAlgebra) -> tuple[str, ...]:
    """verify_algebra's violations with associativity on all of A x A x A."""
    with mock.patch.object(ring, "_generators",
                           lambda a: [range(n) for n in a.dims]):
        return ring.verify_algebra(a).violations
