"""Independent reference computations shared by the test modules.

These deliberately avoid the library code paths they are checking: spans
are enumerated monomial by monomial and ranked by plain Gauss-Jordan
elimination over Fraction (not the modular rank engine), and Schubert
products are expanded through single-row Pieri steps only, so agreement is
a real cross-check.
"""

import itertools

from lefalg.linalg import Matrix, rref
from lefalg.ring import GradedAlgebra, multiply
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
