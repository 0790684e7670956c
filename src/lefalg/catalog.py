"""Built-in algebras: three counterexample varieties plus standard families.

Catalog names double as constructors: "P-n" and "Gr-k-n" are parametric,
and any "x"-joined list of two or more non-product names builds the product
ring, so the finite list reported by names() is not exhaustive.

A `CatalogEntry` is a namedtuple, so it also compares equal to a plain
tuple of its fields.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Sequence
from functools import lru_cache

from .constructors import (
    BlowupInput,
    blowup,
    chern_series_inverse,
    monomial_exponents,
    projective_bundle,
    projective_space,
    series_product,
    truncated_polynomial_algebra,
)
from .ring import (Element, GradedAlgebra, RingMap, _cells, _combine, _degree_one_sum,
                   tensor_product)
from .schubert import grassmannian, quotient_chern_classes

_P_NAME = re.compile(r"^P-?(\d+)$")
_GR_NAME = re.compile(r"^Gr-(\d+)-(\d+)$")


class CatalogEntry(namedtuple("CatalogEntry", "name algebra omega description")):
    """A named algebra, its default omega (None in top degree 0), and what it is."""
    __slots__ = ()


def _monomial_pullback(y: GradedAlgebra, caps: Sequence[int], z: GradedAlgebra,
                       gen_images: Sequence[Element]) -> RingMap:
    """Ring map from a truncated polynomial ring fixed by generator images g_i:
    on z's cells, the image of a monomial of degree k is that of the one with
    its first nonzero exponent i lowered, times g_i (z is associative)."""
    gens, images = _cells(g.coords for g in gen_images), [{(0,) * len(caps): ((0, 1),)}]
    for k in range(1, min(y.top_degree, z.top_degree) + 1):
        images.append({})
        table = z.tables[k - 1, 1]
        for e in monomial_exponents(caps, k):
            i = next(i for i, x in enumerate(e) if x)
            low = images[k - 1][e[:i] + (e[i] - 1,) + e[i + 1:]]
            images[k][e] = _combine([(x * c, table[s][t]) for s, x in low for t, c in gens[i]])
    return RingMap(y, z, [list(cells.values()) for cells in images])


def cxp1_even() -> GradedAlgebra:
    """Q[a,b]/(a^2, b^2): the even cohomology of C x P1 for a curve C."""
    return truncated_polynomial_algebra("CxP1-even", [("a", 1), ("b", 1)])


def build_example1(sign: int = 1) -> GradedAlgebra:
    """Blowup of P5 along a degree-6 Segre-embedded C x P1 surface.

    The center's even ring is Q[a,b]/(a^2,b^2), the hyperplane restricts to
    a + 3b, and the normal bundle has total class 1 + 4a + 18b + 54ab.
    """
    y = projective_space(5, var="c")
    z = cxp1_even()
    a, b, ab = z.by_label("a"), z.by_label("b"), z.by_label("ab")
    pull = _monomial_pullback(y, [5], z, [a + 3 * b])
    chern = (4 * a + 18 * b, 54 * ab, z.zero(3))
    return blowup(BlowupInput(y, z, pull, 3, chern), sign=sign, name="example1")


def build_example2(sign: int = 1) -> GradedAlgebra:
    """Blowup of P3 x P3 along a (P1)^3 center.

    The ambient ring is presented on the two hyperplane generators y1, y2,
    restricting to z1+z2 and z2+z3; the normal-bundle class is computed by
    Whitney division (1+z1+z2)^4 (1+z2+z3)^4 / ((1+2z1)(1+2z2)(1+2z3)).
    """
    y = truncated_polynomial_algebra("P3xP3", [("y1", 3), ("y2", 3)])
    z = truncated_polynomial_algebra("(P1)^3", [("z1", 1), ("z2", 1), ("z3", 1)])
    z1, z2, z3 = (z.by_label(lbl) for lbl in ("z1", "z2", "z3"))
    pull = _monomial_pullback(y, [3, 3], z, [z1 + z2, z2 + z3])

    def fourth_power(lin: Element) -> list[Element]:
        # (1 + lin)^4 = sum of C(4, k) lin^k
        return [c * lin ** k for k, c in enumerate((1, 4, 6, 4, 1))]

    tangent_y = series_product(fourth_power(z1 + z2), fourth_power(z2 + z3))
    tangent_z = [z.unit(), 2 * z1]
    for lin in (z2, z3):
        tangent_z = series_product(tangent_z, [z.unit(), 2 * lin])
    cn = series_product(tangent_y, chern_series_inverse(z, tangent_z))
    chern = (cn[1], cn[2], cn[3])
    return blowup(BlowupInput(y, z, pull, 3, chern), sign=sign, name="example2")


def build_example3() -> GradedAlgebra:
    """Projectivization of the tautological quotient bundle on Gr(2,5)."""
    chern = quotient_chern_classes(2, 5)
    return projective_bundle(chern[0].algebra, chern, name="example3")


# Each fixed name: its builder, its default omega on the built algebra, what it is.
_FIXED = {
    "example1": (build_example1,
                 lambda a: 10 * a.by_label("c") - a.by_label("e^1*1"),
                 "blowup of P5 along a Segre-embedded C x P1"),
    "example2": (build_example2,
                 lambda a: 10 * a.by_label("y1") + 10 * a.by_label("y2") - a.by_label("e^1*1"),
                 "blowup of P3 x P3 along a (P1)^3 center"),
    "example3": (build_example3,
                 lambda a: a.by_label("s[1]") + a.by_label("z^1*1"),
                 "projectivized quotient bundle on Gr(2,5)"),
    "CxP1-even": (cxp1_even, _degree_one_sum,
                  "even ring of C x P1, used as a blowup center"),
}


def names() -> list[str]:
    """The canonical built-in listing (get() also resolves parametric names)."""
    return (list(_FIXED)
            + [f"P-{n}" for n in range(1, 7)]
            + ["Gr-2-4", "Gr-2-5"]
            + ["P1xP1", "P1xP2", "P3xP3", "P1xP1xP1", "Gr-2-4xP1", "Gr-2-5xP2"])


def _is_factor(name: str) -> bool:
    """Whether name is a catalog name other than a product."""
    m = _GR_NAME.match(name)
    if m:
        return 1 <= int(m.group(1)) < int(m.group(2))
    return name in _FIXED or _P_NAME.match(name) is not None


def _product_factors(name: str) -> list[str] | None:
    """Split name at the x's that end a factor name; None unless it is a product.

    No factor name is another factor name followed by "x" and more text, so
    cutting at the first x that ends a factor is the only split.
    """
    parts, start = [], 0
    for i, ch in enumerate(name):
        if ch == "x" and _is_factor(name[start:i]):
            parts.append(name[start:i])
            start = i + 1
    parts.append(name[start:])
    if len(parts) < 2 or not _is_factor(parts[-1]):
        return None
    return parts


@lru_cache(maxsize=None)
def get(name: str) -> CatalogEntry:
    """Resolve a catalog name; raises ValueError for unknown names."""
    if not _is_factor(name):
        parts = _product_factors(name)
        if parts is None:
            raise ValueError(f"unknown catalog name: {name!r}")
        alg = tensor_product(*(get(p).algebra for p in parts))
        return CatalogEntry(name, alg, _degree_one_sum(alg),
                            "product of " + " and ".join(parts))
    if name in _FIXED:
        build, omega, description = _FIXED[name]
        alg = build()
        return CatalogEntry(name, alg, omega(alg), description)
    m = _P_NAME.match(name)
    if m:
        n = int(m.group(1))
        alg = projective_space(n, name=name)
        return CatalogEntry(name, alg, _degree_one_sum(alg),
                            f"projective space of dimension {n}")
    # a factor name that is none of the above is a valid Gr-k-n
    k, n = (int(g) for g in _GR_NAME.match(name).groups())
    alg = grassmannian(k, n)
    return CatalogEntry(name, alg, alg.by_label("s[1]"),
                        f"Grassmannian of {k}-planes in {n}-space")
