"""Degree-one-generated subalgebras and the three Lefschetz-type predicates.

L^0 is spanned by the unit, L^1 by the chosen degree-one generators, and
L^{k+1} = L^1 * L^k. All bases are kept in reduced echelon form so ranks,
verdicts, and witnesses are reproducible. The three predicates share one
per-degree check. When hard Lefschetz holds, dim PL^i = dim L^i - dim L^{i-1};
the kernels of omega^{d-2i+1} are ranked only when it fails.

The result records are namedtuples, so they also compare equal to plain
tuples of their fields.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction

from .linalg import Vector, row_space_basis, row_space_rank
from .ring import (Element, GradedAlgebra, _checked_class, multiply,
                   pairing_matrix)


class LefschetzData(namedtuple("LefschetzData", "ambient generators bases")):
    """Echelon bases of L^k inside the ambient degree-k components.

    ``generators`` are the coordinate vectors of the degree-one generators,
    ``bases[k]`` the echelon basis of L^k.
    """
    __slots__ = ()

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.bases)

    def dim(self, k: int) -> int:
        return len(self.bases[k]) if 0 <= k < len(self.bases) else 0

    def elements(self, k: int) -> list[Element]:
        # the basis vectors are Fraction tuples of the right length already
        return [Element(self.ambient, k, v) for v in self.bases[k]]


def lefschetz_subalgebra(a: GradedAlgebra,
                         generators: Sequence[Element] | None = None
                         ) -> LefschetzData:
    """Subalgebra generated in degree one, default generators = all of degree 1."""
    if generators is None:
        gens = [a.basis_element(1, i) for i in range(a.dim(1))]
    else:
        gens = [_checked_class(a, g, 1, "generators") for g in generators]
    d = a.top_degree
    bases: list[tuple[Vector, ...]] = [(a.unit().coords,)]
    for k in range(1, d + 1):
        candidates = [multiply(g, Element(a, k - 1, v)).coords
                      for g in gens for v in bases[k - 1]]
        bases.append(tuple(row_space_basis(candidates)))
    return LefschetzData(a, tuple(g.coords for g in gens), tuple(bases))


class DegreeVerdict(namedtuple("DegreeVerdict", "k passed witness",
                               defaults=("",))):
    __slots__ = ()


class PredicateVerdict(namedtuple("PredicateVerdict", "predicate degrees")):
    """A predicate's name and its DegreeVerdict for each checked degree."""
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.degrees)

    @property
    def witness(self) -> str | None:
        for v in self.degrees:
            if not v.passed:
                return f"k={v.k}: {v.witness}"
        return None


def _per_degree(lef: LefschetzData, rank) -> tuple[DegreeVerdict, ...]:
    """For each k <= d/2: dim L^k = dim L^{d-k}, then rank(k) = dim L^k."""
    d = lef.ambient.top_degree
    out = []
    for k in range(d // 2 + 1):
        low, high = lef.dim(k), lef.dim(d - k)
        if low != high:
            out.append(DegreeVerdict(k, False, f"{low} vs {high}"))
            continue
        r = rank(k)
        out.append(DegreeVerdict(k, r == low,
                                 "" if r == low else f"rank {r} of {low}"))
    return tuple(out)


def check_symmetry(lef: LefschetzData) -> PredicateVerdict:
    """dim L^k = dim L^{d-k} for every k up to the middle."""
    return PredicateVerdict("symmetry", _per_degree(lef, lef.dim))


def _checked_omega(lef: LefschetzData, omega: Element | None) -> Element:
    a = lef.ambient
    if omega is None:
        if a.top_degree == 0:
            return a.zero(1)
        raise ValueError("omega is required when the top degree is positive")
    _checked_class(a, omega, 1, "omega")
    level = list(lef.bases[1]) if a.top_degree >= 1 else []
    if row_space_rank(level + [omega.coords]) != len(level):
        raise ValueError("omega lies outside the degree-one Lefschetz component")
    return omega


def _omega_powers(omega: Element, n: int) -> list[Element]:
    """[1, omega, ..., omega^n], one multiplication per power."""
    powers = [omega.algebra.unit()]
    for _ in range(n):
        powers.append(multiply(powers[-1], omega))
    return powers


def _map_rank(lef: LefschetzData, mult_by: Element, k: int) -> int:
    """Rank of (x -> mult_by * x) restricted to L^k."""
    return row_space_rank([multiply(mult_by, u).coords for u in lef.elements(k)])


def check_hard_lefschetz(lef: LefschetzData,
                         omega: Element | None) -> PredicateVerdict:
    """omega^{d-2k}: L^k -> L^{d-k} must be bijective for every k <= d/2."""
    d = lef.ambient.top_degree
    powers = _omega_powers(_checked_omega(lef, omega), d)
    return PredicateVerdict("hard-lefschetz", _per_degree(
        lef, lambda k: _map_rank(lef, powers[d - 2 * k], k)))


def _support(v: Vector) -> list[tuple[int, Fraction]]:
    return [(i, c) for i, c in enumerate(v) if c]


def _gram(lef: LefschetzData, k: int) -> list[list[Fraction]]:
    """The pairing L^k x L^{d-k} -> Q as the matrix U G V^T.

    U and V are the bases of L^k and L^{d-k}, G the ambient pairing; only
    the nonzero basis coordinates and pairing entries are read.
    """
    a = lef.ambient
    g = [_support(row) for row in pairing_matrix(a, k).entries]
    ug = []
    for u in lef.bases[k]:
        w: dict[int, Fraction] = {}
        for i, c in _support(u):
            for j, x in g[i]:
                w[j] = w.get(j, 0) + c * x
        ug.append(w)
    vt = [_support(v) for v in lef.bases[a.top_degree - k]]
    return [[sum((w[j] * c for j, c in s if j in w), Fraction(0)) for s in vt]
            for w in ug]


def check_poincare_duality(lef: LefschetzData) -> PredicateVerdict:
    """The pairing L^k x L^{d-k} -> Q must be square and nondegenerate."""
    return PredicateVerdict("poincare-duality", _per_degree(
        lef, lambda k: row_space_rank(_gram(lef, k))))


class PrimitiveDims(namedtuple("PrimitiveDims", "dims valid")):
    """dim PL^i for i = 0..d//2; valid only when hard Lefschetz holds."""
    __slots__ = ()


def primitive_dims(lef: LefschetzData, omega: Element | None) -> PrimitiveDims:
    """PL^i = ker(omega^{d-2i+1}: L^i -> L^{d-i+1}) for i = 0..d//2.

    Under hard Lefschetz the map is onto L^{d-i+1} = omega^{d-2i+2} L^{i-1},
    so dim PL^i = dim L^i - dim L^{i-1} and nothing more is ranked; the
    kernels are ranked only when hard Lefschetz fails.
    """
    d = lef.ambient.top_degree
    if check_hard_lefschetz(lef, omega).passed:
        return PrimitiveDims(tuple(lef.dim(i) - lef.dim(i - 1)
                                   for i in range(d // 2 + 1)), True)
    # a failing verdict means d > 0, so omega was given and is checked
    powers = _omega_powers(omega, d + 1)
    return PrimitiveDims(tuple(lef.dim(i) - _map_rank(lef, powers[d - 2 * i + 1], i)
                               for i in range(d // 2 + 1)), False)
