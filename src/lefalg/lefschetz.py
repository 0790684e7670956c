"""Degree-one-generated subalgebras and the three Lefschetz-type predicates.

L^0 is spanned by the unit, L^1 by the chosen degree-one generators, and
L^{k+1} = L^1 * L^k. All bases are kept in reduced echelon form so ranks,
verdicts, and witnesses are reproducible. The three predicates share one
per-degree check. When hard Lefschetz holds, dim PL^i = dim L^i - dim L^{i-1};
the kernels of omega^{d-2i+1} are ranked only when it fails.

The stage computes on integer rows, never on `Fraction` vectors. Products
read the integer view of the cells (`ring._int_table`, one scale per
table), and the generators, the rows of each L^k, the powers of omega and
the Gram entries are carried as integers, each a nonzero multiple of the
exact value; a multiple spans the same line, so no rank changes. A basis of
L^k that is all of A^k is the identity, and its products are read straight
from the cells. The ranks and RREF bases come from `linalg` (rank mod P,
else the certified modular RREF, else `rref`), and the bases are stored as
exact `Fraction` RREFs.

The result records are namedtuples, so they also compare equal to plain
tuples of their fields.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from math import gcd, lcm

from .linalg import Vector, _basis, _rank, row_space_rank
from .ring import Element, GradedAlgebra, _checked_class, _int_table


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


def _scaled(vectors: Sequence[Vector]) -> tuple[int, list[list[tuple[int, int]]]]:
    """``(scale, rows)``: the nonzero coordinates of each vector times one
    scale, the lcm of all their denominators, as integer (i, c) terms."""
    scale = lcm(*(x.denominator for v in vectors for x in v if x))
    return scale, [[(i, x.numerator * (scale // x.denominator))
                    for i, x in enumerate(v) if x] for v in vectors]


def _int_basis(basis: tuple[Vector, ...], n: int) -> tuple[int, list | None]:
    """``_scaled(basis)``, or ``(1, None)`` when the basis spans all n
    coordinates: an RREF basis is then the unit vectors, whose products
    are read straight from the cells."""
    return (1, None) if len(basis) == n else _scaled(basis)


def _product_rows(a: GradedAlgebra, k1: int, k2: int, ws, us):
    """``(scale, rows)``: the scale of the (k1, k2) integer view and, read
    from it lazily, the dense integer rows w*u for each sparse integer class
    w of degree k1 in ws and then each u of degree k2, the sparse integer
    rows us or, when us is None, the unit vectors. A row is the exact
    product of w and u times the scale."""
    scale, table = _int_table(a, k1, k2)
    n, n2 = a.dim(k1 + k2), a.dim(k2)

    def rows():
        for w in ws:
            columns: list[dict] = [{} for _ in range(n2)]  # w * b_i, each i
            for s, x in w:
                for column, cell in zip(columns, table[s]):
                    for t, c in cell:
                        column[t] = column.get(t, 0) + x * c
            for u in ([[(i, 1)] for i in range(n2)] if us is None else us):
                row = [0] * n
                for i, x in u:
                    for t, c in columns[i].items():
                        row[t] += x * c
                yield row
    return scale, rows()


def lefschetz_subalgebra(a: GradedAlgebra,
                         generators: Sequence[Element] | None = None
                         ) -> LefschetzData:
    """Subalgebra generated in degree one, default generators = all of degree 1."""
    if generators is None:
        gens = [a.basis_element(1, i) for i in range(a.dim(1))]
    else:
        gens = [_checked_class(a, g, 1, "generators") for g in generators]
    ws = _scaled([g.coords for g in gens])[1]
    bases = [(a.unit().coords,)]
    for k in range(1, a.top_degree + 1):
        us = _int_basis(bases[k - 1], a.dim(k - 1))[1]
        bases.append(tuple(_basis(_product_rows(a, 1, k - 1, ws, us)[1], a.dim(k))))
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
    """[1, omega, ..., omega^n], one product of integer rows per power."""
    a = omega.algebra
    powers = [a.unit()]
    scale, (w,) = _scaled([omega.coords])
    den, p = 1, [(0, 1)]  # omega^m = p / den
    for m in range(1, n + 1):
        if m > a.top_degree:
            powers.append(a.zero(m))
            continue
        s_t, (row,) = _product_rows(a, m - 1, 1, [p], [w])
        den *= scale * s_t
        g = gcd(den, *row)
        den //= g
        row = [x // g for x in row]
        p = [(t, x) for t, x in enumerate(row) if x]
        powers.append(Element(a, m, tuple(Fraction(x, den) for x in row)))
    return powers


def _map_rank(lef: LefschetzData, mult_by: Element, k: int) -> int:
    """Rank of (x -> mult_by * x) restricted to L^k."""
    a = lef.ambient
    if mult_by.degree + k > a.top_degree:
        return 0
    ws = _scaled([mult_by.coords])[1]
    us = _int_basis(lef.bases[k], a.dim(k))[1]
    return _rank(list(_product_rows(a, mult_by.degree, k, ws, us)[1]),
                 a.dim(mult_by.degree + k))


def check_hard_lefschetz(lef: LefschetzData,
                         omega: Element | None) -> PredicateVerdict:
    """omega^{d-2k}: L^k -> L^{d-k} must be bijective for every k <= d/2."""
    d = lef.ambient.top_degree
    powers = _omega_powers(_checked_omega(lef, omega), d)
    return PredicateVerdict("hard-lefschetz", _per_degree(
        lef, lambda k: _map_rank(lef, powers[d - 2 * k], k)))


def _int_gram(lef: LefschetzData, k: int) -> tuple[list[list[int]], int]:
    """The pairing L^k x L^{d-k} -> Q as an integer matrix and the scale it
    carries: entry (u, v) is the integral of u*v, over the integer rows u
    and v of the two bases, times that scale."""
    a = lef.ambient
    d = a.top_degree
    s_w, (w,) = _scaled([a.integration])
    s_u, us = _int_basis(lef.bases[k], a.dim(k))
    s_v, vs = _int_basis(lef.bases[d - k], a.dim(d - k))
    if us is None:
        us = [[(i, 1)] for i in range(a.dim(k))]
    s_t, rows = _product_rows(a, k, d - k, us, vs)
    integrals = [sum(x * row[t] for t, x in w) for row in rows]
    m = lef.dim(d - k)
    return ([integrals[i * m:(i + 1) * m] for i in range(len(us))],
            s_u * s_v * s_w * s_t)


def _gram(lef: LefschetzData, k: int) -> list[list[Fraction]]:
    """The pairing L^k x L^{d-k} -> Q: entry (u, v) is the integral of u*v
    over the basis classes u of L^k and v of L^{d-k}."""
    rows, scale = _int_gram(lef, k)
    return [[Fraction(x, scale) for x in row] for row in rows]


def check_poincare_duality(lef: LefschetzData) -> PredicateVerdict:
    """The pairing L^k x L^{d-k} -> Q must be square and nondegenerate."""
    d = lef.ambient.top_degree
    return PredicateVerdict("poincare-duality", _per_degree(
        lef, lambda k: _rank(_int_gram(lef, k)[0], lef.dim(d - k))))


class PrimitiveDims(namedtuple("PrimitiveDims", "dims valid")):
    """dim PL^i for i = 0..d//2; valid only when hard Lefschetz holds."""
    __slots__ = ()


def primitive_dims(lef: LefschetzData, omega: Element | None) -> PrimitiveDims:
    """PL^i = ker(omega^{d-2i+1}: L^i -> L^{d-i+1}) for i = 0..d//2.

    Under hard Lefschetz the map is onto L^{d-i+1} = omega^{d-2i+2} L^{i-1},
    so dim PL^i = dim L^i - dim L^{i-1} and nothing more is ranked; the
    kernels are ranked only when hard Lefschetz fails.
    """
    return _primitive_dims(lef, omega, check_hard_lefschetz(lef, omega))


def _primitive_dims(lef: LefschetzData, omega: Element | None,
                    hl: PredicateVerdict) -> PrimitiveDims:
    """`primitive_dims` given the hard Lefschetz verdict ``hl`` for omega,
    so that a caller who has it ranks each HL map once."""
    d = lef.ambient.top_degree
    if hl.passed:
        return PrimitiveDims(tuple(lef.dim(i) - lef.dim(i - 1)
                                   for i in range(d // 2 + 1)), True)
    # a failing verdict means d > 0, so omega was given and is checked
    powers = _omega_powers(omega, d + 1)
    return PrimitiveDims(tuple(lef.dim(i) - _map_rank(lef, powers[d - 2 * i + 1], i)
                               for i in range(d // 2 + 1)), False)
