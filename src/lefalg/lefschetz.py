"""Degree-one-generated subalgebras and the three Lefschetz-type predicates.

L^0 is spanned by the unit, L^1 by the chosen degree-one generators, and
L^{k+1} = L^1 * L^k. All bases are kept in reduced echelon form so ranks,
verdicts, and witnesses are reproducible. The three predicates share one
per-degree check. When hard Lefschetz holds, dim PL^i = dim L^i - dim L^{i-1};
the kernels of omega^{d-2i+1} are ranked only when it fails.

The stage computes on integer rows, never on `Fraction` vectors. Every
verdict is a rank, and a rank sees only the line of a row, not its scale:
the generators, the rows of each L^k, the powers of omega and the Gram rows
are integer rows on the lines of the exact ones, and no scale is kept.
Products read `ring._int_table`; a basis of L^k that is all of A^k is read
as the unit rows. Ranks and RREF bases come from `linalg` (rank mod P, else
the certified modular RREF, else `rref`); the bases are stored as exact
`Fraction` RREFs.

The result records are namedtuples, so they also compare equal to plain
tuples of their fields.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from math import gcd, lcm

from .linalg import Vector, _basis, _rank, row_space_rank, scalar
from .ring import Element, GradedAlgebra, _checked_class, _int_pairing, _int_table


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


Row = list[tuple[int, int]]  # the nonzero (i, c) terms of an integer row


def _sparse(vectors: Sequence[Vector]) -> list[Row]:
    """The nonzero terms of the vectors times one lcm of their denominators. The
    callers pass Fractions (Element coordinates, RREF bases); `scalar` checks each."""
    rows = [[(i, scalar(x)) for i, x in enumerate(v) if x] for v in vectors]
    scale = lcm(*(x.denominator for row in rows for _, x in row))
    return [[(i, x.numerator * (scale // x.denominator)) for i, x in row] for row in rows]


def _int_basis(basis: tuple[Vector, ...], n: int) -> list[Row]:
    """`_sparse(basis)`; the unit rows when the basis spans all n
    coordinates, since an RREF basis is then the unit vectors."""
    return [[(i, 1)] for i in range(n)] if len(basis) == n else _sparse(basis)


def _product_rows(a: GradedAlgebra, k1: int, k2: int,
                  ws: Sequence[Row], us: Sequence[Row]):
    """Lazily, the dense integer rows w*u on the lines of the products, for
    each row w of degree k1 in ws and then each row u of degree k2 in us."""
    table = _int_table(a, k1, k2)
    n, n2 = a.dim(k1 + k2), a.dim(k2)
    for w in ws:
        columns: list[dict] = [{} for _ in range(n2)]  # w * b_i, each i
        for s, x in w:
            for column, cell in zip(columns, table[s]):
                for t, c in cell:
                    column[t] = column.get(t, 0) + x * c
        for u in us:
            row = [0] * n
            for i, x in u:
                for t, c in columns[i].items():
                    row[t] += x * c
            yield row


def lefschetz_subalgebra(a: GradedAlgebra,
                         generators: Sequence[Element] | None = None
                         ) -> LefschetzData:
    """Subalgebra generated in degree one, default generators = all of degree 1."""
    if generators is None:
        gens = [a.basis_element(1, i) for i in range(a.dim(1))]
    else:
        gens = [_checked_class(a, g, 1, "generators") for g in generators]
    ws = _sparse([g.coords for g in gens])
    bases = [(a.unit().coords,)]
    for k in range(1, a.top_degree + 1):
        us = _int_basis(bases[k - 1], a.dim(k - 1))
        bases.append(tuple(_basis(_product_rows(a, 1, k - 1, ws, us), a.dim(k))))
    return LefschetzData(a, tuple(g.coords for g in gens), tuple(bases))


DegreeVerdict = namedtuple("DegreeVerdict", "k passed witness", defaults=("",))


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


def _omega_powers(omega: Element, n: int) -> list[Row]:
    """[1, omega, ..., omega^n] as integer rows, each a multiple of the power
    divided by the gcd of its entries, and empty where the power is zero."""
    a = omega.algebra
    (w,) = _sparse([omega.coords])
    powers = [[(0, 1)]]
    for m in range(1, min(n, a.top_degree) + 1):
        (row,) = _product_rows(a, m - 1, 1, [powers[-1]], [w])
        g = gcd(*row)
        powers.append([(t, x // g) for t, x in enumerate(row) if x])
    return powers + [[] for _ in range(n + 1 - len(powers))]


def _map_rank(lef: LefschetzData, m: int, row: Row, k: int) -> int:
    """Rank of (x -> p * x) on L^k, for p of degree m on the line of row."""
    a = lef.ambient
    if m + k > a.top_degree:
        return 0
    us = _int_basis(lef.bases[k], a.dim(k))
    return _rank(list(_product_rows(a, m, k, [row], us)), a.dim(m + k))


def check_hard_lefschetz(lef: LefschetzData,
                         omega: Element | None) -> PredicateVerdict:
    """omega^{d-2k}: L^k -> L^{d-k} must be bijective for every k <= d/2."""
    return _hard_lefschetz(lef, omega)[0]


def _hard_lefschetz(lef: LefschetzData, omega: Element | None
                    ) -> tuple[PredicateVerdict, list[Row]]:
    """`check_hard_lefschetz` and the rows of [1, omega, ..., omega^(d+1)]
    it built, which `_primitive_dims` reads when the verdict fails."""
    d = lef.ambient.top_degree
    powers = _omega_powers(_checked_omega(lef, omega), d + 1)
    return PredicateVerdict("hard-lefschetz", _per_degree(
        lef, lambda k: _map_rank(lef, d - 2 * k, powers[d - 2 * k], k))), powers


def _int_gram(lef: LefschetzData, k: int) -> list[list[int]]:
    """The pairing L^k x L^{d-k} -> Q as an integer matrix, one nonzero
    multiple of the exact one: entry (u, v) is the integral of u*v over the
    integer rows u and v of the two bases."""
    a = lef.ambient
    d = a.top_degree
    (w,) = _sparse([a.integration])
    us = _int_basis(lef.bases[k], a.dim(k))
    vs = _int_basis(lef.bases[d - k], a.dim(d - k))
    integrals = [sum(x * row[t] for t, x in w)
                 for row in _product_rows(a, k, d - k, us, vs)]
    m = len(vs)
    return [integrals[i * m:(i + 1) * m] for i in range(len(us))]


def check_poincare_duality(lef: LefschetzData) -> PredicateVerdict:
    """The pairing L^k x L^{d-k} -> Q must be square and nondegenerate; where
    both are full width, the Gram matrix is read from the table (`_int_pairing`)."""
    a, d = lef.ambient, lef.ambient.top_degree
    full = [lef.dim(k) == a.dim(k) for k in range(d + 1)]
    return PredicateVerdict("poincare-duality", _per_degree(lef, lambda k: _rank(
        _int_pairing(a, k) if full[k] and full[d - k] else _int_gram(lef, k), lef.dim(k))))


class PrimitiveDims(namedtuple("PrimitiveDims", "dims valid")):
    """dim PL^i for i = 0..d//2; valid only when hard Lefschetz holds."""
    __slots__ = ()


def primitive_dims(lef: LefschetzData, omega: Element | None) -> PrimitiveDims:
    """PL^i = ker(omega^{d-2i+1}: L^i -> L^{d-i+1}) for i = 0..d//2.

    Under hard Lefschetz the map is onto L^{d-i+1} = omega^{d-2i+2} L^{i-1},
    so dim PL^i = dim L^i - dim L^{i-1} and nothing more is ranked; the
    kernels are ranked only when hard Lefschetz fails.
    """
    return _primitive_dims(lef, *_hard_lefschetz(lef, omega))


def _primitive_dims(lef: LefschetzData, hl: PredicateVerdict,
                    powers: Sequence[Row]) -> PrimitiveDims:
    """`primitive_dims` given what `_hard_lefschetz` returns for omega, so
    that a caller who has them builds the powers and ranks each HL map once."""
    d = lef.ambient.top_degree
    if hl.passed:
        return PrimitiveDims(tuple(lef.dim(i) - lef.dim(i - 1)
                                   for i in range(d // 2 + 1)), True)
    return PrimitiveDims(tuple(
        lef.dim(i) - _map_rank(lef, d - 2 * i + 1, powers[d - 2 * i + 1], i)
        for i in range(d // 2 + 1)), False)
