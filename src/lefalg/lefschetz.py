"""Degree-one-generated subalgebras and the three Lefschetz-type predicates.

L^0 is spanned by the unit, L^1 by the chosen degree-one generators, and
L^{k+1} = L^1 * L^k. All bases are kept in reduced echelon form so ranks,
verdicts, and witnesses are reproducible. The three predicates share one
per-degree check. When hard Lefschetz holds, dim PL^i = dim L^i - dim L^{i-1};
the kernels of omega^{d-2i+1} are ranked only when it fails.

The stage computes on integer rows (`linalg.Row`), never on `Fraction`
vectors. Every verdict is a rank, and a rank sees only the line of a row:
the generators, the rows of each L^k, the powers of omega and the Gram rows
are integer rows on the lines of the exact ones, and no scale is kept.
Vectors become rows through `linalg._int_rows`; products read the cells of
`ring._int_table`, which are rows, and a unit row times a unit row is its
cell as it is; a basis of L^k that is all of A^k is read as the shared unit
cells. Ranks and RREF bases come from `linalg`, the one module that works
mod P. Each L^k is stored once, as the cleared integer rows of its RREF
(`linalg._basis_rows`), which every product, map and pairing on L^k reads;
`Fraction` vectors are built only when `bases` or `elements` is read.

The result records are namedtuples, so they also compare equal to plain
tuples of their fields.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from itertools import islice
from math import gcd

from .linalg import Row, Vector, _basis_rows, _int_rows, _rank, _rref_vectors, _unit_cells
from .ring import (Element, GradedAlgebra, _checked_class, _int_pairing, _int_table,
                   _integrals)


class LefschetzData(namedtuple("LefschetzData", "ambient generators rows")):
    """L^k inside A^k for each k: ``generators`` are the coordinate vectors of
    the degree-one generators, ``rows[k]`` the cleared rows D*R_j of the RREF R
    of L^k, pivot term D first (the shared unit cells when its rank mod P is
    full); ``bases[k]``, R as `Fraction` vectors, is built from them on each read.
    """
    __slots__ = ()

    @property
    def bases(self) -> tuple[tuple[Vector, ...], ...]:
        return tuple(map(tuple, map(_rref_vectors, self.rows, self.ambient.dims)))

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(map(len, self.rows))

    def dim(self, k: int) -> int:
        return len(self.rows[k]) if 0 <= k < len(self.rows) else 0

    def elements(self, k: int) -> list[Element]:
        rows = self.rows[k] if 0 <= k < len(self.rows) else ()  # none outside 0..d
        return [Element(self.ambient, k, v) for v in _rref_vectors(rows, self.ambient.dim(k))]


def _product_rows(a: GradedAlgebra, k1: int, k2: int,
                  ws: Sequence[Row], us: Sequence[Row]):
    """Lazily, the integer rows w*u (their nonzero terms) on the lines of the
    products, for each row w of degree k1 in ws and then each u of degree k2
    in us. A unit row w = b_s times a unit row u = b_i is the cell
    ``table[s][i]`` of `_int_table` as it is."""
    table = _int_table(a, k1, k2)
    for w in ws:
        unit = len(w) == 1 and w[0][1] == 1
        if unit:
            columns = table[w[0][0]]  # w * b_i is the cell itself, each i
        else:
            sums: list[dict] = [{} for _ in range(a.dim(k2))]  # w * b_i, each i
            for s, x in w:
                for column, cell in zip(sums, table[s]):
                    for t, c in cell:
                        column[t] = column.get(t, 0) + x * c
            columns = [column.items() for column in sums]
        for u in us:
            if unit and len(u) == 1 and u[0][1] == 1:
                yield columns[u[0][0]]
                continue
            row: dict = {}
            for i, x in u:
                for t, c in columns[i]:
                    row[t] = row.get(t, 0) + x * c
            yield [(t, c) for t, c in row.items() if c]


def lefschetz_subalgebra(a: GradedAlgebra,
                         generators: Sequence[Element] | None = None
                         ) -> LefschetzData:
    """Subalgebra generated in degree one, default generators = all of degree 1.
    The cleared rows of each L^k (`_basis_rows`) are the rows of the next
    degree's products, the shared unit cells where L^k is all of A^k."""
    if generators is None:
        gens = [a.basis_element(1, i) for i in range(a.dim(1))]
    else:
        gens = [_checked_class(a, g, 1, "generators") for g in generators]
    ws = _int_rows([g.coords for g in gens])
    rows = [tuple(_unit_cells(1)[:1])]  # L^0 = A^0, spanned by the unit
    for k in range(1, a.top_degree + 1):
        rows.append(tuple(map(tuple, _basis_rows(
            _product_rows(a, 1, k - 1, ws, rows[-1]), a.dim(k)))))
    return LefschetzData(a, tuple(g.coords for g in gens), tuple(rows))


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
    level = list(lef.rows[1]) if a.top_degree >= 1 else []
    if _rank(level + _int_rows([omega.coords]), a.dim(1)) != len(level):
        raise ValueError("omega lies outside the degree-one Lefschetz component")
    return omega


def _omega_powers(omega: Element, n: int) -> list[Row]:
    """[1, omega, ..., omega^n] as integer rows, each a multiple of the power
    divided by the gcd of its entries, and empty where the power is zero."""
    a = omega.algebra
    (w,) = _int_rows([omega.coords])
    powers = [[(0, 1)]]
    for m in range(1, min(n, a.top_degree) + 1):
        (row,) = _product_rows(a, m - 1, 1, [powers[-1]], [w])
        g = gcd(*(x for _, x in row))
        powers.append([(t, x // g) for t, x in row])
    return powers + [[] for _ in range(n + 1 - len(powers))]


def _map_rank(lef: LefschetzData, m: int, row: Row, k: int) -> int:
    """Rank of (x -> p * x) on L^k, for p of degree m on the line of row; p of
    degree 0 is omega^0, the unit, so that map is the identity."""
    a = lef.ambient
    if m + k > a.top_degree:
        return 0
    if m == 0:
        return lef.dim(k)
    return _rank(list(_product_rows(a, m, k, [row], lef.rows[k])), a.dim(m + k))


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


def _int_gram(lef: LefschetzData, k: int) -> list[Row]:
    """The pairing L^k x L^{d-k} -> Q as integer rows, one nonzero multiple
    of the exact one: row u of L^k's rows holds the integrals (`_integrals`)
    of u*v over the rows v of L^{d-k}."""
    a, d = lef.ambient, lef.ambient.top_degree
    us, vs = lef.rows[k], lef.rows[d - k]
    rows = _product_rows(a, k, d - k, us, vs)  # read len(vs) at a time, one u each
    return _integrals(a, (islice(rows, len(vs)) for _ in us))


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
