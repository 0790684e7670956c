"""Degree-one-generated subalgebras and the three Lefschetz-type predicates.

L^0 is spanned by the unit, L^1 by the chosen degree-one generators, and
L^{k+1} = L^1 * L^k. All bases are kept in reduced echelon form so ranks,
verdicts, and witnesses are reproducible. The three predicates share one
per-degree check. When hard Lefschetz holds, dim PL^i = dim L^i - dim L^{i-1};
the kernels of omega^{d-2i+1} are ranked only when it fails.

A record keeps the hard Lefschetz pass (omega in L^1, the verdict, and each
rank of a power of omega found) for each omega it is asked about, keyed by its
coordinates once omega is checked. Records are immutable and a verdict is a
pure function of record and omega, so `check_hard_lefschetz` and
`primitive_dims` share the pass; an omega that raises is not kept.

A `tensor_product` with the default generators is read from its factors,
exactly, by three rules for omega = omega_A (x) 1 + 1 (x) omega_B (Stanley
1980; Harima et al., The Lefschetz Properties, LNM 2080, ch. 3). L(A (x) B)
= L(A) (x) L(B), so the rows of L^k are Kronecker products of factor rows
(`_kunneth_rows`); the pairing is the Kronecker product of the factors'
pairings, so its ranks convolve (`_pairing_ranks`); and over Q the graded
Jordan type of omega is the Clebsch-Gordan product of the factors' types
(`_clebsch_gordan`), so a rank of omega^m counts strings (`_omega_ranks`).
The record keeps its factors' records (``_factors``, one per distinct
factor), and no product table is built. A factor where hard Lefschetz holds
has the centred type (`_strings`), read from its L-dims with no rank beyond
its HL pass. Explicit generators, algebras read from files and every other
algebra are eliminated, as below.

The stage computes on integer rows (`linalg.Row`), never on `Fraction`
vectors: every verdict is a rank, which sees only the line of a row, so the
generators, the rows of each L^k, the powers of omega and the Gram rows are
integer rows on the lines of the exact ones (`linalg._int_rows`, the cells of
`ring._int_table`), and no scale is kept. Ranks and RREF bases come from
`linalg`, the one module that works mod P. Each L^k is stored once, as the
cleared rows of its RREF (`linalg._basis_rows`), the shared unit cells where it
is all of A^k; `Fraction` vectors are built only when `bases` or `elements` is read.

The result records are namedtuples, so they also compare equal to plain
tuples of their fields.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Sequence
from functools import cache, reduce
from itertools import islice
from math import gcd, lcm

from .linalg import Row, Vector, _basis_rows, _int_rows, _rank, _rref_vectors, _unit_cells
from .ring import (Element, GradedAlgebra, _blocks, _checked_class, _int_pairing, _int_table,
                   _integrals, _kunneth_factors, _refuse_bools)


class LefschetzData(namedtuple("LefschetzData", "ambient generators rows")):
    """L^k inside A^k for each k: ``generators`` are the coordinate vectors of
    the degree-one generators, ``rows[k]`` the cleared rows D*R_j of the RREF R
    of L^k, pivot term D first (the shared unit cells when its rank mod P is
    full); ``bases[k]``, R as `Fraction` vectors, is built from them on each read.
    Setting an attribute raises; the instance dict holds only the HL passes
    (`_hl_pass`) and a product's factor records (``_factors``), so fields,
    repr, == and hash are the tuple's.
    """
    def __setattr__(self, name, value):
        raise AttributeError("LefschetzData is immutable")

    @property
    def bases(self) -> tuple[tuple[Vector, ...], ...]:
        return tuple(map(tuple, map(_rref_vectors, self.rows, self.ambient.dims)))

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(map(len, self.rows))

    def dim(self, k: int) -> int:
        _refuse_bools(k)
        return len(self.rows[k]) if 0 <= k < len(self.rows) else 0

    def elements(self, k: int) -> list[Element]:
        rows = self.rows[k] if self.dim(k) else ()  # none outside 0..d
        return [self.ambient.element(k, v) for v in _rref_vectors(rows, self.ambient.dim(k))]


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


def _convolve(u: Sequence[int], v: Sequence[int]) -> list[int]:
    """The Kunneth convolution: entry k is the sum of u[i] * v[k-i]."""
    return [sum(u[i] * v[k - i] for i in range(max(0, k - len(v) + 1), min(k + 1, len(u))))
            for k in range(len(u) + len(v) - 1)]


def _kunneth_rows(lefs: Sequence[LefschetzData]) -> list[tuple]:
    """The rows of L^k of the product of the records' ambients, for each k: block
    by block (`ring._blocks`), the Kronecker products u (x) v of the factors' rows,
    each times what clears its degree by one lcm; the shared unit cells where L^k
    is all of its degree."""
    dims, rows = lefs[0].ambient.dims, lefs[0].rows
    for lef in lefs[1:]:
        bdims, out = lef.ambient.dims, []
        dims, layout = _convolve(dims, bdims), _blocks(dims, bdims)
        for k, start in enumerate(layout):
            pairs = [(at, bdims[k - i], u, v) for i, at in start.items()
                     for u in rows[i] for v in lef.rows[k - i]]
            if len(pairs) == dims[k]:
                out.append(tuple(_unit_cells(dims[k])[:dims[k]]))
                continue
            scale = lcm(*{u[0][1] * v[0][1] for _, _, u, v in pairs})
            out.append(tuple(tuple((at + p * nb + q, x * y * c) for p, x in u for q, y in v)
                             for at, nb, u, v in pairs for c in [scale // (u[0][1] * v[0][1])]))
        rows = out
    return rows


def lefschetz_subalgebra(a: GradedAlgebra,
                         generators: Sequence[Element] | None = None
                         ) -> LefschetzData:
    """Subalgebra generated in degree one, default generators = all of degree 1.
    With those, a `tensor_product` is read from its factors' records, which the
    record keeps (`_kunneth_rows`; see the module docstring). Otherwise the
    cleared rows of each L^k (`_basis_rows`) are the rows of the next degree's
    products, the shared unit cells where L^k is all of A^k."""
    if generators is None:
        gens = [a.basis_element(1, i) for i in range(a.dim(1))]
        factors = _kunneth_factors(a)
    else:
        gens = [_checked_class(a, g, 1, "generators") for g in generators]
        factors = ()
    coords = tuple(g.coords for g in gens)
    if factors:
        records = {id(f): f for f in factors}  # one record per distinct factor
        records = {i: lefschetz_subalgebra(f) for i, f in records.items()}
        lefs = [records[id(f)] for f in factors]
        lef = LefschetzData(a, coords, tuple(_kunneth_rows(lefs)))
        vars(lef)["_factors"] = lefs
        return lef
    ws = _int_rows(coords)
    rows = [tuple(_unit_cells(1)[:1])]  # L^0 = A^0, spanned by the unit
    for k in range(1, a.top_degree + 1):
        rows.append(tuple(map(tuple, _basis_rows(
            _product_rows(a, 1, k - 1, ws, rows[-1]), a.dim(k)))))
    return LefschetzData(a, coords, tuple(rows))


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
    return _checked_class(a, omega, 1, "omega")


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


def _strings(lef: LefschetzData, omega: Element) -> dict:
    """The graded Jordan type of omega on L: {(s, e): the number of strings from
    degree s to degree e}. Under hard Lefschetz each string is centred, [k, d - k],
    and dim L^k - dim L^(k-1) start at k; else inclusion and exclusion on the
    ranks of the HL pass finds it, since r(m, k) strings run through k and k + m."""
    (hl, rank), d = _hl_pass(lef, omega), lef.ambient.top_degree
    if hl.passed:
        return {(k, d - k): n for k in range(d // 2 + 1) if (n := lef.dim(k) - lef.dim(k - 1))}

    def r(m, k):
        return rank(m, k) if 0 <= k and k + m <= d else 0
    return {(s, e): n for s in range(d + 1) for e in range(s, d + 1)
            if (n := r(e - s, s) - r(e - s + 1, s - 1) - r(e - s + 1, s)
                + r(e - s + 2, s - 1))}


def _clebsch_gordan(x: dict, y: dict) -> dict:
    """The graded Jordan type of omega_A (x) 1 + 1 (x) omega_B from the factors'
    types: strings [s, e] and [t, f] give [s+t+j, e+f-j] for j < min of their
    lengths, which holds over Q (Q[x,y]/(x^a, y^b) has the strong Lefschetz
    property for x + y in characteristic 0)."""
    out: dict = {}
    for (s, e), n in x.items():
        for (t, f), m in y.items():
            for j in range(min(e - s, f - t) + 1):
                out[s + t + j, e + f - j] = out.get((s + t + j, e + f - j), 0) + n * m
    return out


def _omega_ranks(lef: LefschetzData, omega: Element) -> Callable[[int, int], int]:
    """(m, k) -> the rank of omega^m on L^k, each found once: for a product
    record, the strings through both k and k + m of the Clebsch-Gordan product
    of its factors' types, omega's degree-one coordinates being theirs in
    turn; else `_map_rank` on the powers [1, omega, ..., omega^(d+1)]."""
    if lefs := vars(lef).get("_factors"):
        types, at = [], 0
        for f in lefs:
            n = f.ambient.dim(1)
            types.append(_strings(f, Element(f.ambient, 1, omega.coords[at:at + n])))
            at += n
        strings = reduce(_clebsch_gordan, types).items()
        return lambda m, k: sum(n for (s, e), n in strings if s <= k and k + m <= e)
    powers, plain = _omega_powers(omega, lef.ambient.top_degree + 1), LefschetzData(*lef)
    return cache(lambda m, k: _map_rank(plain, m, powers[m], k))  # plain: no cycle via the pass


def _hl_pass(lef: LefschetzData, omega: Element | None) -> tuple[PredicateVerdict, Callable]:
    """The HL verdict for omega and its `_omega_ranks`, which `primitive_dims`
    reads too: built on the record's first call with an equal omega, read
    from the record after. omega's class is checked on every call."""
    omega, d = _checked_omega(lef, omega), lef.ambient.top_degree
    passes = vars(lef).setdefault("_passes", {})
    if omega.coords not in passes:
        level = list(lef.rows[1]) if d >= 1 else []
        if _rank(level + _int_rows([omega.coords]), lef.ambient.dim(1)) != len(level):
            raise ValueError("omega lies outside the degree-one Lefschetz component")
        rank = _omega_ranks(lef, omega)
        passes[omega.coords] = PredicateVerdict("hard-lefschetz", _per_degree(
            lef, lambda k: rank(d - 2 * k, k))), rank
    return passes[omega.coords]


def check_hard_lefschetz(lef: LefschetzData,
                         omega: Element | None) -> PredicateVerdict:
    """omega^{d-2k}: L^k -> L^{d-k} must be bijective for every k <= d/2."""
    return _hl_pass(lef, omega)[0]


def _int_gram(lef: LefschetzData, k: int) -> list[Row]:
    """The pairing L^k x L^{d-k} -> Q as integer rows, one nonzero multiple
    of the exact one: row u of L^k's rows holds the integrals (`_integrals`)
    of u*v over the rows v of L^{d-k}."""
    a, d = lef.ambient, lef.ambient.top_degree
    us, vs = lef.rows[k], lef.rows[d - k]
    rows = _product_rows(a, k, d - k, us, vs)  # read len(vs) at a time, one u each
    return _integrals(a, (islice(rows, len(vs)) for _ in us))


def _pairing_ranks(lef: LefschetzData) -> Callable[[int], int]:
    """k -> the rank of the pairing L^k x L^{d-k} -> Q: for a product record,
    the convolution of its factors' ranks over every degree, each distinct factor
    record ranked once; else ranked on the Gram matrix, read from the table
    (`_int_pairing`) where both are full width."""
    a, d = lef.ambient, lef.ambient.top_degree
    if lefs := vars(lef).get("_factors"):
        ranks = {id(f): list(map(_pairing_ranks(f), range(f.ambient.top_degree + 1)))
                 for f in {id(f): f for f in lefs}.values()}
        return reduce(_convolve, [ranks[id(f)] for f in lefs]).__getitem__
    full = [lef.dim(k) == a.dim(k) for k in range(d + 1)]
    return lambda k: _rank(_int_pairing(a, k) if full[k] and full[d - k] else _int_gram(lef, k),
                           lef.dim(d - k))


def check_poincare_duality(lef: LefschetzData) -> PredicateVerdict:
    """The pairing L^k x L^{d-k} -> Q must be square and nondegenerate (`_pairing_ranks`)."""
    return PredicateVerdict("poincare-duality", _per_degree(lef, _pairing_ranks(lef)))


class PrimitiveDims(namedtuple("PrimitiveDims", "dims valid")):
    """dim PL^i for i = 0..d//2; valid only when hard Lefschetz holds."""
    __slots__ = ()


def primitive_dims(lef: LefschetzData, omega: Element | None) -> PrimitiveDims:
    """PL^i = ker(omega^{d-2i+1}: L^i -> L^{d-i+1}) for i = 0..d//2.

    Under hard Lefschetz the map is onto L^{d-i+1} = omega^{d-2i+2} L^{i-1},
    so dim PL^i = dim L^i - dim L^{i-1} and nothing more is ranked; the
    kernels are ranked only when it fails, by the ranks of the HL pass the
    record shares with `check_hard_lefschetz`, each ranked once (see the
    module docstring).
    """
    hl, rank = _hl_pass(lef, omega)
    d = lef.ambient.top_degree
    return PrimitiveDims(tuple(
        lef.dim(i) - (lef.dim(i - 1) if hl.passed else rank(d - 2 * i + 1, i))
        for i in range(d // 2 + 1)), hl.passed)
