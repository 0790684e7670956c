"""Exact dense linear algebra over the rationals.

Every result is exact: a `Fraction`, or an int that stands for one.
Matrices are immutable after construction and every operation is a pure
function; there is deliberately no float path. A `Matrix` is the grid that
`rref` eliminates and `ring.pairing_matrix` returns; its checking
constructor coerces each entry with `scalar` and checks the shape.

Ranks and row-space bases work on integer rows: a `Row` is (t, c) terms, c
a nonzero int, in any order, as an integral cell of `ring` is. A rank sees
only the line of a row, so `_int_rows`, the one way from vectors to rows,
clears denominators by one lcm per list; `_dense` is the one way back. Only
this module works mod P. The rank is found modulo the prime P = 2^30 - 35,
the largest below 2^30, so that every residue is one 30-bit CPython digit.
The rank mod P never exceeds the rank over Q, so when it reaches
min(rows, cols) it is the exact rank, and a basis of full width is the unit
rows: the shared unit cells ``((t, 1),)``, one object per position t
(`_unit_cells`), which `ring` also hands out as the products of unit cells.
Any other rank or basis comes from a certified modular RREF:
back-substitution mod P, rational reconstruction of each entry (numerator
and denominator at most 23,170), and a check in integers that every input
row is the combination of the candidate's cleared rows that its pivot
entries name (`_exact_rref`). If an entry has no reconstruction or the
check fails, Gauss-Jordan elimination over `Fraction` (`rref`) gives the
answer; a smaller P only sends more inputs there, never to a wrong answer.
`rref` and `solve` always work over `Fraction`.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import isqrt, lcm

Vector = tuple[Fraction, ...]
Row = Sequence[tuple[int, int]]  # (t, c) terms, c a nonzero int, any order

_UNITS: list = []


def _unit_cells(n: int) -> list:
    """The shared unit cells, grown to at least n: entry t is the one-term row ((t, 1),)."""
    _UNITS.extend(((t, 1),) for t in range(len(_UNITS), n))
    return _UNITS


_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/[1-9]\d*)?$")

# The prime of the rank certificate: the largest below 2^30, so that every
# residue is a one-digit CPython int (30 bits) and a product of two fits in
# two digits. The rational reconstruction bound, isqrt(P // 2), is 23,170.
P = (1 << 30) - 35


def scalar(value) -> Fraction:
    """Coerce an int, string or Fraction into an exact rational.

    Floats are rejected outright: silently converting one would smuggle
    rounding error into a library whose whole point is exactness.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or isinstance(value, float):
        raise TypeError(f"not an exact rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"not an exact rational: {value!r}")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" (q > 0). Anything else is malformed."""
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"malformed rational: {text!r}")
    return Fraction(s)


def format_rational(x: Fraction) -> str:
    # Fraction normalizes to lowest terms with a positive denominator,
    # so str() already renders the required "p/q" / "p" form.
    return str(x)


def vector(values: Iterable) -> Vector:
    return tuple(scalar(v) for v in values)


def vadd(u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise ValueError(f"vector length mismatch: {len(u)} vs {len(v)}")
    return tuple(a + b for a, b in zip(u, v))


def dot(u: Vector, v: Vector) -> Fraction:
    if len(u) != len(v):
        raise ValueError(f"vector length mismatch: {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


class Matrix:
    """Immutable dense rational matrix. Empty shapes are allowed."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Iterable[Iterable]):
        grid = tuple(tuple(scalar(e) for e in row) for row in entries)
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix shape")
        if len(grid) != rows or any(len(r) != cols for r in grid):
            raise ValueError(f"entry grid is not {rows}x{cols}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", grid)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        body = "; ".join(" ".join(format_rational(e) for e in row) for row in self.entries)
        return f"Matrix({self.rows}x{self.cols}: {body})"


class RrefResult(namedtuple("RrefResult", "reduced pivot_columns rank")):
    """The reduced Matrix, its pivot columns in order, and the rank."""
    __slots__ = ()


def rref(m: Matrix) -> RrefResult:
    """Reduced row echelon form by exact Gauss-Jordan elimination.

    The RREF of a matrix is unique, which makes every downstream basis
    (Lefschetz bases, kernels) canonical and the outputs reproducible.
    """
    work = [list(row) for row in m.entries]
    pivots: list[int] = []
    pr = 0
    for col in range(m.cols):
        pivot_row = None
        for i in range(pr, m.rows):
            if work[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[pr], work[pivot_row] = work[pivot_row], work[pr]
        inv = 1 / work[pr][col]
        work[pr] = [inv * x for x in work[pr]]
        for i in range(m.rows):
            if i != pr and work[i][col] != 0:
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[pr])]
        pivots.append(col)
        pr += 1
        if pr == m.rows:
            break
    return RrefResult(Matrix(m.rows, m.cols, work), tuple(pivots), len(pivots))


def _int_rows(vectors: Iterable[Sequence]) -> list[list[tuple[int, int]]]:
    """The rows of the vectors times one lcm of all their denominators, which
    keep their ratios to one another; only nonzero entries go through `scalar`."""
    rows = [[(t, scalar(x)) for t, x in enumerate(v) if x] for v in vectors]
    scale = lcm(*(x.denominator for row in rows for _, x in row))
    return [[(t, x.numerator * (scale // x.denominator)) for t, x in row] for row in rows]


def _dense(terms: Iterable[tuple[int, int | Fraction]], n: int) -> Vector:
    """The length-n coordinate vector of (t, c) terms (a row or a cell)."""
    out = [Fraction(0)] * n
    for t, c in terms:
        out[t] = c
    return tuple(out)


def _add_row_mod_p(pivots: dict[int, list[tuple[int, int]]], row: Row,
                   width: int) -> bool:
    """Reduce the row mod P against the pivots, add it if nonzero, and
    return whether it was. ``pivots`` maps each pivot column col, in the
    order found, to its terms: the nonzero (j, x) terms of a row mod P with
    a leading 1 in column col and zeros in the pivot columns found before
    it, so one pass over the pivots in order clears the row, in time
    proportional to the fill of the pivots it meets. A one-term pivot clears
    its own column and touches no other, so a row whose every column holds
    one reduces to zero, and a one-term row (t, c) in a column with no pivot
    is a pivot as it stands, unless P divides c: neither is densified."""
    if len(row) == 1:
        ((t, c),) = row
        if t not in pivots:
            c %= P
            if c:
                pivots[t] = [(t, 1)]
            return bool(c)
    if all(len(pivots.get(t, ())) == 1 for t, _ in row):
        return False
    r = [0] * width
    for t, c in row:
        r[t] = c % P
    for col, terms in pivots.items():
        c = r[col]
        if c:
            for j, x in terms:
                r[j] = (r[j] - c * x) % P
    for col, x in enumerate(r):
        if x:
            inv = pow(x, -1, P)
            pivots[col] = [(j, r[j] * inv % P) for j in range(col, width) if r[j]]
            return True
    return False


def _echelon_mod_p(rows: Iterable[Row], width: int) -> tuple[dict, list]:
    """Echelon pivots mod P of rows, one `_add_row_mod_p` per nonempty row,
    and the nonempty rows read: an empty row, the zero row, changes neither
    the pivots nor the RREF, nor what `_certify` proves. Stops at ``width``
    pivots, the most there are, so a lazy iterable is read no further than
    the row that makes the last one."""
    pivots: dict[int, list[tuple[int, int]]] = {}
    read = []
    for row in rows:
        if row:
            read.append(row)
            _add_row_mod_p(pivots, row, width)
            if len(pivots) == width:
                break
    return pivots, read


# Rational reconstruction finds n/d with |n|, d <= _BOUND; 2 * _BOUND^2 < P
# makes it unique (Wang 1981). For P = 2^30 - 35 the bound is 23,170.
_BOUND = isqrt(P // 2)


def _rational_mod_p(x: int) -> Fraction | None:
    """The n/d with n = d*x mod P and |n|, d <= _BOUND, or None: the
    extended Euclidean algorithm on (P, x), stopped at the first remainder
    within the bound."""
    r0, r1, t0, t1 = P, x, 0, 1
    while r1 > _BOUND:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if not 0 < abs(t1) <= _BOUND:
        return None
    return Fraction(r1, t1)


def _certify(rows: Sequence[Row], cleared: Sequence[Row]) -> bool:
    """Whether D*a = sum_j a[p_j] * (D*R_j) for every row a.

    R is a candidate RREF, given as its cleared integer rows D*R_j, D the
    lcm of its denominators, each with its terms in column order, so the
    first term of D*R_j is its pivot, D, in its pivot column p_j. Both sides
    agree in the pivot columns by construction, so only the terms outside
    them are compared, in exact integer arithmetic. When the check holds,
    the row space of A lies in that of R.
    """
    scale = cleared[0][0][1] if cleared else 1
    pivot_columns = [row[0][0] for row in cleared]
    pivots = set(pivot_columns)
    free = [[(c, x) for c, x in row if c not in pivots] for row in cleared]
    for row in rows:
        a = dict(row)
        acc = {c: -scale * x for c, x in row if c not in pivots}
        for p, terms in zip(pivot_columns, free):
            f = a.get(p)
            if f:
                for c, x in terms:
                    acc[c] = acc.get(c, 0) + f * x
        if any(acc.values()):
            return False
    return True


def _exact_rref(rows: Sequence[Row], width: int, pivots: dict[int, list[tuple[int, int]]]
                ) -> list[Row]:
    """The cleared integer rows D*R_j of the RREF R of the span of rows, each
    with its pivot term, D, first, from all their echelon pivots mod P: the
    certified modular RREF, else `rref` over Fraction.

    1. Back-substitution turns the pivots into the RREF mod P.
    2. Each entry is rebuilt by rational reconstruction, giving a
       candidate R; its 1s and 0s in the pivot columns are exact. Its rows
       times D, the lcm of the denominators, are the cleared rows D*R_j.
    3. `_certify` checks on D*R that the row space of A lies in that of R.
       The rank mod P never exceeds the rank over Q, so rank A >= rank R,
       the two row spaces are equal, and R, a matrix in RREF, is rref(A): a
       row space has one RREF.
    4. If an entry has no reconstruction or the check fails, elimination
       over Fraction gives R, cleared by `_int_rows`.
    """
    cols = list(pivots)
    red = [[0] * width for _ in cols]
    for row, terms in zip(red, pivots.values()):
        for j, x in terms:
            row[j] = x
    for i in range(len(cols) - 1, 0, -1):
        col, below = cols[i], red[i]
        for j in range(i):
            c = red[j][col]
            if c:
                red[j] = [(x - c * y) % P for x, y in zip(red[j], below)]
    order = sorted(range(len(cols)), key=cols.__getitem__)
    seen = {x: _rational_mod_p(x) for x in set().union(*red)}
    if None not in seen.values():
        scale = lcm(*(f.denominator for f in seen.values()))
        whole = {x: f.numerator * (scale // f.denominator) for x, f in seen.items()}
        cleared = [[(j, v) for j, x in enumerate(red[i]) if (v := whole[x])]
                   for i in order]
        if _certify(rows, cleared):
            return cleared
    res = rref(Matrix(len(rows), width, [_dense(row, width) for row in rows]))
    return _int_rows(res.reduced.row(i) for i in range(res.rank))


def _rref_vectors(cleared: Iterable[Row], width: int) -> list[Vector]:
    """The RREF R of its cleared rows D*R_j, each with its pivot term D first."""
    return [_dense([(t, Fraction(c, row[0][1])) for t, c in row], width) for row in cleared]


def _rank(rows: Sequence[Row], width: int) -> int:
    """Rank of rows of the given width: the rank mod P when it is
    min(rows, width), else the number of cleared rows of the exact RREF."""
    full = min(len(rows), width)
    pivots, _ = _echelon_mod_p(rows, width)
    if len(pivots) == full:
        return full
    return len(_exact_rref(rows, width, pivots))


def _basis_rows(rows: Iterable[Row], width: int) -> Sequence[Row]:
    """The cleared rows (`_exact_rref`) of the canonical (RREF) basis of the
    span of rows, read lazily; the first width shared unit cells when the
    span is all of Q^width, whose RREF basis is the unit rows and needs no
    exact elimination."""
    pivots, read = _echelon_mod_p(rows, width)
    if len(pivots) == width:
        return _unit_cells(width)[:width]
    return _exact_rref(read, width, pivots)


def row_space_rank(vectors: Sequence[Sequence]) -> int:
    """Dimension of the span of the given coordinate vectors (0 for none);
    every entry, zeros included, goes through `scalar`."""
    vectors = [vector(v) for v in vectors]
    if any(len(v) != len(vectors[0]) for v in vectors):
        raise ValueError("dimension mismatch: vectors have different lengths")
    return _rank(_int_rows(vectors), len(vectors[0])) if vectors else 0


def solve(a: Matrix, b: Sequence) -> Vector | None:
    """Solve a*x = b exactly; free variables are set to zero.

    Returns None when the system is inconsistent. The zero convention for
    free variables makes the returned vector deterministic.
    """
    b = vector(b)
    if len(b) != a.rows:
        raise ValueError(f"rhs length {len(b)} != row count {a.rows}")
    red, pivots, _rank = rref(Matrix(a.rows, a.cols + 1,
                                     [r + (x,) for r, x in zip(a.entries, b)]))
    if a.cols in pivots:
        return None
    x = [Fraction(0)] * a.cols
    for i, col in enumerate(pivots):
        x[col] = red.entries[i][a.cols]
    return tuple(x)
