"""Exact dense linear algebra over the rationals.

Every result is exact: a `Fraction`, or an int that stands for one.
Matrices are immutable after construction and every operation is a pure
function; there is deliberately no float path. A `Matrix` is the grid that
`rref` eliminates and `ring.pairing_matrix` returns; its checking
constructor coerces each entry with `scalar` and checks the shape.

Ranks and row-space bases work on integer rows: a `Row` is (t, c) terms, c
a nonzero int, in any order, as an integral cell of `ring` is. A rank sees
only the line of a row, so `_int_rows`, the one way from vectors to rows,
clears denominators by one lcm per list; `_dense` is the one way back. Ranks
and bases come from one exact row reduction over the integers (`_add_row`),
whose pivots are primitive integer rows, so no entry is ever a fraction: a
rank is the number of pivots, and a basis is the pivots back-substituted in
integers and cleared by one lcm (`_cleared`). A basis of full width is the unit rows:
the shared unit cells ``((t, 1),)``, one object per position t
(`_unit_cells`), which `ring` also hands out as the products of unit cells.
`rref` and `solve` work over `Fraction`.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd, lcm

Vector = tuple[Fraction, ...]
Row = Sequence[tuple[int, int]]  # (t, c) terms, c a nonzero int, any order

_UNITS: list = []


def _unit_cells(n: int) -> list:
    """The shared unit cells, grown to at least n: entry t is the one-term row ((t, 1),)."""
    _UNITS.extend(((t, 1),) for t in range(len(_UNITS), n))
    return _UNITS


_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/[1-9]\d*)?$")

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


def _add_row(pivots: dict[int, list[tuple[int, int]]], row: Row, width: int) -> bool:
    """Reduce the row against the pivots, add it if nonzero, and return
    whether it was. ``pivots`` maps each pivot column col, in the order
    found, to its terms: the nonzero (j, x) terms of a primitive integer row
    (entries of gcd 1) with a positive leading entry a in column col and
    zeros in the pivot columns found before it, so one pass over the pivots
    in order clears the row. A pivot clears the row's entry c in its column:
    with g = gcd(a, c), the row is scaled by a/g when a does not divide c,
    and c/g times the pivot is subtracted, so no entry is ever a fraction. A
    scaled row is then divided by the gcd of its entries, which keeps them
    from growing with every pivot. A one-term pivot clears its own column
    and touches no other, so a row whose every column holds one reduces to
    zero, and a one-term row in a column with no pivot is a pivot as it
    stands: neither is densified."""
    if len(row) == 1:
        ((t, c),) = row
        if t not in pivots:
            pivots[t] = [(t, 1)]
            return True
    if all(len(pivots.get(t, ())) == 1 for t, _ in row):
        return False
    r = [0] * width
    for t, c in row:
        r[t] = c
    for col, terms in pivots.items():
        c = r[col]
        if c:
            a = terms[0][1]
            g = gcd(a, c)
            if g != a:
                r = [x * (a // g) for x in r]
            f = c // g
            for j, x in terms:
                r[j] -= f * x
            if g != a and (h := gcd(*r)) > 1:
                r = [x // h for x in r]
    g = gcd(*r)
    if not g:
        return False
    col = next(j for j, x in enumerate(r) if x)
    g = g if r[col] > 0 else -g
    pivots[col] = [(j, x // g) for j, x in enumerate(r[col:], col) if x]
    return True


def _echelon(rows: Iterable[Row], width: int) -> dict[int, list[tuple[int, int]]]:
    """Echelon pivots of rows, one `_add_row` per row: an empty row, the zero
    row, changes nothing. Stops at ``width`` pivots, the most there are, so a
    lazy iterable is read no further than the row that makes the last one."""
    pivots: dict[int, list[tuple[int, int]]] = {}
    for row in rows:
        if _add_row(pivots, row, width) and len(pivots) == width:
            break
    return pivots


def _cleared(pivots: dict[int, list[tuple[int, int]]], width: int) -> list[Row]:
    """The cleared integer rows D*R_j of the RREF R of the span of the pivots,
    in column order, each with its pivot term, D, first. Back-substitution in
    integers, last pivot column first, clears each pivot row in the columns of
    the rows below it as `_add_row` does and divides it by the gcd of its
    entries. A primitive row with leading entry a_j is a_j * R_j, and a_j is
    the lcm of the denominators of R_j, so D is the lcm of the a_j."""
    red: dict[int, list[int]] = {}
    for col in sorted(pivots, reverse=True):
        r = [0] * width
        for j, x in pivots[col]:
            r[j] = x
        for p, below in red.items():
            c = r[p]
            if c:
                a = below[p]
                g = gcd(a, c)
                r = [x * (a // g) - y * (c // g) for x, y in zip(r, below)]
        g = gcd(*r)
        red[col] = [x // g for x in r] if g > 1 else r
    scale = lcm(*(r[col] for col, r in red.items()))
    return [[(j, x * (scale // r[col])) for j, x in enumerate(r) if x]
            for col, r in sorted(red.items())]


def _rref_vectors(cleared: Iterable[Row], width: int) -> list[Vector]:
    """The RREF R of its cleared rows D*R_j, each with its pivot term D first."""
    return [_dense([(t, Fraction(c, row[0][1])) for t, c in row], width) for row in cleared]


def _rank(rows: Iterable[Row], width: int) -> int:
    """Rank of rows of the given width: the number of their echelon pivots."""
    return len(_echelon(rows, width))


def _basis_rows(rows: Iterable[Row], width: int) -> Sequence[Row]:
    """The cleared rows (`_cleared`) of the canonical (RREF) basis of the span
    of rows, read lazily; the first width shared unit cells when the span is
    all of Q^width, whose RREF basis is the unit rows."""
    pivots = _echelon(rows, width)
    if len(pivots) == width:
        return _unit_cells(width)[:width]
    return _cleared(pivots, width)


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
