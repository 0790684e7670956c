"""Exact dense linear algebra over the rationals.

Everything in this module works with `fractions.Fraction` entries, so all
results are exact. Matrices are immutable after construction and every
operation is a pure function; there is deliberately no float path.

Ranks are found modulo the prime P = 2^61 - 1 first, on each row scaled by
the lcm of its denominators. The rank mod P never exceeds the rank over Q,
so when it reaches min(rows, cols) it is the exact rank; any other rank
falls back to Gauss-Jordan elimination over `Fraction`. `rref`, `solve`
and `kernel` always work over `Fraction`.

`Matrix.from_rows`, `identity`, `zero` and `column` are kept on purpose as
public API for building and reading matrices; only the tests call them.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import lcm

Vector = tuple[Fraction, ...]

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/[1-9]\d*)?$")

# The prime of the rank certificate (a Mersenne prime, so ints stay small).
P = (1 << 61) - 1


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


def vzero(n: int) -> Vector:
    return (Fraction(0),) * n


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

    @classmethod
    def _exact(cls, rows: int, cols: int, grid: tuple[Vector, ...]) -> "Matrix":
        """A rows x cols matrix of Fraction entries computed here; no re-coercion."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "entries", grid)
        return m

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Matrix":
        rows = [tuple(r) for r in rows]
        if not rows:
            return cls(0, 0, [])
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), width, rows)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, [[0] * cols for _ in range(rows)])

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def column(self, j: int) -> Vector:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "Matrix":
        return Matrix._exact(self.cols, self.rows,
                             tuple(tuple(row[j] for row in self.entries)
                                   for j in range(self.cols)))

    def mat_vec(self, v: Sequence) -> Vector:
        v = vector(v)
        if len(v) != self.cols:
            raise ValueError(f"expected vector of length {self.cols}, got {len(v)}")
        return tuple(dot(r, v) for r in self.entries)

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
    reduced = Matrix._exact(m.rows, m.cols, tuple(map(tuple, work)))
    return RrefResult(reduced, tuple(pivots), len(pivots))


def _rows(vectors: Sequence[Sequence]) -> list[Vector]:
    rows = [tuple(scalar(x) for x in v) for v in vectors]
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("dimension mismatch: vectors have different lengths")
    return rows


def _rank_mod_p(rows: list[Vector], width: int) -> int:
    """Rank mod P of the rows, each scaled by the lcm of its denominators.

    Echelon form only: every pivot row is normalized to a leading 1 and is
    zero in the pivot columns found before it, so one pass over the pivot
    rows in order clears a new row. Stops once the rank reaches
    min(rows, width), which no further row can raise.
    """
    full = min(len(rows), width)
    pivots: list[tuple[int, list[int]]] = []
    for row in rows:
        if len(pivots) == full:
            break
        scale = lcm(*(x.denominator for x in row))
        r = [x.numerator * (scale // x.denominator) % P for x in row]
        for col, pivot in pivots:
            c = r[col]
            if c:
                r = [(x - c * y) % P for x, y in zip(r, pivot)]
        for col, x in enumerate(r):
            if x:
                inv = pow(x, -1, P)
                pivots.append((col, [y * inv % P for y in r]))
                break
    return len(pivots)


def row_space_rank(vectors: Sequence[Sequence]) -> int:
    """Dimension of the span of the given coordinate vectors (0 for none)."""
    rows = _rows(vectors)
    if not rows:
        return 0
    width = len(rows[0])
    rank = _rank_mod_p(rows, width)
    if rank == min(len(rows), width):
        return rank
    return rref(Matrix._exact(len(rows), width, tuple(rows))).rank


def row_space_basis(vectors: Sequence[Sequence]) -> list[Vector]:
    """Canonical (RREF) basis of the span. Deterministic for any input order.

    A span of full width is all of Q^width, whose RREF basis is the
    standard unit vectors; no elimination over Fraction is needed then.
    """
    rows = _rows(vectors)
    if not rows:
        return []
    width = len(rows[0])
    if _rank_mod_p(rows, width) == width:
        return [tuple(Fraction(int(i == j)) for j in range(width))
                for i in range(width)]
    res = rref(Matrix._exact(len(rows), width, tuple(rows)))
    return [res.reduced.row(i) for i in range(res.rank)]


def solve(a: Matrix, b: Sequence) -> Vector | None:
    """Solve a*x = b exactly; free variables are set to zero.

    Returns None when the system is inconsistent. The zero convention for
    free variables makes the returned vector deterministic.
    """
    b = vector(b)
    if len(b) != a.rows:
        raise ValueError(f"rhs length {len(b)} != row count {a.rows}")
    aug = Matrix._exact(a.rows, a.cols + 1,
                        tuple(a.entries[i] + (b[i],) for i in range(a.rows)))
    red, pivots, _rank = rref(aug)
    if a.cols in pivots:
        return None
    x = [Fraction(0)] * a.cols
    for i, col in enumerate(pivots):
        x[col] = red.entries[i][a.cols]
    return tuple(x)


def kernel(a: Matrix) -> list[Vector]:
    """Basis of the nullspace {v : a*v = 0}, one vector per free column."""
    red, pivots, rank = rref(a)
    pivot_set = set(pivots)
    free = [j for j in range(a.cols) if j not in pivot_set]
    basis = []
    for f in free:
        v = [Fraction(0)] * a.cols
        v[f] = Fraction(1)
        for i, col in enumerate(pivots):
            v[col] = -red.entries[i][f]
        basis.append(tuple(v))
    return basis
