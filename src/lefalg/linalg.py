"""Exact dense linear algebra over the rationals.

Every result is exact: a `Fraction`, or an int that stands for one.
Matrices are immutable after construction and every operation is a pure
function; there is deliberately no float path. Every `Matrix`, the results
of `transpose` and `rref` included, is built by its checking constructor,
which coerces each entry with `scalar` and checks the shape.

Ranks and row-space bases work on integer rows, and a rank sees only the
line of each row, not its scale, so no scale is returned or carried.
`row_space_rank` clears denominators with `_int_rows` (one lcm per list);
the Lefschetz stage hands its integer rows to `_rank` and `_basis` directly.
The rank is found modulo the prime P = 2^61 - 1 first. It never exceeds the
rank over Q, so when it reaches min(rows, cols) it is the exact rank, and a
basis of full width is the unit vectors. Any other rank or basis comes from
a certified modular RREF: back-substitution mod P, rational reconstruction
of each entry, and a check that every input row is the combination of the
candidate's rows that its pivot entries name (`_exact_rref`). If an entry
has no reconstruction or the check fails, Gauss-Jordan elimination over
`Fraction` (`rref`) gives the answer. `rref` and `solve` always work over
`Fraction`.

`Matrix.from_rows`, `identity`, `zero` and `column` are kept on purpose as
public API for building and reading matrices; only the tests call them.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import isqrt, lcm

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
        return Matrix(self.cols, self.rows, map(self.column, range(self.cols)))

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
    return RrefResult(Matrix(m.rows, m.cols, work), tuple(pivots), len(pivots))


def _int_rows(vectors: Iterable[Sequence]) -> list[list[int]]:
    """The vectors times one lcm of all their denominators: integer rows
    with the same span, which keep their ratios to one another."""
    rows = [[scalar(x) for x in v] for v in vectors]
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("dimension mismatch: vectors have different lengths")
    scale = lcm(*(x.denominator for r in rows for x in r))
    return [[x.numerator * (scale // x.denominator) for x in r] for r in rows]


def _add_row_mod_p(pivots: list[tuple[int, list[tuple[int, int]]]],
                   r: list[int]) -> bool:
    """Reduce the row r mod P against the pivots, in place; append it if
    nonzero.

    A pivot is (col, terms), the nonzero (j, x) terms of a row with a
    leading 1 in column col and zeros in the pivot columns found before it,
    so one pass over the pivots in order clears r. Only the nonzero terms
    are read, so sparse rows reduce in time proportional to their fill.
    Returns whether r raised the rank.
    """
    for col, terms in pivots:
        c = r[col]
        if c:
            for j, x in terms:
                r[j] = (r[j] - c * x) % P
    for col, x in enumerate(r):
        if x:
            inv = pow(x, -1, P)
            pivots.append((col, [(j, r[j] * inv % P)
                                 for j in range(col, len(r)) if r[j]]))
            return True
    return False


def _echelon_mod_p(rows: Iterable[Sequence[int]], full: int) -> tuple[list, list]:
    """Echelon pivots mod P of integer rows, one `_add_row_mod_p` per row,
    and the rows read. Stops once there are ``full`` pivots, the most that
    min(rows, width) allows, so a lazy iterable is read only that far."""
    pivots: list[tuple[int, list[tuple[int, int]]]] = []
    read = []
    for row in rows:
        if len(pivots) == full:
            break
        read.append(row)
        _add_row_mod_p(pivots, [x % P for x in row])
    return pivots, read


# Rational reconstruction finds n/d with |n|, d <= _BOUND; 2 * _BOUND^2 < P
# makes it unique (Wang 1981).
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


def _certify(rows: Sequence[Sequence[int]], width: int,
             pivot_columns: Sequence[int], reduced: Sequence[Vector]) -> bool:
    """Whether D*a = sum_j a[p_j] * (D*R_j) for every integer row a.

    R is a candidate RREF with pivot columns p_j and D the lcm of its
    denominators. Both sides agree in the pivot columns by construction,
    so only the nonzero entries of D*R outside them are read. When the
    check holds, the row space of A lies in that of R.
    """
    scale = lcm(*(x.denominator for row in reduced for x in row))
    pivots = set(pivot_columns)
    free = [c for c in range(width) if c not in pivots]
    sparse = [[(c, x.numerator * (scale // x.denominator))
               for c, x in enumerate(row) if x and c not in pivots]
              for row in reduced]
    for a in rows:
        acc = dict.fromkeys(free, 0)
        for p, terms in zip(pivot_columns, sparse):
            f = a[p]
            if f:
                for c, x in terms:
                    acc[c] += f * x
        if any(acc[c] != scale * a[c] for c in free):
            return False
    return True


def _exact_rref(rows: list[list[int]], width: int,
                pivots: list[tuple[int, list[tuple[int, int]]]]) -> list[Vector]:
    """The RREF basis of the span of integer rows, from all their echelon
    pivots mod P: the certified modular RREF, else `rref` over Fraction.

    1. Back-substitution turns the pivots into the RREF mod P.
    2. Each entry is rebuilt by rational reconstruction, giving a
       candidate R; its 1s and 0s in the pivot columns are exact.
    3. `_certify` checks that the row space of A lies in that of R. The
       rank mod P never exceeds the rank over Q, so rank A >= rank R, the
       two row spaces are equal, and R, a matrix in RREF, is rref(A): a row
       space has one RREF.
    4. If an entry has no reconstruction or the check fails, elimination
       over Fraction gives the answer.
    """
    red = []
    for _, terms in pivots:
        row = [0] * width
        for j, x in terms:
            row[j] = x
        red.append(row)
    for i in range(len(pivots) - 1, 0, -1):
        col, below = pivots[i][0], red[i]
        for j in range(i):
            c = red[j][col]
            if c:
                red[j] = [(x - c * y) % P for x, y in zip(red[j], below)]
    order = sorted(range(len(pivots)), key=lambda i: pivots[i][0])
    pivot_columns = [pivots[i][0] for i in order]
    seen: dict[int, Fraction | None] = {}
    reduced = []
    for i in order:
        row = []
        for x in red[i]:
            if x not in seen:
                seen[x] = _rational_mod_p(x)
            row.append(seen[x])
        reduced.append(tuple(row))
    if None not in seen.values() and _certify(rows, width, pivot_columns, reduced):
        return reduced
    res = rref(Matrix(len(rows), width, rows))
    return [res.reduced.row(i) for i in range(res.rank)]


def _rank(rows: list[list[int]], width: int) -> int:
    """Rank of integer rows: the rank mod P when it is min(rows, width),
    else the length of the exact RREF basis."""
    full = min(len(rows), width)
    pivots, _ = _echelon_mod_p(rows, full)
    if len(pivots) == full:
        return full
    return len(_exact_rref(rows, width, pivots))


def _basis(rows: Iterable[Sequence[int]], width: int) -> list[Vector]:
    """Canonical (RREF) basis of the span of integer rows, read lazily.

    A span of full width is all of Q^width, whose RREF basis is the
    standard unit vectors; no exact elimination is needed then.
    """
    pivots, read = _echelon_mod_p(rows, width)
    if len(pivots) == width:
        zero, one = Fraction(0), Fraction(1)
        return [(zero,) * i + (one,) + (zero,) * (width - i - 1)
                for i in range(width)]
    return _exact_rref(read, width, pivots)


def row_space_rank(vectors: Sequence[Sequence]) -> int:
    """Dimension of the span of the given coordinate vectors (0 for none)."""
    rows = _int_rows(vectors)
    return _rank(rows, len(rows[0])) if rows else 0


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
