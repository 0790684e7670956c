"""Finite graded-commutative algebras over the rationals.

An algebra is a named basis per complex degree 0..d, a structure-constant table
for every degree pair with k1+k2 <= d, and an integration functional on the top
degree. Cohomological degree 2k is internal degree k; odd degrees are not
modeled, so the product is honestly commutative, with no Koszul signs.

The structure constants are stored sparsely. A *cell* is the product of two
basis classes as a tuple of (t, c) terms, t ascending and c nonzero: an int
when it is integral, else a Fraction. That coefficient rule lives here alone
(`_integral`), and every Element lefalg builds follows it too (`_coords`); a
hand-built table or Element may also hold integral Fractions, and ints and
Fractions agree on ==, hash and str. A zero product is the empty cell ().
Every algebra's tables are one read-only `_Tables`. A constructed algebra builds
no table until it is read: `build_product_tables` asks its rule, and a
`tensor_product` its Kronecker fold (`_Kronecker`), for a pair, and files its
mirror as the transpose, one set of cell objects, so only a file's or a mapping's
tables can be non-commutative (the constructors refuse them, `_require_sound`).
Each cell is checked as it is formed, which also finds whether it holds only
ints; the tables record each pair whose cells all do (``ints``). Cells are what products, verification, pairings, ring maps
(`RingMap.images`) and the file format read; `GradedAlgebra.products` is a
dense view. An integral cell is a `linalg.Row`, so the generator search, the
pairing ranks and the Lefschetz stage hand the cells of `_int_table` to
`linalg`, the one module that eliminates. A `tensor_product` keeps its factor
algebras (``_factors``), from which the Lefschetz stage reads it and
`verify_algebra` verifies it (Kunneth).

Degree k > d has dimension 0, so its only element is the zero with no
coordinates, ``a.zero(k)``. A product whose degrees sum past d is that
element; no stored flag marks it.

`CheckReport` is a namedtuple, so it also compares equal to the plain tuple
``(violations,)``.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterable, Mapping, Sequence
from fractions import Fraction
from itertools import product
from math import lcm

from .linalg import (
    Matrix,
    Row,
    Vector,
    _add_row,
    _dense,
    _int_rows,
    _rank,
    _unit_cells,
    dot,
    format_rational,
    scalar,
    vadd,
    vector,
)

Cell = tuple[tuple[int, int | Fraction], ...]


def _integral(c: int | Fraction) -> int | Fraction:
    """c as an int when it is integral, else the Fraction c itself."""
    return c.numerator if c.denominator == 1 else c


def _coords(values: Iterable) -> tuple:
    """Element coordinates: each value exact (`scalar`), an int when integral (`_integral`)."""
    return tuple(v if type(v) is int else _integral(scalar(v)) for v in values)


def sparse_cell(acc: dict) -> Cell:
    """The cell of an accumulator {t: c}: t ascending, zero terms dropped."""
    return tuple(sorted((t, _integral(c)) for t, c in acc.items() if c))


def _check_cell(cell, n: int) -> bool:
    """Whether every coefficient is an int. Raise unless cell is canonical in a degree of
    dimension n: TypeError for a coefficient not an int or a Fraction, else ValueError."""
    last, ints = -1, True
    for term in cell if type(cell) is tuple else [()]:
        if type(term) is tuple and len(term) == 2:
            t, c = term
            if type(c) is not int:
                if type(c) is not Fraction:
                    raise TypeError(f"coefficient {c!r} is not an int or a Fraction")
                ints = False
            if type(t) is int and last < t < n and c:
                last = t
                continue
        raise ValueError(f"{cell!r} is not a tuple of (t, c) terms with t "
                         f"ascending in 0..{n - 1} and c nonzero")
    return ints


class _Tables(Mapping):
    """The structure-constant tables of an algebra of the given dims, read-only: every
    key (k1, k2) with k1 + k2 <= d, each table a tuple of tuple rows. ``ints`` holds the
    keys of the built pairs whose cells, in both orientations, hold only ints. A table not
    there yet (None) is built on its first read, with its mirror, by the subclass's
    `_build` from ``_source``, dropped once all are built.
    """

    __slots__ = ("dims", "ints", "_tables", "_source")

    def __init__(self, dims: Sequence[int], source=None):
        self.dims, self.ints, self._source, n = tuple(dims), set(), source, len(dims)
        self._tables = dict.fromkeys((k1, k2) for k1 in range(n) for k2 in range(n - k1))

    def __getitem__(self, key):
        table = self._tables[key]
        if table is None:
            self._build(*sorted(key))
            table = self._tables[key]
            if None not in self._tables.values():
                self._source = None
        return table

    def __contains__(self, key):
        return key in self._tables

    def __iter__(self):
        return iter(self._tables)

    def __len__(self):
        return len(self._tables)

    def _store(self, k1: int, k2: int, rows: list[list], ints: bool) -> None:
        """File rows, k1 <= k2, as table (k1, k2) and their transpose as (k2, k1), one
        set of cell objects, both in ``ints`` if ints says every cell holds only ints; a
        diagonal table's cells below the diagonal are those above."""
        cols = list(zip(*rows)) if rows else [()] * self.dims[k2]
        if k1 == k2:
            for i in range(1, len(rows)):
                rows[i][:i] = cols[i][:i]
        self._tables[k1, k2] = rows = tuple(map(tuple, rows))
        self._tables[k2, k1] = rows if k1 == k2 else tuple(cols)
        if ints:
            self.ints.update(((k1, k2), (k2, k1)))


def _checked_tables(tables: Mapping, dims: tuple[int, ...]) -> _Tables:
    """The tables as a `_Tables`, every shape and cell checked; a cell left of lo that
    is its mirror's object is checked there. A pair is in ``ints`` when the cells of
    both its orientations, which a version 1 file need not make equal, hold only ints."""
    out, fractional = _Tables(dims), set()
    for k1, k2 in out:
        if (k1, k2) not in tables:
            raise ValueError(f"missing product table for degrees ({k1},{k2})")
        out._tables[k1, k2] = rows = tuple(map(tuple, tables[k1, k2]))
        if len(rows) != dims[k1] or any(len(row) != dims[k2] for row in rows):
            raise ValueError(f"product table ({k1},{k2}) is not {dims[k1]}x{dims[k2]}")
    for (k1, k2), table in out._tables.items():
        mirror, n, ints = out._tables[k2, k1], dims[k1 + k2], True
        try:
            for i, row in enumerate(table):
                lo = i if k1 == k2 else 0 if k1 < k2 else len(row)
                for j, cell in enumerate(row):
                    if cell != () and (j >= lo or mirror[j][i] is not cell):
                        ints &= _check_cell(cell, n)
        except (TypeError, ValueError) as e:
            raise type(e)(f"product table ({k1},{k2}) cell ({i},{j}): {e}") from None
        if not ints:
            fractional.update(((k1, k2), (k2, k1)))
    out.ints = set(out._tables) - fractional
    return out


def _refuse_bools(*ints) -> None:
    if bool in map(type, ints):  # True == 1, but a bool is no degree or index
        raise TypeError(f"a degree or index must be an int, not a bool: {ints!r}")


class GradedAlgebra:
    """A finite graded-commutative Q-algebra with integration.

    ``basis[k]`` is the ordered label tuple of degree k. ``tables`` is a
    read-only `_Tables`: ``tables[(k1, k2)][i][j]`` is the cell of b_i * b_j
    in degree k1+k2 (see the module docstring), for every ordered pair with
    k1+k2 <= d. ``integration`` is a coordinate functional on degree d.

    The constructor takes any mapping of such tables (rows may be any
    sequences) and checks every shape and cell: a coefficient that is not an
    int or a Fraction raises TypeError, anything else ValueError. A `_Tables`
    of its dims checks each cell as it is filled, and is taken as it is.
    Dense vectors are read only from payloads (`serialize.algebra_from_payload`);
    ``a.products`` is a read-only dense view, densified a pair at a time when read.
    An algebra made here keeps no factors (``_factors`` is ()), whatever its tables;
    only `tensor_product` sets them on the product it returns.
    """

    __slots__ = ("name", "basis", "tables", "integration", "_label_map", "_factors")

    def __init__(self, name: str, basis: Sequence[Sequence[str]],
                 tables: Mapping, integration: Sequence):
        basis = tuple(tuple(str(lbl) for lbl in deg) for deg in basis)
        if not basis:
            raise ValueError("an algebra needs at least degree 0")
        if len(basis[0]) != 1:
            raise ValueError("degree 0 must have exactly one basis element (the unit)")
        label_map: dict[str, tuple[int, int]] = {}
        for k, labels in enumerate(basis):
            for i, lbl in enumerate(labels):
                if lbl in label_map:
                    raise ValueError(f"duplicate basis label {lbl!r}")
                label_map[lbl] = (k, i)
        dims = tuple(len(deg) for deg in basis)  # a _Tables checks each cell as it is filled
        if type(tables) not in (_Tables, _Built, _Kronecker) or tables.dims != dims:
            tables = _checked_tables(tables, dims)
        integration = vector(integration)
        if len(integration) != len(basis[-1]):
            raise ValueError("integration vector length != top-degree dimension")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "tables", tables)
        object.__setattr__(self, "integration", integration)
        object.__setattr__(self, "_label_map", label_map)
        object.__setattr__(self, "_factors", ())

    def __setattr__(self, name, value):
        raise AttributeError("GradedAlgebra is immutable")

    @property
    def products(self) -> "_DenseTables":
        return _DenseTables(self.dims, self.tables)

    # shape -------------------------------------------------------------

    @property
    def top_degree(self) -> int:
        return len(self.basis) - 1

    def dim(self, k: int) -> int:
        return self.tables.dims[k] if 0 <= k <= self.top_degree else 0

    @property
    def dims(self) -> tuple[int, ...]:
        return self.tables.dims

    # element construction -----------------------------------------------

    def element(self, k: int, coords: Iterable) -> "Element":
        _refuse_bools(k)
        coords = _coords(coords)
        if not 0 <= k <= self.top_degree:
            raise ValueError(f"degree {k} outside 0..{self.top_degree}")
        if len(coords) != self.dim(k):
            raise ValueError(f"expected {self.dim(k)} coordinates in degree {k}, "
                             f"got {len(coords)}")
        return Element(self, k, coords)

    def unit(self) -> "Element":
        return Element(self, 0, (1,))

    def zero(self, k: int) -> "Element":
        """Zero of degree k; above the top degree it has no coordinates."""
        _refuse_bools(k)
        if k < 0:
            raise ValueError(f"degree {k} is negative")
        return Element(self, k, (0,) * self.dim(k))

    def basis_element(self, k: int, i: int) -> "Element":
        _refuse_bools(k, i)
        if not 0 <= i < self.dim(k):
            raise ValueError(f"no basis class {i} in degree {k} of {self.name}")
        return Element(self, k, (0,) * i + (1,) + (0,) * (self.dim(k) - i - 1))

    def label_location(self, label: str) -> tuple[int, int] | None:
        return self._label_map.get(label)

    def by_label(self, label: str) -> "Element":
        loc = self.label_location(label)
        if loc is None:
            raise ValueError(f"no basis label {label!r} in {self.name}")
        return self.basis_element(*loc)

    # structural equality (used by the file round-trip contract) ----------

    def __eq__(self, other):
        if not isinstance(other, GradedAlgebra):
            return NotImplemented
        # cells are canonical, so equal cells mean equal products
        return (self.name == other.name and self.basis == other.basis
                and self.tables == other.tables
                and self.integration == other.integration)

    def __hash__(self):
        return hash((self.name, self.basis))

    def __repr__(self):
        return f"GradedAlgebra({self.name!r}, dims={self.dims})"


class _DenseTables(_Tables):
    """``a.products``: the dense coordinate tables of the cell tables ``_source``, each
    orientation of a pair densified from its own cells when the pair is read:
    ``view[(k1, k2)][i][j]`` is the coordinate vector of b_i * b_j."""

    def _build(self, k1: int, k2: int) -> None:
        for key in ((k1, k2), (k2, k1)):
            self._tables[key] = tuple(tuple(_dense(cell, self.dims[k1 + k2]) for cell in row)
                                      for row in self._source[key])


def _int_table(a: GradedAlgebra, k1: int, k2: int) -> Sequence:
    """The (k1, k2) table as stored if its cells hold only ints (``ints``), else
    a copy with each coefficient times one scale, the lcm of its denominators:
    ``rows[i][j]`` holds integer (t, c) terms on the line of b_i * b_j, which
    is all a rank sees, so the scale is not returned."""
    table = a.tables[k1, k2]
    if (k1, k2) in a.tables.ints:
        return table
    scale = lcm(*{c.denominator for row in table for cell in row for _, c in cell})
    return [[[(t, c.numerator * (scale // c.denominator)) for t, c in cell]
             if cell else () for cell in row] for row in table]


class Element:
    """A homogeneous class: a degree plus exact coordinates in that degree (`_coords`)."""

    __slots__ = ("algebra", "degree", "coords")

    def __init__(self, algebra: GradedAlgebra, degree: int, coords: Vector):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("Element is immutable")

    @property
    def above_top(self) -> bool:
        return self.degree > self.algebra.top_degree

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def _require_same_algebra(self, other: "Element"):
        if self.algebra is not other.algebra:
            raise ValueError("elements live in different algebras")

    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        self._require_same_algebra(other)
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")
        return Element(self.algebra, self.degree, _coords(vadd(self.coords, other.coords)))

    def __sub__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Element(self.algebra, self.degree, _coords(-c for c in self.coords))

    def __mul__(self, other):
        if isinstance(other, Element):
            return multiply(self, other)
        if isinstance(other, bool) or not isinstance(other, (int, Fraction)):
            return NotImplemented  # a scalar is an int or a Fraction, never a string
        return Element(self.algebra, self.degree, _coords(other * x for x in self.coords))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n: int):
        if isinstance(n, bool) or not isinstance(n, int):
            return NotImplemented  # an exponent is an int, never a bool or a string
        if n < 0:
            raise ValueError("powers must be nonnegative integers")
        a, k = self.algebra, self.degree
        if n == 0:
            return a.unit()
        if k and n * k > a.top_degree:
            return a.zero(n * k)  # past the top degree, with no product formed
        out = self
        for bit in bin(n)[3:]:  # square and multiply: at most 2 log2(n) products
            out = multiply(out, out) if bit == "0" else multiply(multiply(out, out), self)
        return out

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return (self.algebra is other.algebra and self.degree == other.degree
                and self.coords == other.coords)

    def __hash__(self):
        return hash((id(self.algebra), self.degree, self.coords))

    def __str__(self):
        return render_element(self)

    def __repr__(self):
        return f"<deg {self.degree}: {render_element(self)}>"


def _checked_class(a: GradedAlgebra, x, k: int, what: str) -> Element:
    """x, if it is an Element of a of degree k; else ValueError naming what."""
    if not isinstance(x, Element) or x.algebra is not a:
        raise ValueError(f"{what} must be an element of {a.name}")
    if x.degree != k:
        raise ValueError(f"{what} must be homogeneous of degree {k}")
    return x


def _degree_one_sum(a: GradedAlgebra) -> Element | None:
    """The default omega: the sum of the degree-one basis classes, or None
    in top degree 0."""
    return a.element(1, [1] * a.dim(1)) if a.top_degree else None


def render_element(x: Element) -> str:
    """Human-readable sum of coefficient*label terms, exact rationals."""
    if x.is_zero:
        return "0"
    labels = x.algebra.basis[x.degree]
    parts = []
    for c, lbl in zip(x.coords, labels):
        if c == 0:
            continue
        mag = abs(c)
        if lbl == "1":
            body = format_rational(mag)
        elif mag == 1:
            body = lbl
        else:
            body = f"{format_rational(mag)}*{lbl}"
        parts.append(("-" if c < 0 else "+", body))
    sign, body = parts[0]
    text = body if sign == "+" else "-" + body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def multiply(x: Element, y: Element) -> Element:
    """Cup product; past the top degree it is the zero of the degree sum."""
    if not isinstance(x, Element) or not isinstance(y, Element):
        raise TypeError("multiply expects two Elements")
    if x.algebra is not y.algebra:
        raise ValueError("elements live in different algebras")
    a = x.algebra
    k = x.degree + y.degree
    if k > a.top_degree:
        return a.zero(k)
    acc = [0] * a.dim(k)
    _add_product(acc, a.tables[x.degree, y.degree], x.coords, y.coords)
    return Element(a, k, _coords(acc))


def _add_product(acc: list, table: Sequence, x: Sequence, y: Sequence) -> None:
    """Add the coordinates of x*y to acc, x and y the coordinate vectors of two
    classes whose degrees' table is ``table``: one cell per pair of nonzero
    coordinates."""
    ys = [(j, cj) for j, cj in enumerate(y) if cj]
    for row, ci in zip(table, x):
        for j, cj in ys if ci else ():
            f = ci * cj
            for t, c in row[j]:
                acc[t] += f * c


def integrate(x: Element) -> Fraction:
    """Apply the degree-d integration functional; it is 0 above degree d."""
    a = x.algebra
    if x.above_top:
        return Fraction(0)
    if x.degree != a.top_degree:
        raise ValueError(f"integrate needs degree {a.top_degree}, got {x.degree}")
    return dot(a.integration, x.coords)


def pairing_matrix(a: GradedAlgebra, k: int) -> Matrix:
    """Poincare pairing of degree k against degree d-k: (i,j) -> int(b_i c_j)."""
    d = a.top_degree
    if not 0 <= k <= d:
        raise ValueError(f"degree {k} outside 0..{d}")
    w = a.integration
    return Matrix(a.dim(k), a.dim(d - k),
                  [[sum((w[t] * c for t, c in cell), Fraction(0)) for cell in row]
                   for row in a.tables[(k, d - k)]])


class CheckReport(namedtuple("CheckReport", "violations")):
    """The violations a check found, as a tuple of messages."""
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def _combine(terms: Sequence[tuple[int | Fraction, Cell]]) -> Cell:
    """The cell of the sum of c * cell over the (c, cell) terms; the empty
    sum, which a zero product gives, is the empty cell."""
    if not terms:
        return ()
    if len(terms) == 1:
        c, cell = terms[0]
        return cell if c == 1 else tuple((t, _integral(c * v)) for t, v in cell)
    acc: dict = {}
    for c, cell in terms:
        for t, v in cell:
            acc[t] = acc.get(t, 0) + c * v
    return sparse_cell(acc)


def _generators(a: GradedAlgebra) -> tuple[list[list[int]], dict]:
    """Basis classes S_k per degree k (none in degree 0) that generate a,
    and the pairs `verify_algebra` checks associativity on.

    W^k is spanned by the cells s*b for s in S_j and b a basis class of
    degree k-j, 1 <= j < k; S_k takes each basis class that raises the
    rank of W^k (`_add_row` on the cells of `_int_table` and the shared unit
    cells, which are rows as they are). So the kept cells, those that raised
    it, and S_k span degree k, and by induction on k every class is a sum of
    products of the unit and classes of S.

    The pairs are ``{(k1, k2): [(i, j), ...]}``, sorted: every kept pair
    (s, b) and every ordered pair of generators with k1 + k2 <= d.
    """
    d = a.top_degree
    gens: list[list[int]] = [[]]
    pairs: dict = {}
    for k in range(1, d + 1):
        n, pivots = a.dim(k), {}
        for j in range(1, k):
            if not gens[j]:
                continue  # no generator in degree j: its table is not read
            table = _int_table(a, j, k - j)
            for s in gens[j]:
                for b, cell in enumerate(table[s]):
                    if cell and len(pivots) < n and _add_row(pivots, cell, n):
                        pairs.setdefault((j, k - j), set()).add((s, b))
        gens.append([i for i, unit in enumerate(_unit_cells(n)[:n])
                     if _add_row(pivots, unit, n)])
    for k1 in range(1, d + 1):
        for k2 in range(1, d + 1 - k1):
            if gens[k1] and gens[k2]:
                pairs.setdefault((k1, k2), set()).update(product(gens[k1], gens[k2]))
    return gens, {key: sorted(ij) for key, ij in pairs.items()}


def _associativity(a: GradedAlgebra, pairs: Mapping) -> list[str]:
    """Compare (b_i b_j) b_l with b_i (b_j b_l) for each pair (i, j) of
    ``pairs[(k1, k2)]`` and every basis class b_l, in the order
    (k1, k2, k3, i, j, l). A side is composed as `_compose` does, inlined: zero
    if b_i b_j or b_j b_l is empty, a stored cell if it is a unit cell."""
    bad: list[str] = []
    d = a.top_degree
    tables = a.tables
    for (k1, k2), ij in sorted(pairs.items()):  # a key without pairs reads no table
        t12 = tables[(k1, k2)]
        for k3 in range(d + 1 - k1 - k2):
            t12_3 = tables[(k1 + k2, k3)]
            t23 = tables[(k2, k3)]
            t1_23 = tables[(k1, k2 + k3)]
            n3 = a.dim(k3)
            for i, j in ij:
                row1 = t1_23[i]
                bij = t12[i][j]
                if not bij:
                    lhs_row = [()] * n3
                elif len(bij) == 1 and bij[0][1] == 1:
                    lhs_row = t12_3[bij[0][0]]
                else:
                    lhs_row = [_combine([(c, t12_3[t][l]) for t, c in bij])
                               for l in range(n3)]
                for l, bjl in enumerate(t23[j]):
                    lhs = lhs_row[l]
                    if not bjl:
                        same = not lhs
                    elif len(bjl) == 1 and bjl[0][1] == 1:
                        same = lhs == row1[bjl[0][0]]
                    else:
                        same = lhs == _combine([(c, row1[s]) for s, c in bjl])
                    if not same:
                        bad.append(
                            f"associativity fails on degrees "
                            f"({k1},{k2},{k3}) indices ({i},{j},{l})")
    return bad


def verify_algebra(a: GradedAlgebra) -> CheckReport:
    """Check the ring axioms and ambient Poincare duality, reporting violations.

    Covers the unit law, commutativity of every stored table pair,
    associativity, a nonzero integration functional, and full-rank pairing
    in every degree. Violations are data, not exceptions.

    Associativity is checked on the pairs of `_generators`: each pair (i, j)
    is the triple (b_i b_j) b_l = b_i (b_j b_l) for every basis class b_l.
    Let L_x be multiplication by x and C the algebra of operators that the
    L_s, s in the generating set S, generate. Given the unit law and
    commutativity, which are checked first:

    - the pairs (s, t) and (t, s) of generators give L_s L_t = L_t L_s, so C
      is commutative;
    - a kept pair (s, b) gives L_{s b} = L_s L_b, and the kept cells and
      S_k span degree k, so by induction on k every L_y lies in C;
    - T -> T(1) is injective on C, since T(b) = T L_b(1) = L_b T(1);
    - L_x L_y and L_{xy} lie in C and both send 1 to xy, so they are equal.

    That is associativity on every basis triple, checked on O(n^2) of them.
    When the unit law or commutativity fails, or a pair shows a violation,
    the full scan over all basis triples runs and its violations are the
    ones reported, so the report is always the full scan's.

    A `tensor_product` (an algebra that keeps its factors, ``_factors``) is
    verified from its factors first: each distinct one once, in order, a product
    factor from its own. By Kunneth a tensor product of unital, commutative,
    associative algebras is one, and its pairing, the Kronecker product of theirs,
    is nondegenerate exactly when theirs are; so clean factors make a clean report
    and no product table is read. If a factor fails, the product is scanned as above.
    """
    factors = {id(f): f for f in a._factors}
    if factors and all(verify_algebra(f).ok for f in factors.values()):
        return CheckReport(())
    bad: list[str] = []
    d = a.top_degree
    tables = a.tables
    for k in range(d + 1):
        for i, cell in enumerate(tables[(0, k)][0]):
            if cell != ((i, 1),):
                bad.append(f"unit law fails on degree {k} basis #{i} "
                           f"({a.basis[k][i]})")
    bad += _commutativity(a)
    if bad or _associativity(a, _generators(a)[1]):
        every = {(k1, k2): list(product(range(a.dim(k1)), range(a.dim(k2))))
                 for k1, k2 in tables}
        bad += _associativity(a, every)
    return CheckReport(tuple(bad + _pairing_violations(a)))


def _commutativity(a: GradedAlgebra) -> list[str]:
    """The commutativity lines of `verify_algebra`: each cell of a table (k1, k2),
    k1 <= k2, that differs from its mirror's."""
    bad, d, tables = [], a.top_degree, a.tables
    for k1 in range(d + 1):
        for k2 in range(k1, d + 1 - k1):
            table, mirror = tables[(k1, k2)], tables[(k2, k1)]
            for i, row in enumerate(table):
                for j, cell in enumerate(row):
                    if cell is not (other := mirror[j][i]) and cell != other:
                        bad.append(f"commutativity fails at degrees ({k1},{k2}) "
                                   f"indices ({i},{j})")
    return bad


def _require_sound(a: GradedAlgebra, what: str) -> None:
    """Raise ValueError naming a and its first `_commutativity`, else `_pairing_violations`,
    line. Only the tables of a file or mapping (`_checked_tables`) are scanned: built tables
    file each mirror as a transpose, so no table of a constructed input is built here."""
    if bad := (type(a.tables) is _Tables and _commutativity(a)) or _pairing_violations(a):
        raise ValueError(f"{what} {a.name}: {bad[0]}")


def _integrals(a: GradedAlgebra, rows: Iterable[Iterable[Row]]) -> list[Row]:
    """Each row of integer rows of degree d (`_int_table` cells or product rows)
    as the row of their integrals against the integration cleared by
    `_int_rows`; an empty one is skipped, since its integral is 0."""
    w = dict(_int_rows([a.integration])[0])
    return [[(j, v) for j, terms in enumerate(row)
             if terms and (v := sum([w.get(t, 0) * c for t, c in terms]))]
            for row in rows]


def _int_pairing(a: GradedAlgebra, k: int) -> list[Row]:
    """`_int_table(a, k, d - k)` integrated (`_integrals`): integer rows, a
    nonzero multiple of `pairing_matrix(a, k)`."""
    return _integrals(a, _int_table(a, k, a.top_degree - k))


def _pairing_violations(a: GradedAlgebra) -> list[str]:
    """The integration and pairing lines of `verify_algebra`; degree k is
    ranked on `_int_pairing(a, k)`."""
    bad: list[str] = []
    d = a.top_degree
    if a.dim(d) > 0 and all(c == 0 for c in a.integration):
        bad.append("integration functional is identically zero")
    for k in range(d + 1):
        n, m = a.dim(k), a.dim(d - k)
        if n != m:
            bad.append(f"pairing at degree {k} is not square: {n}x{m}")
            continue
        rank = _rank(_int_pairing(a, k), n)
        if rank != n:
            bad.append(f"pairing at degree {k} is singular (rank {rank} of {n})")
    return bad


class RingMap:
    """Degree-preserving algebra map: ``images[k][i]`` is the cell of f(b_i)
    in target degree k, b_i the source's basis class i of degree k, for
    k = 0..min(top(source), top(target)), each checked as a table cell is
    (`_check_cell`). Above the target's top degree the map is zero by
    convention.
    """

    __slots__ = ("source", "target", "images")

    def __init__(self, source: GradedAlgebra, target: GradedAlgebra,
                 images: Sequence[Sequence[Cell]]):
        kmax = min(source.top_degree, target.top_degree)
        images = tuple(map(tuple, images))
        if len(images) != kmax + 1:
            raise ValueError(f"need images for degrees 0..{kmax}, got {len(images)}")
        for k, cells in enumerate(images):
            if len(cells) != source.dim(k):
                raise ValueError(f"degree {k} has {len(cells)} images, expected {source.dim(k)}")
            for cell in cells:
                _check_cell(cell, target.dim(k))
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value):
        raise AttributeError("RingMap is immutable")

    def __call__(self, x: Element) -> Element:
        return apply_ring_map(self, x)


def apply_ring_map(f: RingMap, x: Element) -> Element:
    """f(x), summed over the image cells."""
    if x.algebra is not f.source:
        raise ValueError("element does not belong to the map's source")
    k = x.degree
    if k >= len(f.images):
        return f.target.zero(k)
    cell = _combine([(c, img) for c, img in zip(x.coords, f.images[k]) if c])
    return Element(f.target, k, _coords(_dense(cell, f.target.dim(k))))


def _compose(cell: Cell, cells: Sequence[Cell]) -> Cell:
    """The cell of the sum of c * cells[t] over the terms (t, c) of cell: empty for
    the empty cell, cells[s] for a unit cell ((s, 1),), else built (`_combine`)."""
    if not cell:
        return ()
    if len(cell) == 1 and cell[0][1] == 1:
        return cells[cell[0][0]]
    return _combine([(c, cells[t]) for t, c in cell])


def _cells(vectors: Iterable[Sequence]) -> list[Cell]:
    """The cell of each coordinate vector."""
    return [sparse_cell(dict(enumerate(v))) for v in vectors]


def verify_ring_map(f: RingMap) -> CheckReport:
    """Check unit preservation and multiplicativity on all basis pairs.

    Pairs with degree sum above the source top (where the source product is
    zero) are still checked against the target product, so maps that crush a
    relation the target does not satisfy are caught. Pairs with degree sum
    above the target top are skipped, and no source table of theirs is read:
    the map is zero there, so both sides are. Both sides are composed from the
    image cells (`_compose`), f(x)f(y) as f(x) over the target rows composed
    with f(y). Elements only render a violation.
    """
    bad: list[str] = []
    src, tgt = f.source, f.target
    if f.images[0][0] != ((0, 1),):
        bad.append("unit is not mapped to unit")
    ds, dt = src.top_degree, tgt.top_degree
    for k1 in range(min(ds, dt) + 1):
        for k2 in range(min(ds, dt - k1) + 1):
            k = k1 + k2
            src_table, tgt_table = src.tables[k1, k2] if k <= ds else None, tgt.tables[k1, k2]
            for i, fx in enumerate(f.images[k1]):
                for j, fy in enumerate(f.images[k2]):
                    lhs = () if src_table is None else _compose(src_table[i][j], f.images[k])
                    rhs = _combine([(a, _compose(fy, tgt_table[s])) for s, a in fx])
                    if lhs != rhs:
                        n = tgt.dim(k)
                        bad.append(f"multiplicativity fails on degrees "
                                   f"({k1},{k2}) indices ({i},{j}): "
                                   f"f(xy) = {Element(tgt, k, _dense(lhs, n))} "
                                   f"but f(x)f(y) = {Element(tgt, k, _dense(rhs, n))}")
    return CheckReport(tuple(bad))


def build_product_tables(basis: Sequence[Sequence[str]],
                         mult: Callable[[int, int, int, int], Cell]) -> _Tables:
    """The tables of a GradedAlgebra on basis from a rule, no pair built before it is read.

    ``mult(k1, i, k2, j)`` must return the cell of b_i * b_j in degree k1+k2. It is
    consulted for k1 <= k2 (i <= j when k1 == k2) when the pair is first read, so a
    rule's error surfaces there; each cell is checked (`_check_cell`) as it is formed
    and filed with its mirror (`_Tables._store`), so the constructor takes the tables as
    they are; the pair is in ``ints`` when every coefficient the check met is an int.
    """
    return _Built([len(labels) for labels in basis], mult)


class _Memo(dict):
    """memo[key] is f(memo, *key), formed on its first read: f recurses through
    the memo it is handed, not through a closure, so neither holds a cycle."""
    def __init__(self, f: Callable, *items):
        super().__init__(*items)
        self.f = f

    def __missing__(self, key):
        self[key] = out = self.f(self, *key)
        return out


class _Built(_Tables):
    """The tables of `build_product_tables`, built from the rule ``_source`` a pair at a time."""

    def _build(self, k1: int, k2: int) -> None:
        dims, n, ints = self.dims, self.dims[k1 + k2], True
        rows = [[()] * dims[k2] for _ in range(dims[k1])]
        for i, row in enumerate(rows):
            for j in range(i if k1 == k2 else 0, dims[k2]):
                row[j] = cell = self._source(k1, i, k2, j)
                try:
                    if cell != ():
                        ints &= _check_cell(cell, n)
                except (TypeError, ValueError) as e:
                    raise type(e)(f"product table ({k1},{k2}) cell ({i},{j}): {e}") from None
        self._store(k1, k2, rows, ints)


def tensor_product(a: GradedAlgebra, b: GradedAlgebra, *more: GradedAlgebra,
                   name: str | None = None) -> GradedAlgebra:
    """Kunneth product of two or more factors: one left fold of `_Kronecker`, with the
    name, labels, cells and integration of (a x b) x c, and no table built before it is
    read. It keeps its factors (``_factors``), from which `verify_algebra` verifies it and
    `lefschetz.lefschetz_subalgebra` reads it. The fold files each mirror as a transpose,
    the product only of commutative factors, and its pairing, the Kronecker product of
    theirs, is nondegenerate exactly when theirs are; so each distinct factor that is not a
    product (a product's were checked when it was built) is checked once, in order
    (`_require_sound`), and a non-commutative or degenerate one raises ValueError."""
    factors = (a, b, *more)
    for f in {id(f): f for f in factors if not f._factors}.values():
        _require_sound(f, "factor")
    basis, tables, w = a.basis, a.tables, a.integration
    for f in factors[1:]:
        tables = _Kronecker(basis, tables, f.basis, f.tables)
        basis, w = tables.basis, [cp * cq for cp in w for cq in f.integration]  # p-major
    out = GradedAlgebra(name or "x".join(f.name for f in factors), basis, tables, w)
    object.__setattr__(out, "_factors", factors)
    return out


def _blocks(adims: Sequence[int], bdims: Sequence[int]) -> list[dict[int, int]]:
    """The Kunneth layout of a x b, for factor dims adims and bdims: for each degree k,
    {i: where block (i, k-i) begins}, i descending, so the first factor's classes come
    first; inside a block, a_p (x) b_q sits at position p * bdims[k-i] + q."""
    da, db, out = len(adims) - 1, len(bdims) - 1, []
    for k in range(da + db + 1):
        out.append({})
        at = 0
        for i in range(min(k, da), max(0, k - db) - 1, -1):
            out[k][i], at = at, at + adims[i] * bdims[k - i]
    return out


def _unit(cell: Cell) -> int:
    """t for a unit cell ((t, 1),), else -1."""
    return cell[0][0] if len(cell) == 1 and cell[0][1] == 1 else -1


class _Kronecker(_Tables):
    """The tables of the Kunneth product of (abasis, atables) and (bbasis, btables),
    ``basis`` its labels, each pair built on its first read.

    Degree k is laid out block by block (`_blocks`). Block (ia, ib) of table (k1, k2)
    is the Kronecker product of the left table (ia, ib) with the right table
    (k1-ia, k2-ib), its cells placed by that arithmetic; the left table is read only
    when the right one has a nonzero cell. A left cell's terms have p ascending and a
    right cell's q ascending, so the terms of their product come out in ascending
    position and no cell is sorted. The product of two unit cells ((p, 1),) and
    ((q, 1),) is the shared unit cell (`_unit_cells`) at its position; every other cell
    is checked (`_check_cell`) as it is formed. A diagonal table computes the blocks
    with ib <= ia and `_store` mirrors the rest. ``_source`` is the pair of factor
    tables; once every pair is built it goes, and the fold behind it.
    """

    __slots__ = ("basis", "_start")

    def __init__(self, abasis: Sequence, atables: _Tables, bbasis: Sequence, btables: _Tables):
        self._start = _blocks(atables.dims, btables.dims)  # start[k][i]: where block (i, k-i) begins
        self.basis = [[f"{x}⊗{y}" for i in start for x in abasis[i] for y in bbasis[k - i]]
                      for k, start in enumerate(self._start)]
        super().__init__([len(labels) for labels in self.basis], (atables, btables))

    def _build(self, k1: int, k2: int) -> None:
        """Store tables (k1, k2) and (k2, k1), k1 <= k2."""
        start, (atables, btables), k = self._start, self._source, k1 + k2
        bdims, n1, n2, n = btables.dims, *(self.dims[x] for x in (k1, k2, k))
        units, ints = _unit_cells(n), True
        rows = [[()] * n2 for _ in range(n1)]
        for ia, row0 in start[k1].items():
            for ib, col0 in start[k2].items():
                at = start[k].get(ia + ib)  # where the block's products begin
                if at is None or (k1 == k2 and ib > ia):
                    continue
                right = [(qa, qb, cell, _unit(cell))
                         for qa, row in enumerate(btables[k1 - ia, k2 - ib])
                         for qb, cell in enumerate(row) if cell]
                if not right:
                    continue
                nr, nc, nb = bdims[k1 - ia], bdims[k2 - ib], bdims[k - ia - ib]
                diagonal = k1 == k2 and ia == ib
                for pa, arow in enumerate(atables[ia, ib]):
                    # a diagonal block's cells left of pa are mirrored
                    for pb in range(pa if diagonal else 0, len(arow)):
                        if not (acell := arow[pb]):
                            continue
                        r, c, u = row0 + pa * nr, col0 + pb * nc, _unit(acell)
                        for qa, qb, bcell, v in right:
                            if u >= 0 and v >= 0:
                                cell = units[at + u * nb + v]
                            else:
                                cell = tuple((at + p * nb + q, _integral(cp * cq))
                                             for p, cp in acell for q, cq in bcell)
                                ints &= _check_cell(cell, n)
                            rows[r + qa][c + qb] = cell
        self._store(k1, k2, rows, ints)
