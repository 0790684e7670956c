"""Geometric constructors: projective spaces, blowups, projective bundles.

Everything here produces a GradedAlgebra with exact structure constants, from
a rule whose tables are built when first read (`build_product_tables`). The
blowup and bundle rules work symbolically on cells (see `ring`): basis
classes are reduced against the
defining relation (the exceptional e^r relation, the tautological zeta^s
relation) until they land in the chosen basis, once per basis class and power
(`ring._Memo`, which goes with the rule), with products read from the tables
of Y and Z. The pullback (a `ring.RingMap`) and the pushforward
(`adjoint_pushforward`) are one cell per basis class: `ring.verify_ring_map`
checks the pullback by comparing cells, and the blowup reads both as they are.
Every check of the inputs runs when the algebra is made; only cells wait for
a read. A bundle whose base already has z^i*... labels, as over another
bundle, names its class z2 (then z3, ...).

`BlowupInput` is a namedtuple, so it also compares equal to a plain tuple
of its fields.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from itertools import count

from .linalg import Matrix, _dense, rref
from .ring import (
    Cell,
    Element,
    GradedAlgebra,
    RingMap,
    _Memo,
    _add_product,
    _cells,
    _checked_class,
    _combine,
    _compose,
    _coords,
    _require_sound,
    apply_ring_map,
    build_product_tables,
    verify_ring_map,
)


def monomial_exponents(caps: Sequence[int], degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples of total `degree` with entry i at most caps[i].

    Descending lexicographic order; this fixes the basis order of every
    truncated polynomial ring.
    """
    grown = [((), degree)]  # (exponents so far, degree left)
    for cap in caps:
        grown = [(built + (e,), left - e) for built, left in grown
                 for e in range(min(cap, left), -1, -1)]
    return [built for built, left in grown if not left]


def _monomial_label(names: Sequence[str], exps: Sequence[int]) -> str:
    parts = []
    for g, e in zip(names, exps):
        if e == 1:
            parts.append(g)
        elif e > 1:
            parts.append(f"{g}^{e}")
    return "".join(parts) or "1"


def truncated_polynomial_algebra(name: str,
                                 gens: Sequence[tuple[str, int]]) -> GradedAlgebra:
    """Q[x_1..x_m] / (x_i^{cap_i + 1}) with its monomial basis.

    gens lists (label, cap) pairs; each generator has degree one. Labels are
    juxtaposed monomials ("ab", "y1^2y2"), the unit is "1", and integration
    sends the all-caps monomial to 1.
    """
    names = [g for g, _ in gens]
    caps = [c for _, c in gens]
    if any(type(c) is not int or c < 0 for c in caps):
        raise ValueError("exponent caps must be nonnegative integers")
    top = sum(caps)
    by_degree = [monomial_exponents(caps, m) for m in range(top + 1)]
    index = {e: i for m in range(top + 1) for i, e in enumerate(by_degree[m])}
    basis = [[_monomial_label(names, e) for e in degs] for degs in by_degree]

    def mult(k1, i, k2, j):
        total = tuple(a + b for a, b in zip(by_degree[k1][i], by_degree[k2][j]))
        return ((index[total], 1),) if total in index else ()  # index: the in-cap monomials

    return GradedAlgebra(name, basis, build_product_tables(basis, mult), [1])


def _times(a: GradedAlgebra, cell: Cell, k: int, kt: int, t: int) -> Cell:
    """The cell of x * b_t = b_t * x, read from a's row of b_t (a is commutative,
    `_require_sound`): x the degree-k class of cell, b_t the basis class t of
    degree kt; () past the top degree."""
    return () if k + kt > a.top_degree else _compose(cell, a.tables[kt, k][t])


def _layout(d: int, blocks: Sequence[tuple[Sequence[Sequence[str]], str]]
            ) -> tuple[list[list[str]], list[list[tuple[int, int]]], dict]:
    """Basis, decode tags and offsets, degrees 0..d, of a sum of shifted summands.

    Block b is (basis, prefix); in degree k it holds basis[k - b], labelled
    prefix + label. decode[k][t] = (b, j) places class t at index j of block b
    in degree k, and offset[(k, b)] is where block b starts in degree k.
    """
    basis, decode, offset = [], [], {}
    for k in range(d + 1):
        labels, tags = [], []
        for b, (summand, prefix) in enumerate(blocks):
            if 0 <= k - b < len(summand):
                offset[(k, b)] = len(labels)
                labels.extend(prefix + lbl for lbl in summand[k - b])
                tags.extend((b, j) for j in range(len(summand[k - b])))
        basis.append(labels)
        decode.append(tags)
    return basis, decode, offset


def projective_space(n: int, var: str = "h",
                     name: str | None = None) -> GradedAlgebra:
    """H^{2*}(P^n): one class per degree, h^a h^b = h^{a+b}, integral of h^n is 1."""
    if type(n) is not int or n < 0:
        raise ValueError(f"projective space needs n >= 0, got {n}")
    return truncated_polynomial_algebra(name or f"P{n}", [(var, n)])


def series(a: GradedAlgebra, terms: Sequence[Element]) -> list[Element]:
    """Normalize a by-degree list to one homogeneous Element per degree 0..d."""
    out = [a.zero(k) for k in range(a.top_degree + 1)]
    for k, t in enumerate(terms):
        if k > a.top_degree:
            break
        if t is not None:
            out[k] = _checked_class(a, t, k, f"series entry {k}")
    return out


def _convolved(a: GradedAlgebra, k: int, pairs) -> Element:
    """The sum of x*y over the pairs (x, y) of Elements of a whose degrees sum
    to k <= d, read from a's tables into one accumulator (`ring._add_product`)."""
    acc = [0] * a.dim(k)
    for x, y in pairs:
        _add_product(acc, a.tables[x.degree, y.degree], x.coords, y.coords)
    return a.element(k, acc)


def series_product(u: Sequence[Element], v: Sequence[Element]) -> list[Element]:
    """Convolution of two inhomogeneous classes, truncated at the top degree:
    each degree's terms summed on the tables into one Element (`_convolved`)."""
    if not u or not v:
        raise ValueError("series must be nonempty")
    a = u[0].algebra
    un, vn = series(a, u), series(a, v)
    return [_convolved(a, k, [(un[i], vn[k - i]) for i in range(k + 1)])
            for k in range(a.top_degree + 1)]


def chern_series_inverse(a: GradedAlgebra, u: Sequence[Element]) -> list[Element]:
    """Inverse of a total Chern class 1 + u_1 + u_2 + ... by degree recursion.

    With v_0 = 1 and v_k = -(u_1 v_{k-1} + ... + u_k v_0), the product u*v
    telescopes to 1 through the top degree; each v_k is summed on the tables
    into one Element (`_convolved`).
    """
    un = series(a, u)
    if un[0] != a.unit():
        raise ValueError("total class must have constant term 1")
    v = [a.unit()]
    for k in range(1, a.top_degree + 1):
        v.append(-_convolved(a, k, [(un[i], v[k - i]) for i in range(1, k + 1)]))
    return v


def adjoint_pushforward(pullback: RingMap, r: int) -> list[list[Cell]]:
    """Gysin pushforward determined by the projection formula.

    Returns one list of cells per center degree k: entry t is the cell of
    push(w_t) in degree k+r of the ambient algebra, w_t the center's basis
    class t of degree k, with int_Y(push(w) * y) = int_Z(w * pull(y)) for
    every y. Each list comes from one elimination against the ambient
    pairing Gram matrix, which must be invertible in the degrees it is used;
    its entries are integrals of the stored cells of Y and Z.
    """
    y, z = pullback.source, pullback.target
    if r < 1 or z.top_degree != y.top_degree - r:
        raise ValueError(
            f"codimension mismatch: center top {z.top_degree}, "
            f"ambient top {y.top_degree}, r = {r}")
    dy, dz = y.top_degree, z.top_degree
    wy, wz = _coords(y.integration), _coords(z.integration)
    push = []
    for k in range(dz + 1):
        n, m = y.dim(k + r), y.dim(dy - k - r)
        pz = [[sum(wz[s] * c for s, c in cell) for cell in row] for row in z.tables[k, dz - k]]
        # [G^T | R], a row per class y_j of degree dy-k-r: column j of G, then
        # int_Z(w_t * pull(y_j)), row t of Z's pairing pz on the cell of pull(y_j)
        aug = [[sum(wy[s] * c for s, c in cell) for cell in row]
               + [sum(w[s] * c for s, c in image) for w in pz]
               for row, image in zip(y.tables[dy - k - r, k + r], pullback.images[dz - k])]
        red, pivots, _rank = rref(Matrix(m, n + z.dim(k), aug))
        # G is invertible exactly when it is square and columns 0..n-1 are pivots
        if m != n or pivots[:n] != tuple(range(n)):
            raise ValueError(f"ambient pairing is degenerate in degree {k + r}")
        push.append(_cells([row[n + t] for row in red.entries] for t in range(z.dim(k))))
    return push


class BlowupInput(namedtuple("BlowupInput", "y z pullback codim chern_n")):
    """Data of a blowup: ambient Y, center Z, restriction, and normal bundle.

    y and z are GradedAlgebras, pullback the RingMap Y -> Z and codim the
    codimension r of Z. chern_n lists [c_1(N), ..., c_r(N)] as Elements of
    Z, c_i in degree i; above Z's top degree that is the zero z.zero(i).
    """
    __slots__ = ()

    def __new__(cls, y: GradedAlgebra, z: GradedAlgebra, pullback: RingMap,
                codim: int, chern_n: Sequence[Element]):
        return super().__new__(cls, y, z, pullback, codim, tuple(chern_n))


def blowup(data: BlowupInput, *, sign: int = 1,
           name: str | None = None) -> GradedAlgebra:
    """Cohomology of the blowup of Y along a codimension-r center Z.

    Basis per degree: the Y classes, then e^i-summands "e^i*<z>" for
    i = 1..r-1. Products follow the pullback/exceptional rules; every e-power
    s >= r is rewritten through the relation

        w (x) e^s = S_r * ( pi* iota_*(w) e^{s-r}
                            - sum_i S_i (c_{r-i}(N) w) (x) e^{i+s-r} )

    with S_j = (-sign)^j. sign=+1 is the convention used throughout the
    catalog; sign=-1 rebuilds the same ring with e replaced by -e.
    """
    y, z, pull, r = data.y, data.z, data.pullback, data.codim
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if r < 2:
        raise ValueError(f"codimension must be at least 2, got r = {r}")
    if pull.source is not y or pull.target is not z:
        raise ValueError("pullback must map the ambient algebra onto the center")
    d = y.top_degree
    if len(data.chern_n) != r:
        raise ValueError(f"chern_n must list c_1..c_{r}, got "
                         f"{len(data.chern_n)} entries")
    for i, c in enumerate(data.chern_n, start=1):
        _checked_class(z, c, i, f"c_{i}(N)")
    _require_sound(y, "ambient")
    _require_sound(z, "center")
    report = verify_ring_map(pull)
    if not report.ok:
        raise ValueError("pullback fails to be a ring map: "
                         + "; ".join(report.violations[:3]))
    pushed = adjoint_pushforward(pull, r)
    self_int = apply_ring_map(pull, y.element(r, _dense(pushed[0][0], y.dim(r))))
    cr = data.chern_n[r - 1]
    if self_int != cr:
        raise ValueError(f"self-intersection check failed: iota^*(iota_*(1)) "
                         f"= {self_int} but c_{r}(N) = {cr}")

    S = [(-sign) ** j for j in range(r + 1)]
    cn = [()] + _cells(c.coords for c in data.chern_n)  # 1-indexed
    # iota^* of each Y class, zero above Z's top; pushed holds iota_* of each Z class
    pulled = [*pull.images, *([()] * y.dim(k) for k in range(len(pull.images), d + 1))]

    # block 0 holds the Y classes, block i the summand Z (x) e^i
    basis, decode, offset = _layout(
        d, [(y.basis, "")] + [(z.basis, f"e^{i}*") for i in range(1, r)])

    @_Memo
    def reduce_e(memo, k: int, t: int, s: int) -> Cell:
        # the cell of z_t (x) e^s, z_t of degree k, in degree k + s; each
        # e-power that the relation leaves (s - r and i + s - r) is below s
        if s < r:
            return ((offset[(k + s, s)] + t, 1),)
        if s == r:
            terms = [(S[r], pushed[k][t])]
        else:  # iota^* iota_*(z_t) (x) e^(s-r)
            back = _compose(pushed[k][t], pulled[k + r])
            terms = [(S[r] * c, memo[k + r, u, s - r]) for u, c in back]
        return _combine(terms + [
            (-S[r] * S[i] * c, memo[r - i + k, u, i + s - r])
            for i in range(1, r) for u, c in _times(z, cn[r - i], r - i, k, t)])

    def mult(k1, i1, k2, i2):
        (b1, j1), (b2, j2) = decode[k1][i1], decode[k2][i2]
        if b2 == 0 and b1:  # put the Y class first
            k1, b1, j1, k2, b2, j2 = k2, b2, j2, k1, b1, j1
        if b2 == 0:  # Y sits at offset 0 in every degree: Y's own cell
            return y.tables[(k1, k2)][j1][j2]
        # iota^*(y) (x) 1 or z (x) e^b1, times z' (x) e^b2
        first = pulled[k1][j1] if b1 == 0 else ((j1, 1),)
        w = _times(z, first, k1 - b1, k2 - b2, j2)
        return _combine([(c, reduce_e[k1 + k2 - b1 - b2, t, b1 + b2]) for t, c in w])

    # only pulled-back classes survive in the top degree (dim Z = d - r)
    assert len(basis[d]) == y.dim(d)
    return GradedAlgebra(name or f"Bl({y.name}, {z.name})", basis,
                         build_product_tables(basis, mult), y.integration)


def projective_bundle(y: GradedAlgebra, chern: Sequence[Element],
                      name: str | None = None) -> GradedAlgebra:
    """Projectivization of a rank-s bundle on Y with total Chern class chern.

    chern = [c_0, ..., c_s] with c_0 = 1 fixes the relation
    zeta^s = -(c_1 zeta^{s-1} + ... + c_s); the basis is y * zeta^i for
    i = 0..s-1 with labels "z^i*<y>" (Y labels verbatim at i = 0), and
    integration extracts the zeta^{s-1} coefficient's integral over Y. Where
    a "z^i*<y>" label is already one of Y's, as over another bundle, zeta is
    named by the first of z2, z3, ... whose labels are all new.
    """
    chern = list(chern)
    if len(chern) < 2:
        raise ValueError("chern must be [c_0, ..., c_s] with s >= 1")
    s = len(chern) - 1
    c0 = chern[0]
    if not isinstance(c0, Element) or c0 != y.unit():
        raise ValueError("c_0 must be the unit class")
    for i, c in enumerate(chern[1:], start=1):
        _checked_class(y, c, i, f"c_{i}")
    _require_sound(y, "base")
    d = y.top_degree + s - 1
    cells = _cells(c.coords for c in chern)
    var = next(v for v in (f"z{n if n > 1 else ''}" for n in count(1))
               if all(y.label_location(f"{v}^{i}*{lbl}") is None
                      for i in range(1, s) for deg in y.basis for lbl in deg))

    basis, decode, offset = _layout(
        d, [(y.basis, f"{var}^{i}*" if i else "") for i in range(s)])

    @_Memo
    def reduce_pow(memo, k: int, t: int, p: int) -> Cell:
        # the cell of y_t * zeta^p, y_t of degree k, in degree k + p
        if p < s:
            return ((offset[(k + p, p)] + t, 1),)
        return _combine([(-c, memo[i + k, u, p - i])
                         for i in range(1, s + 1)
                         for u, c in _times(y, cells[i], i, k, t)])

    def mult(k1, i1, k2, i2):
        (i, a), (j, b) = decode[k1][i1], decode[k2][i2]
        prod = _times(y, ((a, 1),), k1 - i, k2 - j, b)
        return _combine([(c, reduce_pow[k1 + k2 - i - j, t, i + j]) for t, c in prod])

    # degree d = top(Y) + s - 1 holds the zeta^{s-1} summand alone
    return GradedAlgebra(name or f"ProjBundle({y.name},{s})", basis,
                         build_product_tables(basis, mult), y.integration)
