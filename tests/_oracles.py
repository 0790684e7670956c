"""Independent reference computations shared by the test modules.

These deliberately avoid the library code paths they are checking: spans
are enumerated monomial by monomial and ranked by plain Gauss-Jordan
elimination over Fraction (not the modular rank engine), so agreement is a
real cross-check. Products and ring axioms are recomputed from the dense
view ``a.products``, coordinate by coordinate, never from the sparse cells
that `multiply` and `verify_algebra` read.

The library builds every Schubert product by the Pieri recursion of
`schubert._SchubertProducts`. Two oracles check it by other routes:
`lr_count_by_tableaux` counts the lattice-word skew tableaux of each LR
coefficient one at a time (the library's algorithm before the Pieri
recursion), and `jacobi_trudi_product` expands a two-row factor as a
determinant of single-row Pieri steps.

`dense_ring_map_violations` is `verify_ring_map` as it was before it
composed cells: every basis pair's f(xy) and f(x)f(y) as Elements, each
product taken over the dense tables and the map applied by `dense_image`
on the densified image cells, not by `apply_ring_map`.

`dense_tensor_product` multiplies every pair of dense factor vectors and
names each class by its label pair, so it never sees the block layout
that `tensor_product` places cells by; `assert_dense_kronecker` holds a
product to it.

`full_scan_violations` is one exception: it is `verify_algebra` itself
with every pair of basis classes in its pair set (`all_pairs`), so that
associativity is checked on every basis triple, as it was before the
generator search. It runs on `unfactored(a)`, a's cells with no factors, so
a product is scanned too rather than verified from its factors.

`kernel` and `row_space_basis` were public `linalg` functions that
nothing in the library called, and `identity` was the constructor
`Matrix.identity`, which only the tests called. `kernel` reads the
nullspace off `rref` over Fraction.

`sympy_basis` is the RREF basis of a list of vectors by sympy, an engine
that shares no code with lefalg, and `row_space_basis` is the same basis
read off the vectors alone; the caller imports sympy or skips.
`sympy_lefschetz` is the whole Lefschetz stage on the same engine: it
reads only an algebra's `basis`, `tables` and `integration`, multiplies
coordinate by coordinate, and ranks every span, Gram matrix and map with
sympy's `rref`, never with a lefalg rank routine. `kunneth_lefschetz` predicts
the same verdicts on a product from its factors, each ranked by sympy, by the
three Kunneth rules; it reaches sizes sympy cannot rank whole.

`ranked_jordan_type` is not independent: it is the graded Jordan type of
omega by inclusion and exclusion on the library's own `_map_rank` of each
power of omega on each L^k, the path `lefschetz._strings` takes when hard
Lefschetz fails, so the centred type that `_strings` reads off the L-dims
when it holds is held to the ranks.

`write_algebra_v1` is the version 1 file writer, kept as the reference for
the bytes it wrote and as a source of version 1 files, which still read.
`pieri` and `relabeled` were public lefalg functions that nothing in the
library calls; they live on here for the tests that use them.
"""

import hashlib
import itertools
import json
from fractions import Fraction
from unittest import mock

from lefalg import ring
from lefalg.linalg import Matrix, Vector, format_rational, rref
from lefalg.ring import Element, GradedAlgebra, RingMap, multiply
from lefalg.schubert import Box, contains, is_partition


def brute_force_lefschetz_bases(a: GradedAlgebra) -> tuple[tuple, ...]:
    """The RREF basis, from `rref`, of the span of all degree-k products of
    degree-one basis classes, for each k."""
    gens = [a.basis_element(1, i) for i in range(a.dim(1))]
    bases = [(a.unit().coords,)]
    for k in range(1, a.top_degree + 1):
        vecs = []
        for combo in itertools.combinations_with_replacement(gens, k):
            el = a.unit()
            for g in combo:
                el = multiply(el, g)
            vecs.append(el.coords)
        res = rref(Matrix(len(vecs), a.dim(k), vecs)) if vecs else None
        bases.append(tuple(res.reduced.row(i) for i in range(res.rank))
                     if res else ())
    return tuple(bases)


def brute_force_lefschetz_dims(a: GradedAlgebra) -> tuple[int, ...]:
    """dim of the span of all degree-k products of degree-one classes."""
    return tuple(len(b) for b in brute_force_lefschetz_bases(a))


def pieri(lam, p: int, box: Box) -> list:
    """Horizontal-strip extensions of lam by p boxes inside the box.

    These are the terms of sigma_lam * sigma_(p); the list comes back in
    descending lexicographic order.
    """
    rows, cols = box
    if not is_partition(lam) or not contains((cols,) * rows, lam):
        raise ValueError(f"{lam} is not a partition in the {rows}x{cols} box")
    if p < 0:
        raise ValueError("strip size must be nonnegative")
    lam_full = tuple(lam) + (0,) * (rows - len(lam))
    results = []

    def rec(i: int, built: tuple, left: int):
        if i == rows:
            if left == 0:
                results.append(tuple(x for x in built if x > 0))
            return
        hi = cols if i == 0 else lam_full[i - 1]
        lo = lam_full[i]
        for mu_i in range(min(hi, lo + left), lo - 1, -1):
            rec(i + 1, built + (mu_i,), left - (mu_i - lo))

    rec(0, (), p)
    return sorted(results, reverse=True)


def lr_count_by_tableaux(lam, mu, nu) -> int:
    """c^nu_{lam,mu}, counted as the semistandard fillings of nu/lam with
    content mu whose reverse reading word (rows read right to left, top to
    bottom) is a lattice word.

    c^nu_{lam,mu} = c^nu_{mu,lam} vanishes unless |lam| + |mu| = |nu| and nu
    contains both. The cells of nu/lam are filled in reading order, so the
    lattice property can be enforced prefix by prefix.
    """
    if sum(lam) + sum(mu) != sum(nu) or not (contains(nu, lam) and contains(nu, mu)):
        return 0
    if not mu:
        return 1
    lam_full = tuple(lam) + (0,) * (len(nu) - len(lam))
    cells = [(r, c) for r in range(len(nu))
             for c in range(nu[r] - 1, lam_full[r] - 1, -1)]
    m = len(mu)
    counts = [0] * m
    grid: dict[tuple[int, int], int] = {}

    def fill(idx: int) -> int:
        if idx == len(cells):
            return 1
        r, c = cells[idx]
        above = grid.get((r - 1, c))
        right = grid.get((r, c + 1))
        total = 0
        for v in range(1, m + 1):
            if counts[v - 1] >= mu[v - 1]:
                continue
            if v > 1 and counts[v - 1] >= counts[v - 2]:
                continue
            if right is not None and v > right:
                continue
            if above is not None and v <= above:
                continue
            grid[(r, c)] = v
            counts[v - 1] += 1
            total += fill(idx + 1)
            del grid[(r, c)]
            counts[v - 1] -= 1
        return total

    return fill(0)


def _h_times(vec: dict, p: int, box: Box) -> dict:
    out: dict = {}
    for shape, c in vec.items():
        for bigger in pieri(shape, p, box):
            out[bigger] = out.get(bigger, 0) + c
    return out


def jacobi_trudi_product(lam, mu, box: Box) -> dict:
    """sigma_lam * sigma_mu in the box quotient, via Pieri steps only.

    sigma_mu = det(h_{mu_i + j - i}) for mu with at most two rows; each h_p
    acts by the Pieri rule, which stays valid after truncating to the box.
    Returns {nu: coefficient} with zero entries dropped.
    """
    if len(mu) > 2:
        raise ValueError("two-row expansion only")
    mu2 = (tuple(mu) + (0, 0))[:2]
    out: dict = {}
    for perm, sgn in (((0, 1), 1), ((1, 0), -1)):
        rows = [mu2[i] + perm[i] - i for i in range(2)]
        if any(r < 0 for r in rows):
            continue
        vec = {tuple(lam): sgn}
        for p in rows:
            if p > 0:
                vec = _h_times(vec, p, box)
        for shape, c in vec.items():
            out[shape] = out.get(shape, 0) + c
    return {s: c for s, c in out.items() if c}


def dense_multiply(x: Element, y: Element, products: dict) -> Element:
    """x*y summed over every coordinate pair of the dense tables ``products``.

    ``products`` is ``dict(a.products)``, taken once by the caller: each
    read of the view densifies a whole table.
    """
    a = x.algebra
    k = x.degree + y.degree
    if k > a.top_degree:
        return a.zero(k)
    table = products[(x.degree, y.degree)]
    out = [Fraction(0)] * a.dim(k)
    for i, ci in enumerate(x.coords):
        for j, cj in enumerate(y.coords):
            for t, c in enumerate(table[i][j]):
                out[t] += ci * cj * c
    return a.element(k, out)


def _dense_sum(coeffs, vectors, n: int) -> list[Fraction]:
    """sum of c * v over the dense coefficients and their dense vectors."""
    out = [Fraction(0)] * n
    for c, v in zip(coeffs, vectors):
        if c:
            for t, x in enumerate(v):
                out[t] += c * x
    return out


def dense_axiom_violations(a: GradedAlgebra) -> list[str]:
    """The commutativity and associativity violations, worded as verify_algebra.

    Every table pair is compared entry by entry. For every basis triple,
    (b_i b_j) b_l and b_i (b_j b_l) are composed from the dense tables: each
    pair product b_i b_j or b_j b_l is read once and expanded coordinate by
    coordinate.
    """
    products = dict(a.products)
    d = a.top_degree
    bad = []
    for k1 in range(d + 1):
        for k2 in range(k1, d + 1 - k1):
            for i in range(a.dim(k1)):
                for j in range(a.dim(k2)):
                    if products[(k1, k2)][i][j] != products[(k2, k1)][j][i]:
                        bad.append(f"commutativity fails at degrees ({k1},{k2}) "
                                   f"indices ({i},{j})")
    for k1 in range(d + 1):
        for k2 in range(d + 1 - k1):
            for k3 in range(d + 1 - k1 - k2):
                t12, t23 = products[(k1, k2)], products[(k2, k3)]
                t12_3, t1_23 = products[(k1 + k2, k3)], products[(k1, k2 + k3)]
                n = a.dim(k1 + k2 + k3)
                for i, j in itertools.product(range(a.dim(k1)), range(a.dim(k2))):
                    bij = t12[i][j]
                    for l in range(a.dim(k3)):
                        lhs = _dense_sum(bij, [row[l] for row in t12_3], n)
                        rhs = _dense_sum(t23[j][l], t1_23[i], n)
                        if lhs != rhs:
                            bad.append(f"associativity fails on degrees "
                                       f"({k1},{k2},{k3}) indices ({i},{j},{l})")
    return bad


def dense_image(f: RingMap, x: Element) -> Element:
    """f(x) summed in Fraction arithmetic over the images made dense, one
    coordinate vector per source class; zero above the target's top degree."""
    k = x.degree
    if k >= len(f.images):
        return f.target.zero(k)
    n = f.target.dim(k)
    columns = [[Fraction(dict(cell).get(t, 0)) for t in range(n)] for cell in f.images[k]]
    return f.target.element(k, _dense_sum(x.coords, columns, n))


def dense_ring_map_violations(f: RingMap) -> tuple[str, ...]:
    """verify_ring_map's violations, from Elements multiplied over the dense
    tables and mapped by `dense_image`: the unit, then f(b_i b_j) against
    f(b_i) f(b_j) for every basis pair with degree sum at most the larger
    top degree."""
    src, tgt = f.source, f.target
    src_products, tgt_products = dict(src.products), dict(tgt.products)
    bad = []
    if dense_image(f, src.unit()) != tgt.unit():
        bad.append("unit is not mapped to unit")
    ds = src.top_degree
    for k1 in range(ds + 1):
        for k2 in range(ds + 1):
            if k1 + k2 > max(ds, tgt.top_degree):
                continue
            for i in range(src.dim(k1)):
                xi = src.basis_element(k1, i)
                fxi = dense_image(f, xi)
                for j in range(src.dim(k2)):
                    yj = src.basis_element(k2, j)
                    lhs = dense_image(f, dense_multiply(xi, yj, src_products))
                    rhs = dense_multiply(fxi, dense_image(f, yj), tgt_products)
                    if lhs != rhs:
                        bad.append(f"multiplicativity fails on degrees "
                                   f"({k1},{k2}) indices ({i},{j}): "
                                   f"f(xy) = {lhs} but f(x)f(y) = {rhs}")
    return tuple(bad)


def dense_tensor_product(a: GradedAlgebra, b: GradedAlgebra) -> dict:
    """{(x, y): {z: c}}: the product of classes x and y of the Kunneth product
    of a and b as its nonzero coordinates c on classes z, each class named by
    its label pair "u⊗v", for every pair whose factor products are both
    stored (any other pair multiplies to zero).

    Each product is the Kronecker product of the two dense factor vectors,
    (u⊗v)(u'⊗v') = (u u')⊗(v v'), read from ``a.products`` and
    ``b.products``.
    """
    def pairs(ka, kb):
        return [f"{u}⊗{v}" for u in a.basis[ka] for v in b.basis[kb]]

    out = {}
    products_b = dict(b.products)
    for (i1, i2), table_a in a.products.items():
        for (j1, j2), table_b in products_b.items():
            xs, ys, zs = pairs(i1, j1), pairs(i2, j2), pairs(i1 + i2, j1 + j2)
            rows = [itertools.product(row_a, row_b)
                    for row_a in table_a for row_b in table_b]
            for x, row in zip(xs, rows):
                for y, (va, vb) in zip(ys, row):
                    out[x, y] = {z: c for z, c in zip(zs, (ca * cb for ca in va
                                                           for cb in vb)) if c}
    return out


def assert_dense_kronecker(a: GradedAlgebra, b: GradedAlgebra,
                           t: GradedAlgebra) -> None:
    """Assert that t is the Kunneth product of a and b by
    `dense_tensor_product`: each degree's labels are the label pairs, each
    cell is the dense product and its mirror's object, and the integration
    is the product of the two."""
    expected = dense_tensor_product(a, b)
    pairs = [[] for _ in t.basis]
    for (i, us), (j, vs) in itertools.product(enumerate(a.basis), enumerate(b.basis)):
        pairs[i + j] += [f"{u}⊗{v}" for u in us for v in vs]
    assert [sorted(labels) for labels in t.basis] == [sorted(p) for p in pairs]
    for (k1, k2), table in t.tables.items():
        zs = t.basis[k1 + k2]
        for i, row in enumerate(table):
            for j, cell in enumerate(row):
                got = {zs[s]: c for s, c in cell}
                assert got == expected.get((t.basis[k1][i], t.basis[k2][j]), {})
                assert t.tables[k2, k1][j][i] is cell
    top = {z: c for z, c in zip(t.basis[-1], t.integration)}
    assert top == {f"{u}⊗{v}": cu * cv
                   for u, cu in zip(a.basis[-1], a.integration)
                   for v, cv in zip(b.basis[-1], b.integration)}


# Every catalog algebra has integer cells, so its integer view has scale 1.
# Rescaling basis classes by non-integer rationals gives isomorphic algebras
# whose tables and integration have denominators: same dims, verdicts and
# witnesses, and bases that must still be exact RREFs.
def rescaled(a: GradedAlgebra, lam=None) -> tuple[GradedAlgebra, list[list[Fraction]]]:
    """a in the basis b'_i = lam_i b_i, by default lam_i = 3/(5 + i + k) in
    degree k >= 1, and the factors lam: b'_i b'_j = sum_t (lam_i lam_j c_t /
    lam_t) b'_t. Every coefficient of the result is a Fraction."""
    if lam is None:
        lam = [[Fraction(1)]] + [[Fraction(3, 5 + i + k) for i in range(n)]
                                 for k, n in enumerate(a.dims) if k]
    tables = {(k1, k2): [[tuple((t, lam[k1][i] * lam[k2][j] * c / lam[k1 + k2][t])
                                for t, c in cell) for j, cell in enumerate(row)]
                         for i, row in enumerate(table)]
              for (k1, k2), table in a.tables.items()}
    integration = [w * l for w, l in zip(a.integration, lam[-1])]
    return GradedAlgebra(a.name, a.basis, tables, integration), lam


def all_pairs(a: GradedAlgebra) -> dict:
    """Every pair of basis classes, in the form of `ring._generators`'s
    pairs: {(k1, k2): [(i, j), ...]}, sorted."""
    return {(k1, k2): list(itertools.product(range(a.dim(k1)), range(a.dim(k2))))
            for k1, k2 in a.tables}


def unfactored(a: GradedAlgebra) -> GradedAlgebra:
    """a on the same cells, in tables that keep no factors: `verify_algebra`
    scans it even when a is a `tensor_product`."""
    return GradedAlgebra(a.name, a.basis, dict(a.tables), a.integration)


def full_scan_violations(a: GradedAlgebra) -> tuple[str, ...]:
    """verify_algebra's violations with associativity on all of A x A x A."""
    with mock.patch.object(ring, "_generators", lambda a: ([], all_pairs(a))):
        return ring.verify_algebra(unfactored(a)).violations


def row_space_basis(vectors) -> list[Vector]:
    """Canonical (RREF) basis of the span, by sympy (`sympy_basis`); [] for no vectors."""
    return sympy_basis(vectors, len(vectors[0])) if vectors else []


def sympy_basis(vectors, cols: int) -> list[Vector]:
    """The RREF basis of the span of the vectors, by sympy's `rref`, as Fraction
    tuples; its length is the rank."""
    import sympy
    m = sympy.Matrix(len(vectors), cols, [sympy.Rational(x.numerator, x.denominator)
                                          for v in vectors for x in map(Fraction, v)])
    reduced, pivots = m.rref()
    return [tuple(Fraction(int(x.p), int(x.q)) for x in reduced.row(i))
            for i in range(len(pivots))]


def _sympy_stage(a: GradedAlgebra, omega):
    """By sympy alone, for L generated by the degree-one basis classes: the
    RREF bases of L^k, map_rank(m, k), the rank of omega^m on L^k, and
    gram_rank(k), the rank of the pairing L^k x L^{d-k}, for any m and k."""
    import sympy

    def q(x):
        x = Fraction(x)
        return sympy.Rational(x.numerator, x.denominator)

    dims = [len(b) for b in a.basis]
    d = len(dims) - 1

    def times(k1, u, k2, v):
        out = [sympy.Integer(0)] * dims[k1 + k2]
        for i, x in enumerate(u):
            for j, y in enumerate(v):
                if x and y:
                    for t, c in a.tables[k1, k2][i][j]:
                        out[t] += x * y * q(c)
        return out

    def echelon(vectors, n):
        reduced, pivots = sympy.Matrix(len(vectors), n,
                                       [x for v in vectors for x in v]).rref()
        return [list(reduced.row(i)) for i in range(len(pivots))]

    bases = [[[sympy.Integer(1)]]]
    gens = [[sympy.Integer(int(i == j)) for j in range(dims[1])]
            for i in range(dims[1])] if d else []
    for k in range(1, d + 1):
        bases.append(echelon([times(1, g, k - 1, u) for g in gens
                              for u in bases[k - 1]], dims[k]))
    powers = [[sympy.Integer(1)]]
    for m in range(1, d + 1):
        powers.append(times(m - 1, powers[-1], 1, [q(x) for x in omega]))

    def map_rank(m, k):
        if m + k > d:
            return 0
        return len(echelon([times(m, powers[m], k, u) for u in bases[k]], dims[m + k]))

    def gram_rank(k):
        gram = [[sum(w * x for w, x in zip(map(q, a.integration), times(k, u, d - k, v)))
                 for v in bases[d - k]] for u in bases[k]]
        return len(echelon(gram, len(bases[d - k])))

    return bases, map_rank, gram_rank


def _triples(dims, rank) -> tuple:
    """The (k, passed, witness) triples of a predicate for k = 0..d//2: the
    dims of L^k and L^{d-k} must agree, and then rank(k) = dim L^k."""
    d, out = len(dims) - 1, []
    for k in range(d // 2 + 1):
        low, high = dims[k], dims[d - k]
        if low != high:
            out.append((k, False, f"{low} vs {high}"))
        else:
            r = rank(k)
            out.append((k, r == low, "" if r == low else f"rank {r} of {low}"))
    return tuple(out)


def _verdicts(dims, gram_rank, map_rank) -> tuple:
    """Symmetry, Poincare duality and hard Lefschetz triples, and the primitive
    dims (each dim L^i minus the rank of omega^(d-2i+1) on L^i, ranked whether
    or not HL holds) with whether HL holds."""
    d = len(dims) - 1
    hl = _triples(dims, lambda k: map_rank(d - 2 * k, k))
    primitive = tuple(dims[i] - map_rank(d - 2 * i + 1, i) for i in range(d // 2 + 1))
    return (_triples(dims, dims.__getitem__), _triples(dims, gram_rank), hl,
            (primitive, all(passed for _, passed, _ in hl)))


def sympy_lefschetz(a: GradedAlgebra, omega) -> tuple:
    """By sympy alone, for the subalgebra L generated by the degree-one basis
    classes and omega, a degree-one coordinate vector in L^1: the RREF bases
    of L^k as Fraction tuples; the (k, passed, witness) triples of symmetry,
    Poincare duality and hard Lefschetz for k = 0..d//2; and the primitive
    dims with whether hard Lefschetz holds, each dim L^i minus the rank of
    omega^(d-2i+1) on L^i, ranked whether or not it holds. The caller
    imports sympy or skips."""
    bases, map_rank, gram_rank = _sympy_stage(a, omega)
    return (tuple(tuple(tuple(Fraction(int(x.p), int(x.q)) for x in v) for v in basis)
                  for basis in bases),
            *_verdicts([len(b) for b in bases], gram_rank, map_rank))


def _convolve(u, v) -> list:
    out = [0] * (len(u) + len(v) - 1)
    for i, x in enumerate(u):
        for j, y in enumerate(v):
            out[i + j] += x * y
    return out


def kunneth_lefschetz(factors, omega) -> tuple:
    """What `sympy_lefschetz` gives on the product of the factors, with the
    bases replaced by the dims of L, from the factors alone: each factor is
    ranked by sympy (`_sympy_stage`) with its share of omega, the product's
    degree-one coordinates being the factors' in turn, and the results are
    combined by three rules for omega = omega_A (x) 1 + 1 (x) omega_B:
    L(A (x) B) = L(A) (x) L(B), so the dims of L convolve; the pairing is the
    Kronecker product of the factors' pairings, so its ranks convolve; and
    the graded Jordan type of omega, a multiset of strings [s, e] of classes
    x, omega x, ..., is the Clebsch-Gordan product of the factors' types:
    [s, e] and [t, f] give [s+t+j, e+f-j] for j < min(e-s, f-t) + 1. A
    factor's type counts the strings from s to e by inclusion and exclusion
    on its ranks, since the strings through both k and k+m number the rank
    of omega^m on L^k. The caller imports sympy or skips."""
    dims, pd, strings, at = [1], [1], {(0, 0): 1}, 0
    for f in factors:
        e = f.top_degree
        n = f.dim(1) if e else 0
        bases, map_rank, gram_rank = _sympy_stage(f, omega[at:at + n])
        at += n
        dims = _convolve(dims, [len(b) for b in bases])
        pd = _convolve(pd, [gram_rank(k) for k in range(e + 1)])

        def r(m, k):
            return map_rank(m, k) if 0 <= k and k + m <= e else 0

        own = {(s, t): r(t - s, s) - r(t - s + 1, s - 1) - r(t - s + 1, s) + r(t - s + 2, s - 1)
               for s in range(e + 1) for t in range(s, e + 1)}
        product = {}
        for (s1, e1), n1 in strings.items():
            for (s2, e2), n2 in own.items():
                for j in range(min(e1 - s1, e2 - s2) + 1):
                    key = (s1 + s2 + j, e1 + e2 - j)
                    product[key] = product.get(key, 0) + n1 * n2
        strings = product

    def rank(m, k):
        return sum(n for (s, e), n in strings.items() if s <= k and k + m <= e)

    return (tuple(dims), *_verdicts(dims, pd.__getitem__, rank))


def ranked_jordan_type(lef, omega) -> dict:
    """{(s, e): the number of strings of omega on L from degree s to degree e},
    by inclusion and exclusion on r(m, k), the `_map_rank` of omega^m on L^k,
    since r(m, k) strings run through both k and k + m; reads the tables."""
    from lefalg import lefschetz
    d = lef.ambient.top_degree
    powers = lefschetz._omega_powers(lefschetz._checked_omega(lef, omega), d + 1)

    def r(m, k):
        return lefschetz._map_rank(lef, m, powers[m], k) if 0 <= k and k + m <= d else 0

    return {(s, e): n for s in range(d + 1) for e in range(s, d + 1)
            if (n := r(e - s, s) - r(e - s + 1, s - 1) - r(e - s + 1, s) + r(e - s + 2, s - 1))}


def identity(n: int) -> Matrix:
    """The n x n identity matrix."""
    return Matrix(n, n, [[int(i == j) for j in range(n)] for i in range(n)])


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


def relabeled(a: GradedAlgebra, basis, name=None) -> GradedAlgebra:
    """Same structure constants, new labels (and optionally a new name)."""
    if tuple(map(len, basis)) != a.dims:
        raise ValueError("relabeling must preserve the dimension profile")
    return GradedAlgebra(name or a.name, basis, a.tables, a.integration)


def algebra_payload_v1(a: GradedAlgebra) -> dict:
    """The version 1 payload: every ordered pair with a nonzero product, as
    [k1, i, k2, j, dense vector of "p/q" strings]."""
    products = []
    for (k1, k2) in sorted(a.tables):
        n = a.dim(k1 + k2)
        for i, row in enumerate(a.tables[(k1, k2)]):
            for j, cell in enumerate(row):
                if cell:
                    coeffs = ["0"] * n
                    for t, c in cell:
                        coeffs[t] = format_rational(c)
                    products.append([k1, i, k2, j, coeffs])
    return {
        "format": "graded-algebra",
        "version": 1,
        "name": a.name,
        "top_degree": a.top_degree,
        "basis": [list(deg) for deg in a.basis],
        "products": products,
        "integration": [format_rational(c) for c in a.integration],
    }


def payload_checksum(payload: dict) -> str:
    """sha256 of the canonical (sorted, compact) JSON of the payload."""
    blob = json.dumps(payload, sort_keys=True, ensure_ascii=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def write_algebra_v1(a: GradedAlgebra, path: str) -> None:
    """A checksummed version 1 file, written as the version 1 writer did."""
    payload = algebra_payload_v1(a)
    payload["checksum"] = payload_checksum(payload)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, ensure_ascii=True, indent=1)
        fh.write("\n")
