"""Schubert calculus on Grassmannians.

Partitions index the Schubert basis of H^{2*}(Gr(k, n)); products are
Littlewood-Richardson expansions truncated to the k x (n-k) box. They are
computed honestly, by the Pieri rule and a recursion on the rows of the factor
with fewer, so the ring needs no lookup tables. Poincare duality makes each
coefficient c^nu_{lam,mu} = int s_lam s_mu s_{nu^v} symmetric in its three
classes, so a Grassmannian's tables form only the products of the two
smallest classes of each triple, and only when a table is first read.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from functools import lru_cache

from .ring import Element, GradedAlgebra, _Memo, build_product_tables

Partition = tuple[int, ...]


class Box(namedtuple("Box", "rows cols")):
    """The k x (n-k) rectangle that bounds Grassmannian partitions."""
    __slots__ = ()


def is_partition(p: Sequence[int]) -> bool:
    p = tuple(p)
    return all(isinstance(x, int) and not isinstance(x, bool) and x > 0 for x in p) \
        and all(p[i] >= p[i + 1] for i in range(len(p) - 1))


def parse_partition(text: str) -> Partition:
    """Parse "[3,1]" (or "[]") into a partition tuple."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"partition must look like [3,1], got {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        return ()
    try:
        parts = tuple(int(tok) for tok in inner.split(","))
    except ValueError:
        raise ValueError(f"partition must list integers, got {text!r}")
    if not is_partition(parts):
        raise ValueError(f"parts must be positive and weakly decreasing: {text!r}")
    return parts


def format_partition(p: Partition) -> str:
    return "[" + ",".join(str(x) for x in p) + "]"


def schubert_label(p: Partition) -> str:
    return "1" if not p else "s" + format_partition(p)


def partitions_in_box(rows: int, cols: int, size: int) -> list[Partition]:
    """Partitions of `size` with at most `rows` parts each at most `cols`.

    Listed in descending lexicographic order, which fixes the basis order of
    every Grassmannian degree.
    """
    # (rows so far, boxes left); a row is 0 only once no boxes are left
    grown = [((), size)]
    for _ in range(rows):
        grown = [(built + (x,), left - x) for built, left in grown
                 for x in range(min(built[-1] if built else cols, left),
                                0 if left else -1, -1)]
    return [tuple(x for x in built if x) for built, left in grown if not left]


def contains(outer: Partition, inner: Partition) -> bool:
    if len(inner) > len(outer):
        return False
    return all(outer[i] >= inner[i] for i in range(len(inner)))


def lr_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Littlewood-Richardson coefficient c^nu_{lam,mu}: the coefficient of
    s_nu in s_lam * s_mu, read from the product in the box of nu."""
    lam, mu, nu = tuple(lam), tuple(mu), tuple(nu)
    for p in (lam, mu, nu):
        if not is_partition(p):
            raise ValueError(f"{p} is not a partition")
    if sum(lam) + sum(mu) != sum(nu) or not (contains(nu, lam) and contains(nu, mu)):
        return 0
    return _SchubertProducts(len(nu), max(nu, default=0)).times(lam, mu).get(nu, 0)


class _SchubertProducts:
    """times(lam, mu): s_lam * s_mu in the rows x cols box, as {nu: c}.

    Pieri: sigma_a * s_kappa is the sum of s_nu over the in-box horizontal
    a-strips nu/kappa. For mu the factor with fewer rows, every strip nu on
    mubar = mu[1:] with a = mu[0] boxes other than mu has nu_1 > a, so s_lam s_mu
    = sigma_a (s_lam s_mubar) minus their s_lam s_nu. Truncating to the box is a
    ring map, so every step drops the terms outside the box. Strips and products
    are memoized on the instance, which holds no reference cycle.
    """

    def __init__(self, rows: int, cols: int):
        self.rows, self.cols, self.strips, self.products = rows, cols, {}, {}

    def strip(self, kappa: Partition, a: int) -> list[Partition]:
        out = self.strips.get((kappa, a))
        if out is None:
            full = kappa + (0,) * (self.rows - len(kappa))
            grown = [((), a)]  # (rows so far, boxes left to place)
            for above, row in zip((self.cols,) + full, full):
                grown = [(built + (x,), left - x + row) for built, left in grown
                         for x in range(row, min(above, row + left) + 1)]
            out = self.strips[kappa, a] = [tuple(x for x in built if x)
                                           for built, left in grown if not left]
        return out

    def times(self, lam: Partition, mu: Partition) -> dict:
        if (len(mu), mu) > (len(lam), lam):  # s_lam s_mu = s_mu s_lam: peel fewer rows
            lam, mu = mu, lam
        if not mu:
            return {lam: 1}
        out = self.products.get((lam, mu))
        if out is None:
            a, bar = mu[0], mu[1:]
            acc: dict = {}
            for kappa, c in self.times(lam, bar).items():
                for nu in self.strip(kappa, a):
                    acc[nu] = acc.get(nu, 0) + c
            for nu in self.strip(bar, a):
                if nu != mu:
                    for kappa, c in self.times(lam, nu).items():
                        acc[kappa] -= c
            out = self.products[lam, mu] = {nu: c for nu, c in acc.items() if c}
        return out


@lru_cache(maxsize=None, typed=True)  # typed: (True, n) must miss (1, n) and raise
def grassmannian(k: int, n: int) -> GradedAlgebra:
    """H^{2*}(Gr(k, n), Q) with Schubert basis labels "s[...]".

    Degree-m basis: partitions of m inside the k x (n-k) box, descending
    lexicographic; integration reads off the full box. The coefficient of
    s_nu in s_lam s_mu is the integral of s_lam s_mu s_{nu^v}, symmetric in
    its three classes, so one `_SchubertProducts` recursion forms only the
    product of the two smallest: s_lam s_mu while |mu| <= |nu^v|, else
    s_lam s_{nu^v}, whose coefficient of mu^v is the one wanted. No table is
    built before it is read; the recursion's memo goes with the last one.
    """
    if not (type(k) is int and type(n) is int) or k < 1 or n <= k:
        raise ValueError(f"Gr(k, n) needs 1 <= k < n, got k={k}, n={n}")
    rows, cols = k, n - k
    d = rows * cols
    by_degree = [partitions_in_box(rows, cols, m) for m in range(d + 1)]
    basis = [[schubert_label(p) for p in ps] for ps in by_degree]
    index = [{p: t for t, p in enumerate(ps)} for ps in by_degree]
    dual = {p: tuple(cols - x for x in reversed(p + (0,) * (rows - len(p))) if x < cols)
            for ps in by_degree for p in ps}  # complement in the box
    times = _SchubertProducts(rows, cols).times

    @_Memo
    def by_duality(memo, k1: int, i: int, k2: int) -> list:
        # the cells of s_lam, lam = by_degree[k1][i], times each degree-k2 class
        acc: list = [[] for _ in by_degree[k2]]
        for t, nu in enumerate(by_degree[k1 + k2]):
            for kappa, c in times(by_degree[k1][i], dual[nu]).items():
                acc[index[k2][dual[kappa]]].append((t, c))
        return [tuple(cell) for cell in acc]

    def mult(k1, i, k2, j):
        if d - k1 - k2 >= k2:
            index_k, prod = index[k1 + k2], times(by_degree[k1][i], by_degree[k2][j])
            return tuple(sorted((index_k[nu], c) for nu, c in prod.items()))
        return by_duality[k1, i, k2][j]

    return GradedAlgebra(f"Gr-{k}-{n}", basis, build_product_tables(basis, mult), [1])


def quotient_chern_classes(k: int, n: int) -> list[Element]:
    """Total Chern class of the tautological quotient bundle on Gr(k, n).

    c_i(Q) is the single-row Schubert class sigma_(i); the list is
    [1, sigma_1, ..., sigma_{n-k}]. Give projective_bundle these classes cls
    with their own base cls[0].algebra, not a fresh grassmannian(k, n) call.
    """
    g = grassmannian(k, n)
    out = [g.unit()]
    for i in range(1, n - k + 1):
        loc = g.label_location(schubert_label((i,)))
        assert loc is not None
        out.append(g.basis_element(*loc))
    return out
