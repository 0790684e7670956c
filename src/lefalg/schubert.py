"""Schubert calculus on Grassmannians.

Partitions index the Schubert basis of H^{2*}(Gr(k, n)); products are
Littlewood-Richardson expansions truncated to the k x (n-k) box. The LR
coefficients are computed honestly, by counting lattice-word skew tableaux,
so the ring needs no lookup tables.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache

from .ring import Element, GradedAlgebra, build_product_tables

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
    out: list[Partition] = []

    def rec(prefix: tuple[int, ...], remaining: int, cap: int, slots: int):
        if remaining == 0:
            out.append(prefix)
            return
        if slots == 0:
            return
        for part in range(min(cap, remaining), 0, -1):
            rec(prefix + (part,), remaining - part, part, slots - 1)

    rec((), size, cols, rows)
    return out


def contains(outer: Partition, inner: Partition) -> bool:
    if len(inner) > len(outer):
        return False
    return all(outer[i] >= inner[i] for i in range(len(inner)))


def lr_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Littlewood-Richardson coefficient c^nu_{lam,mu}.

    Counts semistandard fillings of nu/lam with content mu whose reverse
    reading word (rows read right to left, top to bottom) is a lattice word.
    """
    for p in (lam, mu, nu):
        if not is_partition(p):
            raise ValueError(f"{p} is not a partition")
    if sum(lam) + sum(mu) != sum(nu):
        return 0
    return _lr_count(lam, mu, nu)


def _lr_count(lam: Partition, mu: Partition, nu: Partition) -> int:
    """`lr_coefficient` on partitions with |lam| + |mu| = |nu|, unchecked.

    c^nu_{lam,mu} = c^nu_{mu,lam} vanishes unless nu contains both. The
    cells of nu/lam are filled in reading order, so the lattice property
    can be enforced prefix by prefix.
    """
    if not (contains(nu, lam) and contains(nu, mu)):
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


@lru_cache(maxsize=None, typed=True)  # typed: (True, n) must miss (1, n) and raise
def grassmannian(k: int, n: int) -> GradedAlgebra:
    """H^{2*}(Gr(k, n), Q) with Schubert basis labels "s[...]".

    Degree-m basis: partitions of m inside the k x (n-k) box, descending
    lexicographic; products are LR expansions with terms outside the box
    dropped; integration reads off the full-box coefficient.
    """
    if not (type(k) is int and type(n) is int) or k < 1 or n <= k:
        raise ValueError(f"Gr(k, n) needs 1 <= k < n, got k={k}, n={n}")
    rows, cols = k, n - k
    d = rows * cols
    by_degree = [partitions_in_box(rows, cols, m) for m in range(d + 1)]
    basis = [[schubert_label(p) for p in ps] for ps in by_degree]

    def mult(k1, i, k2, j):
        # box partitions, so the unchecked count is safe
        lam, mu = by_degree[k1][i], by_degree[k2][j]
        cell = []
        for t, nu in enumerate(by_degree[k1 + k2]):
            c = _lr_count(lam, mu, nu)
            if c:
                cell.append((t, Fraction(c)))
        return tuple(cell)

    tables = build_product_tables(basis, mult)
    integration = [Fraction(1)]  # degree d holds the full box alone
    return GradedAlgebra(f"Gr-{k}-{n}", basis, tables, integration)


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
