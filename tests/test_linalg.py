"""Exact linear algebra: rref canonicity, solve, kernel, parsing."""

import itertools
import random
from fractions import Fraction

import pytest

from _oracles import identity, kernel, row_space_basis, sympy_basis
from lefalg import linalg
from lefalg.linalg import (Matrix, dot, format_rational, parse_rational, rref, scalar,
                           solve, vadd, vector)

# A large prime: rows that vanish or agree mod P would fool a rank found mod P,
# so they check that the integer elimination is exact.
P = (1 << 30) - 35


def test_parse_rational_accepts_integers_and_fractions():
    assert parse_rational("3") == Fraction(3)
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert parse_rational("+4/6") == Fraction(2, 3)
    assert parse_rational(" 5/3 ") == Fraction(5, 3)


@pytest.mark.parametrize("bad", ["", "1.5", "1e3", "3/0", "3/-2", "a/b",
                                 "1/2/3", "--1", "0x10"])
def test_parse_rational_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_format_rational_round_trips():
    for x in (Fraction(0), Fraction(-3, 7), Fraction(22, 11), Fraction(5)):
        assert parse_rational(format_rational(x)) == x


def test_scalar_rejects_floats_and_bools():
    with pytest.raises(TypeError):
        scalar(0.5)
    with pytest.raises(TypeError):
        scalar(True)
    assert scalar(7) == Fraction(7)
    assert scalar("2/4") == Fraction(1, 2)


def test_vector_arithmetic():
    u, v = vector([1, 2]), vector(["1/2", -1])
    assert vadd(u, v) == (Fraction(3, 2), Fraction(1))
    assert dot(u, v) == Fraction(-3, 2)
    with pytest.raises(ValueError):
        vadd(u, vector([1]))


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        Matrix(2, 2, [[1, 2], [3]])
    m = Matrix(2, 2, [[1, 2], [3, 4]])
    assert m.rows == m.cols == 2
    assert m.row(1) == (Fraction(3), Fraction(4))


def test_matrix_is_immutable_and_hashable():
    m = identity(2)
    with pytest.raises(AttributeError):
        m.rows = 3
    assert m == identity(2)
    assert hash(m) == hash(identity(2))


def test_rref_is_canonical():
    # same row space, different presentation: identical RREF
    a = Matrix(2, 3, [[2, 4, 6], [1, 1, 1]])
    b = Matrix(3, 3, [[1, 1, 1], [3, 5, 7], [1, 3, 5]])
    ra, rb = rref(a), rref(b)
    assert ra.rank == rb.rank == 2
    assert [ra.reduced.row(i) for i in range(2)] == \
        [rb.reduced.row(i) for i in range(2)]
    assert ra.pivot_columns == (0, 1)


def test_rref_exactness_no_drift():
    # entries that would be lossy in floating point
    m = Matrix(2, 2, [[Fraction(1, 3), Fraction(1, 7)],
                      [Fraction(1, 11), Fraction(1, 13)]])
    r = rref(m)
    assert r.rank == 2
    assert r.reduced == identity(2)


def _rank(vectors, width) -> int:
    """`linalg._rank` of the rows of the vectors (`_int_rows`)."""
    return linalg._rank(linalg._int_rows(vectors), width)


def _cleared_basis(rows, width) -> list:
    """`linalg._basis_rows` as lists of terms, to compare with `_int_rows` of an RREF."""
    return list(map(list, linalg._basis_rows(rows, width)))


def test_row_space_rank_and_basis():
    pytest.importorskip("sympy")
    vs = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert _rank(vs, 3) == 2
    basis = row_space_basis(vs)
    assert basis == [(Fraction(1), Fraction(0), Fraction(1)),
                     (Fraction(0), Fraction(1), Fraction(1))]
    assert _cleared_basis(linalg._int_rows(vs), 3) == linalg._int_rows(basis)
    assert row_space_basis([]) == _cleared_basis([], 3) == []
    assert _rank([], 3) == 0
    vs = [[1, 2, 3, 4, 0], [2, 4, 6, 8, 0], [0, 0, 1, 5, 7], [1, 2, 4, 9, 7]]
    assert _rank(vs, 5) == 2
    assert _cleared_basis(linalg._int_rows(vs), 5) == [[(0, 1), (1, 2), (3, -11), (4, -21)],
                                                      [(2, 1), (3, 5), (4, 7)]]


def test_solve_unique_and_underdetermined():
    a = Matrix(2, 2, [[1, 1], [1, -1]])
    assert solve(a, [3, 1]) == (Fraction(2), Fraction(1))
    # free variable pinned to zero
    b = Matrix(1, 2, [[1, 1]])
    assert solve(b, [5]) == (Fraction(5), Fraction(0))
    # inconsistent
    c = Matrix(2, 2, [[1, 1], [2, 2]])
    assert solve(c, [1, 3]) is None


def test_kernel_basis():
    a = Matrix(1, 3, [[1, 2, 3]])
    ker = kernel(a)
    assert len(ker) == 2
    for v in ker:
        assert dot(a.row(0), v) == 0
    assert kernel(identity(3)) == []


def test_solve_matches_kernel_structure():
    a = Matrix(2, 3, [[1, 2, 0], [0, 0, 1]])
    x = solve(a, [4, 5])
    assert x is not None
    assert tuple(dot(row, x) for row in a.entries) == (Fraction(4), Fraction(5))


def _random_rows(rng, rows, cols, rank, rational):
    # a rows x rank by rank x cols product, so the rank is at most `rank`
    def entry():
        num = rng.randint(-9, 9)
        return Fraction(num, rng.randint(1, 6)) if rational else Fraction(num)
    left = [[entry() for _ in range(rank)] for _ in range(rows)]
    right = [[entry() for _ in range(cols)] for _ in range(rank)]
    return [tuple(sum((l[t] * right[t][j] for t in range(rank)), Fraction(0))
                  for j in range(cols)) for l in left]


def test_row_space_rank_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2016)
    cases = [([], 0), ([()], 0), ([(), (), ()], 0)]
    for _ in range(150):
        rows, cols = rng.randint(1, 7), rng.randint(0, 7)
        rank = rng.randint(0, min(rows, cols))
        cases.append((_random_rows(rng, rows, cols, rank, rng.random() < 0.5),
                      cols))
    for vectors, cols in cases:
        oracle = sympy.Matrix(len(vectors), cols,
                              [sympy.Rational(x.numerator, x.denominator)
                               for v in vectors for x in v]).rank()
        assert _rank(vectors, cols) == oracle, vectors


@pytest.mark.parametrize("vectors", [
    [[P, 0], [0, 1]],                  # a row that vanishes mod P
    [[1, 1], [1, 1 + P]],              # rows that agree mod P
    [[Fraction(1, P), 1], [1, 0]],     # clearing 1/P makes the rows agree mod P
    [[0, 1], [2 * P, 0]],              # a one-term row (0, 2P) in an empty column
    [[1, 0, 0], [0, 1, 0], [3, -2, 0], [0, 0, P]],  # a row on one-term pivots
    [[1, 1, 0], [1, 0, 0], [0, 0, P]],  # a one-term row on a multi-term pivot
], ids=["p-row", "rows-equal-mod-p", "denominator-p", "2p-row", "on-unit-pivots",
        "unit-on-multi-term-pivot"])
def test_rank_deficient_mod_p_falls_back_to_the_exact_rank(vectors):
    # rows whose rank mod P falls short have their rank over Q, and the unit
    # rows as their basis, however the rows and their terms are ordered
    pytest.importorskip("sympy")
    cols = len(vectors[0])
    rows = linalg._int_rows(vectors)
    unit = [tuple(Fraction(int(i == j)) for j in range(cols)) for i in range(cols)]
    assert sympy_basis(vectors, cols) == unit
    assert _rank(vectors, cols) == cols
    assert _cleared_basis(rows, cols) == linalg._int_rows(unit)
    rng = random.Random(30)
    for order in itertools.permutations(range(len(rows))):
        fed = [rng.sample(rows[i], len(rows[i])) for i in order]
        assert linalg._rank(fed, cols) == cols
        assert _cleared_basis(fed, cols) == linalg._int_rows(unit)


def test_zero_rows_are_skipped_and_change_no_rank_or_basis():
    # a zero row is the empty row: it has no nonzero terms
    one, two = [(0, 1), (1, 2), (2, 3)], [(2, 6), (0, 2), (1, 4)]
    rows = [[], one, [], two, []]
    assert linalg._echelon(iter(rows), 3) == {0: one}
    assert linalg._rank(rows, 3) == 1
    assert _cleared_basis(iter(rows), 3) == [one]
    assert _cleared_basis(iter([[]] * 3), 2) == []


def test_echelon_stops_reading_at_width_pivots():
    # a lazy iterable is read no further than the row that makes the last
    # pivot, and a full-width basis is the shared unit cells themselves
    read = []

    def rows():
        for row in ([(0, 1), (1, 1)], [(1, 2)], [(0, 5)], [(0, 7), (1, 3)]):
            read.append(row)
            yield row

    pivots = linalg._echelon(rows(), 2)
    assert len(pivots) == 2 and read == [[(0, 1), (1, 1)], [(1, 2)]]
    read.clear()
    basis = linalg._basis_rows(rows(), 2)
    assert len(read) == 2
    assert all(row is cell for row, cell in zip(basis, linalg._unit_cells(2)))
    assert basis == [((0, 1),), ((1, 1),)]


def test_int_rows_clear_denominators_by_one_lcm_per_list():
    # one scale for the list keeps the rows' ratios, so an integer Gram is
    # a single multiple of the exact one; a row keeps its nonzero terms
    assert linalg._int_rows([[Fraction(1, 2), 1], [Fraction(1, 3), "2/9"]]) == \
        [[(0, 9), (1, 18)], [(0, 6), (1, 4)]]
    assert linalg._int_rows([[0, Fraction(1, 2)], [Fraction(0), 0]]) == [[(1, 1)], []]
    assert linalg._int_rows([]) == []


def test_full_width_basis_shortcut_matches_rref():
    rng = random.Random(1982)
    for _ in range(100):
        cols = rng.randint(1, 6)
        rows = _random_rows(rng, rng.randint(cols, cols + 3), cols, cols,
                            rng.random() < 0.5)
        res = rref(Matrix(len(rows), cols, rows))
        if res.rank < cols:
            continue  # the random product fell short of full rank
        assert _cleared_basis(linalg._int_rows(rows), cols) == \
            linalg._int_rows(res.reduced.row(i) for i in range(res.rank)), rows


def test_matrix_constructor_rejects_floats_and_results_stay_exact():
    with pytest.raises(TypeError):
        Matrix(1, 2, [[1, 0.5]])
    with pytest.raises(TypeError):
        Matrix(1, 1, [[0.25]])
    m = Matrix(2, 3, [[1, "1/2", 0], [3, -2, "5/7"]])
    for result in (m, rref(m).reduced):
        assert all(type(x) is Fraction for row in result.entries for x in row)


def test_large_rref_entries_need_no_rref(monkeypatch):
    # a dense 12 x 10 integer matrix of rank 8, whose RREF entries are ratios
    # of 8 x 8 minors of about 100 bits: the integer elimination finds its rank
    # and basis, sympy's, and never calls rref over Fraction
    sympy = pytest.importorskip("sympy")
    rng = random.Random(43)
    right = [[rng.randint(-5000, 5000) for _ in range(10)] for _ in range(8)]
    left = [[rng.randint(-9, 9) for _ in range(8)] for _ in range(12)]
    vectors = [[sum(x * row[c] for x, row in zip(coeffs, right)) for c in range(10)]
               for coeffs in left]
    want = sympy_basis(vectors, 10)
    assert len(want) == sympy.Matrix(vectors).rank() == 8
    assert max(max(abs(x.numerator), x.denominator) for v in want for x in v) > 2 ** 95
    calls, real = [], linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda m: calls.append(m) or real(m))
    rows = linalg._int_rows(vectors)
    assert linalg._rank(rows, 10) == 8
    assert _cleared_basis(rows, 10) == linalg._int_rows(want)
    assert not calls
