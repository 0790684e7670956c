"""Exact linear algebra: rref canonicity, solve, kernel, parsing."""

import itertools
import random
from fractions import Fraction

import pytest

from _oracles import identity, kernel, row_space_basis, sympy_basis
from lefalg import linalg
from lefalg.linalg import (P, Matrix, dot, format_rational, parse_rational,
                           row_space_rank, rref, scalar, solve, vadd, vector)


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
    assert m.column(1) == (Fraction(2), Fraction(4))
    assert m.transpose().row(0) == (Fraction(1), Fraction(3))


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


def test_row_space_rank_and_basis():
    vs = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert row_space_rank(vs) == 2
    basis = row_space_basis(vs)
    assert basis == [(Fraction(1), Fraction(0), Fraction(1)),
                     (Fraction(0), Fraction(1), Fraction(1))]
    assert row_space_basis([]) == []
    assert row_space_rank([]) == 0


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
        assert a.mat_vec(v) == (Fraction(0),)
    assert kernel(identity(3)) == []


def test_solve_matches_kernel_structure():
    a = Matrix(2, 3, [[1, 2, 0], [0, 0, 1]])
    x = solve(a, [4, 5])
    assert x is not None
    assert a.mat_vec(x) == (Fraction(4), Fraction(5))


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
        assert row_space_rank(vectors) == oracle, vectors


@pytest.mark.parametrize("vectors, mod_p", [
    ([[P, 0], [0, 1]], 1),                  # a row that vanishes mod P
    ([[1, 1], [1, 1 + P]], 1),              # rows that agree mod P
    ([[Fraction(1, P), 1], [1, 0]], 1),     # clearing 1/P makes the rows agree
    ([[0, 1], [2 * P, 0]], 1),              # a one-term row (0, 2P) in an empty column
    ([[1, 0, 0], [0, 1, 0], [3, -2, 0], [0, 0, P]], 2),  # a row on one-term pivots
    ([[1, 1, 0], [1, 0, 0], [0, 0, P]], 2),  # a one-term row on a multi-term pivot
], ids=["p-row", "rows-equal-mod-p", "denominator-p", "2p-row", "on-unit-pivots",
        "unit-on-multi-term-pivot"])
def test_rank_deficient_mod_p_falls_back_to_the_exact_rank(vectors, mod_p, monkeypatch):
    pytest.importorskip("sympy")
    cols = len(vectors[0])
    rows = linalg._int_rows(vectors)
    pivots, _ = linalg._echelon_mod_p(rows, cols)
    assert len(pivots) == mod_p
    unit = [tuple(Fraction(int(i == j)) for j in range(cols)) for i in range(cols)]
    assert sympy_basis(vectors, cols) == unit
    assert row_space_rank(vectors) == cols
    assert row_space_basis(vectors) == unit
    # the rows and their terms in any order: the same answers, and rref runs
    # exactly when it runs for the rows as given, once for the rank and once
    # for the basis
    calls = []
    real = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda m: calls.append(m) or real(m))
    rng = random.Random(30)
    for order in itertools.permutations(range(len(rows))):
        fed = [rng.sample(rows[i], len(rows[i])) for i in order]
        calls.clear()
        assert linalg._rank(fed, cols) == cols
        assert linalg._basis(fed, cols) == unit
        assert len(calls) == 2


def test_zero_rows_are_skipped_and_change_no_rank_or_basis():
    # a zero row is the empty row: it has no nonzero terms
    one, two = [(0, 1), (1, 2), (2, 3)], [(2, 6), (0, 2), (1, 4)]
    rows = [[], one, [], two, []]
    pivots, read = linalg._echelon_mod_p(iter(rows), 3)
    assert len(pivots) == 1 and read == [one, two]
    assert linalg._rank(rows, 3) == 1
    assert linalg._basis(iter(rows), 3) == [tuple(map(Fraction, (1, 2, 3)))]
    assert linalg._basis(iter([[]] * 3), 2) == []


def test_echelon_stops_reading_at_width_pivots():
    # a lazy iterable is read no further than the row that makes the last
    # pivot, and a full-width basis is the shared unit cells themselves
    read = []

    def rows():
        for row in ([(0, 1), (1, 1)], [(1, 2)], [(0, 5)], [(0, 7), (1, 3)]):
            read.append(row)
            yield row

    pivots, kept = linalg._echelon_mod_p(rows(), 2)
    assert len(pivots) == 2 and kept == read == [[(0, 1), (1, 1)], [(1, 2)]]
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
    with pytest.raises(ValueError, match="dimension mismatch"):
        row_space_rank([[1, 2], [3]])


def test_full_width_basis_shortcut_matches_rref():
    rng = random.Random(1982)
    for _ in range(100):
        cols = rng.randint(1, 6)
        rows = _random_rows(rng, rng.randint(cols, cols + 3), cols, cols,
                            rng.random() < 0.5)
        res = rref(Matrix(len(rows), cols, rows))
        if res.rank < cols:
            continue  # the random product fell short of full rank
        assert row_space_basis(rows) == \
            [res.reduced.row(i) for i in range(res.rank)], rows


def test_rref_runs_exactly_when_the_rank_mod_p_is_short(monkeypatch):
    # the exact elimination (certified modular RREF, else rref) runs exactly
    # when the rank mod P falls short of min(rows, cols)
    calls = []
    real = linalg._exact_rref
    monkeypatch.setattr(linalg, "_exact_rref",
                        lambda *args: calls.append(args) or real(*args))
    rng = random.Random(61)
    for _ in range(100):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        rank = rng.randint(0, min(rows, cols))
        vectors = _random_rows(rng, rows, cols, rank, rng.random() < 0.5)
        calls.clear()
        got = row_space_rank(vectors)
        assert bool(calls) == (got < min(rows, cols)), vectors


def test_a_public_rank_refuses_inexact_zeros():
    # only the nonzero entries of a row become terms, so the public rank
    # coerces every entry itself: a float or bool zero is refused all the same
    for bad in ([[0.0, 1]], [[False, 1]], [[1, 0], [0, 0.0]]):
        with pytest.raises(TypeError):
            row_space_rank(bad)


def test_matrix_constructor_rejects_floats_and_results_stay_exact():
    with pytest.raises(TypeError):
        Matrix(1, 2, [[1, 0.5]])
    with pytest.raises(TypeError):
        Matrix(1, 1, [[0.25]])
    m = Matrix(2, 3, [[1, "1/2", 0], [3, -2, "5/7"]])
    products = (m.transpose(), rref(m).reduced)
    for result in products:
        assert all(type(x) is Fraction for row in result.entries for x in row)
    assert m.transpose() == Matrix(3, 2, [[1, 3], ["1/2", -2], [0, "5/7"]])
    assert all(type(x) is Fraction for x in m.mat_vec([1, 2, 3]))


def test_a_corrupted_candidate_fails_the_certificate():
    # the certificate reads a candidate as its cleared integer rows D*R_j
    vectors = [[1, 2, 3, 4, 0], [2, 4, 6, 8, 0], [0, 0, 1, 5, 7], [1, 2, 4, 9, 7]]
    rows = linalg._int_rows(vectors)
    res = rref(Matrix(len(vectors), 5, vectors))
    reduced = [res.reduced.row(i) for i in range(res.rank)]
    assert res.rank == 2
    assert linalg._certify(rows, linalg._int_rows(reduced))
    # any one entry off the pivot columns moved, or a row dropped, fails
    for i, row in enumerate(reduced):
        for c in set(range(5)) - set(res.pivot_columns):
            bad = list(reduced)
            bad[i] = row[:c] + (row[c] + Fraction(1, 3),) + row[c + 1:]
            assert not linalg._certify(rows, linalg._int_rows(bad)), (i, c)
        rest = [r for j, r in enumerate(reduced) if j != i]
        assert not linalg._certify(rows, linalg._int_rows(rest))


def test_a_wrong_reconstruction_falls_back_to_rref(monkeypatch):
    # every entry rebuilt one too large: the certificate rejects the
    # candidate and the answer comes from rref all the same
    rows = [[1, 2, 3, 4, 0], [2, 4, 6, 8, 0], [0, 0, 1, 5, 7], [1, 2, 4, 9, 7]]
    want = [(Fraction(1), Fraction(2), Fraction(0), Fraction(-11), Fraction(-21)),
            (Fraction(0), Fraction(0), Fraction(1), Fraction(5), Fraction(7))]
    real_reconstruct, real_rref = linalg._rational_mod_p, linalg.rref
    calls = []
    monkeypatch.setattr(linalg, "rref", lambda m: calls.append(m) or real_rref(m))
    assert row_space_basis(rows) == want and not calls
    monkeypatch.setattr(linalg, "_rational_mod_p",
                        lambda x: real_reconstruct(x) + 1)
    assert row_space_basis(rows) == want and len(calls) == 1
