"""Exact linear algebra: rref canonicity, solve, kernel, parsing."""

import random
from fractions import Fraction

import pytest

from _oracles import kernel, row_space_basis
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
    with pytest.raises(ValueError):
        Matrix.from_rows([[1, 2], [3]])
    m = Matrix.from_rows([[1, 2], [3, 4]])
    assert m.rows == m.cols == 2
    assert m.column(1) == (Fraction(2), Fraction(4))
    assert m.transpose().row(0) == (Fraction(1), Fraction(3))


def test_matrix_is_immutable_and_hashable():
    m = Matrix.identity(2)
    with pytest.raises(AttributeError):
        m.rows = 3
    assert m == Matrix.identity(2)
    assert hash(m) == hash(Matrix.identity(2))


def test_rref_is_canonical():
    # same row space, different presentation: identical RREF
    a = Matrix.from_rows([[2, 4, 6], [1, 1, 1]])
    b = Matrix.from_rows([[1, 1, 1], [3, 5, 7], [1, 3, 5]])
    ra, rb = rref(a), rref(b)
    assert ra.rank == rb.rank == 2
    assert [ra.reduced.row(i) for i in range(2)] == \
        [rb.reduced.row(i) for i in range(2)]
    assert ra.pivot_columns == (0, 1)


def test_rref_exactness_no_drift():
    # entries that would be lossy in floating point
    m = Matrix.from_rows([[Fraction(1, 3), Fraction(1, 7)],
                          [Fraction(1, 11), Fraction(1, 13)]])
    r = rref(m)
    assert r.rank == 2
    assert r.reduced == Matrix.identity(2)


def test_row_space_rank_and_basis():
    vs = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert row_space_rank(vs) == 2
    basis = row_space_basis(vs)
    assert basis == [(Fraction(1), Fraction(0), Fraction(1)),
                     (Fraction(0), Fraction(1), Fraction(1))]
    assert row_space_basis([]) == []
    assert row_space_rank([]) == 0


def test_solve_unique_and_underdetermined():
    a = Matrix.from_rows([[1, 1], [1, -1]])
    assert solve(a, [3, 1]) == (Fraction(2), Fraction(1))
    # free variable pinned to zero
    b = Matrix.from_rows([[1, 1]])
    assert solve(b, [5]) == (Fraction(5), Fraction(0))
    # inconsistent
    c = Matrix.from_rows([[1, 1], [2, 2]])
    assert solve(c, [1, 3]) is None


def test_kernel_basis():
    a = Matrix.from_rows([[1, 2, 3]])
    ker = kernel(a)
    assert len(ker) == 2
    for v in ker:
        assert a.mat_vec(v) == (Fraction(0),)
    assert kernel(Matrix.identity(3)) == []


def test_solve_matches_kernel_structure():
    a = Matrix.from_rows([[1, 2, 0], [0, 0, 1]])
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


@pytest.mark.parametrize("vectors", [
    [[P, 0], [0, 1]],                  # a row that vanishes mod P
    [[1, 1], [1, 1 + P]],              # rows that agree mod P
    [[Fraction(1, P), 1], [1, 0]],     # clearing 1/P makes the rows agree
], ids=["p-row", "rows-equal-mod-p", "denominator-p"])
def test_rank_deficient_mod_p_falls_back_to_the_exact_rank(vectors):
    pivots, _ = linalg._echelon_mod_p(linalg._int_rows(vectors), 2)
    assert len(pivots) == 1
    assert row_space_rank(vectors) == 2
    assert row_space_basis(vectors) == [(Fraction(1), Fraction(0)),
                                        (Fraction(0), Fraction(1))]


def test_int_rows_clear_denominators_by_one_lcm_per_list():
    # one scale for the list keeps the rows' ratios, so an integer Gram is
    # a single multiple of the exact one
    assert linalg._int_rows([[Fraction(1, 2), 1], [Fraction(1, 3), "2/9"]]) == \
        [[9, 18], [6, 4]]
    assert linalg._int_rows([]) == []
    with pytest.raises(ValueError, match="dimension mismatch"):
        linalg._int_rows([[1, 2], [3]])


def test_full_width_basis_shortcut_matches_rref():
    rng = random.Random(1982)
    for _ in range(100):
        cols = rng.randint(1, 6)
        rows = _random_rows(rng, rng.randint(cols, cols + 3), cols, cols,
                            rng.random() < 0.5)
        res = rref(Matrix.from_rows(rows))
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


def test_matrix_constructor_rejects_floats_and_results_stay_exact():
    with pytest.raises(TypeError):
        Matrix(1, 2, [[1, 0.5]])
    with pytest.raises(TypeError):
        Matrix.from_rows([[0.25]])
    m = Matrix.from_rows([[1, "1/2", 0], [3, -2, "5/7"]])
    products = (m.transpose(), rref(m).reduced)
    for result in products:
        assert all(type(x) is Fraction for row in result.entries for x in row)
    assert m.transpose() == Matrix.from_rows([[1, 3], ["1/2", -2], [0, "5/7"]])
    assert all(type(x) is Fraction for x in m.mat_vec([1, 2, 3]))


def test_a_corrupted_candidate_fails_the_certificate():
    rows = [[1, 2, 3, 4, 0], [2, 4, 6, 8, 0], [0, 0, 1, 5, 7], [1, 2, 4, 9, 7]]
    res = rref(Matrix.from_rows(rows))
    reduced = [res.reduced.row(i) for i in range(res.rank)]
    assert res.rank == 2
    assert linalg._certify(rows, 5, res.pivot_columns, reduced)
    # any one entry off the pivot columns moved, or a row dropped, fails
    for i, row in enumerate(reduced):
        for c in set(range(5)) - set(res.pivot_columns):
            bad = list(reduced)
            bad[i] = row[:c] + (row[c] + Fraction(1, 3),) + row[c + 1:]
            assert not linalg._certify(rows, 5, res.pivot_columns, bad), (i, c)
        rest = [r for j, r in enumerate(reduced) if j != i]
        cols = [p for j, p in enumerate(res.pivot_columns) if j != i]
        assert not linalg._certify(rows, 5, cols, rest)


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
