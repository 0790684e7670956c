"""Degree-one subalgebras and the three structural predicates."""

import json
from fractions import Fraction

import pytest

from _oracles import (brute_force_lefschetz_bases, brute_force_lefschetz_dims,
                      kernel, rescaled, sympy_lefschetz)
from lefalg import lefschetz, linalg, ring
from lefalg.buildfile import evaluate, parse_build_file
from lefalg.catalog import get, names
from lefalg.cli import run
from lefalg.constructors import projective_space
from lefalg.lefschetz import (LefschetzData, _int_gram, _omega_powers,
                              check_hard_lefschetz,
                              check_poincare_duality, check_symmetry,
                              lefschetz_subalgebra, primitive_dims)
from lefalg.linalg import P, Matrix, _dense, _rank
from lefalg.ring import (GradedAlgebra, _integral, integrate, multiply,
                         tensor_product, verify_algebra)


def test_pinned_lefschetz_dims():
    assert lefschetz_subalgebra(get("example1").algebra).dims == \
        (1, 2, 3, 4, 2, 1)
    assert lefschetz_subalgebra(get("example2").algebra).dims == \
        (1, 3, 6, 10, 7, 3, 1)
    assert lefschetz_subalgebra(get("example3").algebra).dims == \
        (1, 2, 3, 4, 5, 5, 4, 2, 1)


def test_example3_top_lefschetz_piece_is_full():
    a = get("example3").algebra
    lef = lefschetz_subalgebra(a)
    assert lef.dim(6) == a.dim(6) == 4


def test_gr25_lefschetz_dims_all_one():
    assert lefschetz_subalgebra(get("Gr-2-5").algebra).dims == (1,) * 7


def test_elements_outside_the_degrees_are_empty():
    # as dim says: no Element of degree -1 holding the top degree's coordinates
    lef = lefschetz_subalgebra(get("P-2").algebra)
    for k in (-1, 3):
        assert lef.elements(k) == [] and lef.dim(k) == 0
    assert [e.coords for e in lef.elements(2)] == [(Fraction(1),)]
    # True == 1, but a bool is no degree, as for GradedAlgebra.element
    for method in (lef.dim, lef.elements):
        with pytest.raises(TypeError, match="not a bool"):
            method(True)


def test_elements_follow_the_cell_rule_and_bases_stay_fractions():
    # example3's L^3 and L^4 have RREF entries such as 1/2 and -3/4
    lef = lefschetz_subalgebra(get("example3").algebra)
    for k, basis in enumerate(lef.bases):
        coords = [e.coords for e in lef.elements(k)]
        assert coords == list(basis)
        assert all(type(c) is Fraction for v in basis for c in v)
        assert all(type(c) is int or c.denominator > 1 for v in coords for c in v)
    assert Fraction(-3, 4) in [c for e in lef.elements(4) for c in e.coords]


def test_brute_force_span_agrees_on_all_catalog_algebras():
    for name in names():
        a = get(name).algebra
        assert lefschetz_subalgebra(a).dims == \
            brute_force_lefschetz_dims(a), name


def test_generator_scaling_and_order_do_not_matter():
    a = get("example1").algebra
    default = lefschetz_subalgebra(a).dims
    gens = [a.basis_element(1, i) for i in range(a.dim(1))]
    scaled = lefschetz_subalgebra(a, [7 * gens[1], -gens[0]])
    assert scaled.dims == default
    # redundant generators change nothing either
    padded = lefschetz_subalgebra(a, gens + [gens[0] + gens[1]])
    assert padded.dims == default


def test_restricted_generators_give_smaller_subalgebra():
    a = get("P1xP1").algebra
    sub = lefschetz_subalgebra(a, [a.by_label("h⊗1")])
    assert sub.dims == (1, 1, 0)


def test_generators_must_be_degree_one():
    a = get("P1xP1").algebra
    with pytest.raises(ValueError):
        lefschetz_subalgebra(a, [a.unit()])
    with pytest.raises(ValueError):
        lefschetz_subalgebra(a, [get("P-2").algebra.by_label("h")])


def test_symmetry_witness_format():
    v = check_symmetry(lefschetz_subalgebra(get("example1").algebra))
    assert not v.passed
    assert v.witness == "k=2: 3 vs 4"
    assert v.predicate == "symmetry"


def test_counterexamples_fail_all_three_predicates():
    for name in ("example1", "example2", "example3"):
        entry = get(name)
        lef = lefschetz_subalgebra(entry.algebra)
        assert not check_symmetry(lef).passed, name
        assert not check_poincare_duality(lef).passed, name
        assert not check_hard_lefschetz(lef, entry.omega).passed, name


def test_smooth_catalog_entries_pass_all_three():
    for name in ("P-1", "P-2", "P-3", "P-4", "P-5", "P-6",
                 "Gr-2-5", "Gr-2-4", "P3xP3", "P1xP2"):
        entry = get(name)
        lef = lefschetz_subalgebra(entry.algebra)
        assert check_symmetry(lef).passed, name
        assert check_poincare_duality(lef).passed, name
        assert check_hard_lefschetz(lef, entry.omega).passed, name


def test_hard_lefschetz_requires_omega_in_positive_dimension():
    lef = lefschetz_subalgebra(get("P-2").algebra)
    with pytest.raises(ValueError, match="omega"):
        check_hard_lefschetz(lef, None)


def test_hard_lefschetz_rejects_omega_outside_subalgebra():
    a = get("P1xP1").algebra
    lef = lefschetz_subalgebra(a, [a.by_label("h⊗1")])
    with pytest.raises(ValueError, match="outside"):
        check_hard_lefschetz(lef, a.by_label("1⊗h"))


def test_hard_lefschetz_rejects_wrong_degree_omega():
    a = get("P-3").algebra
    lef = lefschetz_subalgebra(a)
    with pytest.raises(ValueError):
        check_hard_lefschetz(lef, a.by_label("h^2"))


def test_point_needs_no_omega():
    pt = projective_space(0)
    lef = lefschetz_subalgebra(pt)
    assert lef.dims == (1,)
    assert check_hard_lefschetz(lef, None).passed
    assert check_symmetry(lef).passed
    assert check_poincare_duality(lef).passed
    pr = primitive_dims(lef, None)
    assert pr.valid and pr.dims == (1,)


def test_bad_omega_choice_can_fail_hl_on_a_smooth_space():
    # on P1 x P1 the class h(x)1 is in L^1 but its top power vanishes
    a = get("P1xP1").algebra
    lef = lefschetz_subalgebra(a)
    v = check_hard_lefschetz(lef, a.by_label("h⊗1"))
    assert not v.passed
    assert "rank" in v.witness


def test_primitive_dims_p1xp1():
    entry = get("P1xP1")
    lef = lefschetz_subalgebra(entry.algebra)
    pr = primitive_dims(lef, entry.omega)
    assert pr.valid
    assert pr.dims == (1, 1)
    # the primitive degree-1 class is the kernel of multiplying by omega^2
    a = entry.algebra
    diff = a.by_label("h⊗1") - a.by_label("1⊗h")
    om = entry.omega
    assert multiply(multiply(om, om), diff).is_zero


def test_primitive_dims_projective_spaces():
    for n in range(1, 7):
        entry = get(f"P-{n}")
        lef = lefschetz_subalgebra(entry.algebra)
        pr = primitive_dims(lef, entry.omega)
        assert pr.valid
        assert pr.dims == (1,) + (0,) * (n // 2)


def test_primitive_dims_partial_sums_rebuild_profile():
    for name in ("Gr-2-5", "Gr-2-4", "P3xP3", "P1xP2", "P1xP1xP1"):
        entry = get(name)
        lef = lefschetz_subalgebra(entry.algebra)
        pr = primitive_dims(lef, entry.omega)
        assert pr.valid, name
        d = entry.algebra.top_degree
        for k in range(d + 1):
            expected = sum(pr.dims[i] for i in range(min(k, d - k) + 1))
            assert lef.dim(k) == expected, (name, k)


def test_primitive_dims_flagged_invalid_when_hl_fails():
    entry = get("example1")
    lef = lefschetz_subalgebra(entry.algebra)
    pr = primitive_dims(lef, entry.omega)
    assert not pr.valid


def test_witness_rank_format_on_example3():
    entry = get("example3")
    lef = lefschetz_subalgebra(entry.algebra)
    v = check_hard_lefschetz(lef, entry.omega)
    assert not v.passed
    # the top power of omega vanishes outright, so the k=0 step fails
    assert v.witness == "k=0: rank 0 of 1"


def test_primitive_dims_match_explicit_kernels():
    # dim PL^i is the nullity of the omega^(d-2i+1) matrix on L^i, built here
    # column by column; past the top degree the matrix has no rows
    for name in names():
        entry = get(name)
        a = entry.algebra
        if sum(a.dims) > 60:
            continue
        d = a.top_degree
        lef = lefschetz_subalgebra(a)
        expected = []
        for i in range(d // 2 + 1):
            power = entry.omega ** (d - 2 * i + 1)
            cols = [multiply(power, u).coords for u in lef.elements(i)]
            rows = a.dim(d - i + 1)
            mat = Matrix(rows, len(cols),
                         [[c[t] for c in cols] for t in range(rows)])
            expected.append(len(kernel(mat)))
        assert primitive_dims(lef, entry.omega).dims == tuple(expected), name


def _degree_one(a):
    """Every degree-one basis class: explicit generators, so the elimination path."""
    return [a.basis_element(1, i) for i in range(a.dim(1))]


def _count_map_ranks(monkeypatch):
    calls = []
    inner = lefschetz._map_rank

    def counted(lef, m, row, k):
        calls.append(k)
        return inner(lef, m, row, k)

    monkeypatch.setattr(lefschetz, "_map_rank", counted)
    return calls


@pytest.mark.parametrize("name", ["Gr-2-5", "P1xP1xP1"])
def test_primitive_dims_ranks_only_the_hl_maps_when_hl_holds(monkeypatch,
                                                            name):
    # under hard Lefschetz dim PL^i = dim L^i - dim L^{i-1}, so the kernels
    # of omega^{d-2i+1} are not ranked on top of the HL maps; explicit
    # generators keep the product P1xP1xP1 on the elimination path
    entry = get(name)
    lef = lefschetz_subalgebra(entry.algebra, _degree_one(entry.algebra))
    calls = _count_map_ranks(monkeypatch)
    pr = primitive_dims(lef, entry.omega)
    d = entry.algebra.top_degree
    assert pr.valid
    assert len(calls) == d // 2 + 1


def test_primitive_dims_still_ranks_kernels_when_hl_fails(monkeypatch):
    entry = get("example3")
    lef = lefschetz_subalgebra(entry.algebra)
    calls = _count_map_ranks(monkeypatch)
    assert primitive_dims(lef, entry.omega) == ((1, 2, 1, 1, 0), False)
    # one HL map per degree whose dims match, and one kernel per degree
    d = entry.algebra.top_degree
    hl = [k for k in range(d // 2 + 1) if lef.dim(k) == lef.dim(d - k)]
    assert sorted(calls) == sorted(hl + list(range(d // 2 + 1)))


def _is_one_multiple(rows, exact) -> bool:
    """Whether the integer rows are c * exact for one rational c != 0, in
    the same shape; all-zero rows are a multiple of all-zero exact rows."""
    flat = [x for row in rows for x in row]
    goal = [y for row in exact for y in row]
    if [len(r) for r in rows] != [len(r) for r in exact] or \
            [x == 0 for x in flat] != [y == 0 for y in goal]:
        return False
    c = next((Fraction(x) / y for x, y in zip(flat, goal) if y), 1)
    return all(x == c * y for x, y in zip(flat, goal))


def _exact_gram(lef, k):
    d = lef.ambient.top_degree
    return [[integrate(multiply(u, v)) for v in lef.elements(d - k)]
            for u in lef.elements(k)]


def _dense_gram(lef, k):
    # the integer rows of _int_gram as coordinate vectors over L^{d-k}'s basis
    width = lef.dim(lef.ambient.top_degree - k)
    return [_dense(row, width) for row in _int_gram(lef, k)]


@pytest.mark.parametrize("name", names())
def test_pd_gram_is_the_integral_of_products(name):
    lef = lefschetz_subalgebra(get(name).algebra)
    for k in range(lef.ambient.top_degree + 1):
        assert _is_one_multiple(_dense_gram(lef, k), _exact_gram(lef, k))


def test_omega_power_rows_are_lines_of_the_powers():
    # example3's catalog omega has omega^7 = 0 in top degree 8, so HL fails
    # at k=0; each row is a multiple of omega^m, empty exactly where it is 0
    omega = get("example3").omega
    d = omega.algebra.top_degree
    rows = _omega_powers(omega, d + 1)
    assert len(rows) == d + 2
    assert [m for m, row in enumerate(rows) if not row] == [7, 8, 9] == \
        [m for m in range(d + 2) if (omega ** m).is_zero]
    for m, row in enumerate(rows):
        exact = (omega ** m).coords
        assert _is_one_multiple([_dense(row, len(exact))], [exact]), m


def test_report_ranks_each_hl_map_once(monkeypatch, capsys):
    # report runs check_hard_lefschetz and then primitive_dims on its
    # verdict, so the omega powers and the HL maps are built once
    calls = _count_map_ranks(monkeypatch)
    assert run(["report", "Gr-2-5"]) == 0
    assert "primitive dims: 1 0 0 0" in capsys.readouterr().out
    d = get("Gr-2-5").algebra.top_degree
    assert sorted(calls) == list(range(d // 2 + 1))


def test_report_builds_the_omega_powers_once_when_hl_fails(monkeypatch, capsys):
    # the kernels of omega^(d-2i+1) read the powers the HL check built
    calls = []
    inner = lefschetz._omega_powers

    def counted(omega, n):
        calls.append(n)
        return inner(omega, n)

    monkeypatch.setattr(lefschetz, "_omega_powers", counted)
    assert run(["report", "example3"]) == 0
    assert "hard_lefschetz: FAIL" in capsys.readouterr().out
    assert calls == [get("example3").algebra.top_degree + 1]


def _count_omega_powers(monkeypatch):
    calls = []
    inner = lefschetz._omega_powers

    def counted(omega, n):
        calls.append(n)
        return inner(omega, n)

    monkeypatch.setattr(lefschetz, "_omega_powers", counted)
    return calls


@pytest.mark.parametrize("verdict_first", [True, False])
@pytest.mark.parametrize("name", ["Gr-2-5", "example3"])
def test_the_verdict_and_the_dims_share_one_hl_pass(monkeypatch, name,
                                                     verdict_first):
    # the record remembers the HL pass for omega: the powers are built and
    # each HL map ranked once, in either order, and a later verdict is read;
    # example3 fails HL, so its kernels are ranked too, once each
    entry = get(name)
    lef = lefschetz_subalgebra(entry.algebra)
    expected = (check_hard_lefschetz(LefschetzData(*lef), entry.omega),
                primitive_dims(LefschetzData(*lef), entry.omega))
    powers, ranks = _count_omega_powers(monkeypatch), _count_map_ranks(monkeypatch)
    if verdict_first:
        hl = check_hard_lefschetz(lef, entry.omega)
        prim = primitive_dims(lef, entry.omega)
    else:
        prim = primitive_dims(lef, entry.omega)
        hl = check_hard_lefschetz(lef, entry.omega)
    assert (hl, prim) == expected
    assert check_hard_lefschetz(lef, entry.omega) == hl
    d = entry.algebra.top_degree
    maps = [k for k in range(d // 2 + 1) if lef.dim(k) == lef.dim(d - k)]
    kernels = [] if hl.passed else list(range(d // 2 + 1))
    assert hl.passed == prim.valid == (name == "Gr-2-5")
    assert powers == [d + 1]
    assert sorted(ranks) == sorted(maps + kernels)
    # the pass keeps every rank it found, so asking again ranks nothing
    ranks.clear()
    assert (check_hard_lefschetz(lef, entry.omega),
            primitive_dims(lef, entry.omega)) == expected
    assert ranks == [] and powers == [d + 1]


def test_each_omega_has_its_own_pass_on_one_record():
    a = get("P1xP1").algebra
    lef = lefschetz_subalgebra(a)
    ample, edge = a.by_label("h⊗1") + a.by_label("1⊗h"), a.by_label("h⊗1")
    answers = {ample: ("PASS", ((1, 1), True)),
               edge: ("k=0: rank 0 of 1", ((1, 1), False))}
    for i, omega in enumerate([ample, edge, ample, edge, edge, ample]):
        fresh = LefschetzData(*lef)
        if i % 2:  # the dims first, then the verdict
            assert primitive_dims(lef, omega) == primitive_dims(fresh, omega)
        hl = check_hard_lefschetz(lef, omega)
        assert hl == check_hard_lefschetz(fresh, omega)
        assert primitive_dims(lef, omega) == primitive_dims(fresh, omega)
        assert (hl.witness or "PASS", primitive_dims(lef, omega)) == answers[omega]


def test_an_omega_that_raises_is_not_remembered():
    p1p1, p2, p3 = (get(n).algebra for n in ("P1xP1", "P-2", "P-3"))
    narrow = lefschetz_subalgebra(p1p1, [p1p1.by_label("h⊗1")])
    cases = [  # record, omega that raises, the error, a valid omega
        (lefschetz_subalgebra(p2), None, "required", p2.by_label("h")),
        (narrow, p1p1.by_label("1⊗h"), "outside", p1p1.by_label("h⊗1")),
        (lefschetz_subalgebra(p2), p3.by_label("h"), "element of P-2",
         p2.by_label("h")),
        (lefschetz_subalgebra(p3), p3.by_label("h^2"), "degree 1",
         p3.by_label("h")),
    ]
    for lef, bad, error, good in cases:
        for query in [check_hard_lefschetz, primitive_dims] * 2:
            with pytest.raises(ValueError, match=error):
                query(lef, bad)
        fresh = LefschetzData(*lef)
        assert check_hard_lefschetz(lef, good) == check_hard_lefschetz(fresh, good)
        assert primitive_dims(lef, good) == primitive_dims(fresh, good)
        with pytest.raises(ValueError, match=error):
            check_hard_lefschetz(lef, bad)


def test_a_second_record_of_one_algebra_ranks_again(monkeypatch):
    # the pass lives on the record, so an equal record shares nothing
    entry = get("Gr-2-5")
    first, second = (lefschetz_subalgebra(entry.algebra) for _ in range(2))
    assert first == second and first is not second
    verdict = check_hard_lefschetz(first, entry.omega)
    powers, ranks = _count_omega_powers(monkeypatch), _count_map_ranks(monkeypatch)
    assert check_hard_lefschetz(second, entry.omega) == verdict
    assert check_hard_lefschetz(first, entry.omega) == verdict
    d = entry.algebra.top_degree
    assert powers == [d + 1]
    assert sorted(ranks) == list(range(d // 2 + 1))


@pytest.mark.parametrize("name", ["example1", "example3", "P1xP2"])
def test_a_table_mixing_int_and_half_cells_gives_the_rescaled_answers(name):
    entry = get(name)
    a = entry.algebra
    # b'_0 = 2 b_0 in degree 2: products landing on it pick up a half, and
    # the coefficients left integral are written as ints
    lam = [[Fraction(1 + ((k, i) == (2, 0))) for i in range(n)]
           for k, n in enumerate(a.dims)]
    scaled = rescaled(a, lam)[0]
    mixed = GradedAlgebra(a.name, a.basis, {
        key: [[tuple((t, _integral(c)) for t, c in cell) for cell in row]
              for row in table] for key, table in scaled.tables.items()},
        scaled.integration)
    assert any({type(c) for row in table for cell in row for _, c in cell}
               == {int, Fraction} for table in mixed.tables.values())
    assert Fraction(1, 2) in {c for row in mixed.tables[1, 1] for cell in row
                              for _, c in cell}
    b, lam_b = rescaled(a)
    omega_b = b.element(1, [x / l for x, l in zip(entry.omega.coords, lam_b[1])])
    omega = mixed.element(1, entry.omega.coords)  # degree 1 is not rescaled
    assert verify_algebra(mixed) == verify_algebra(b) == ((),)
    lef, lef_b = lefschetz_subalgebra(mixed), lefschetz_subalgebra(b)
    assert lef.dims == lef_b.dims == brute_force_lefschetz_dims(mixed)
    assert check_symmetry(lef) == check_symmetry(lef_b)
    assert check_poincare_duality(lef) == check_poincare_duality(lef_b)
    assert check_hard_lefschetz(lef, omega) == check_hard_lefschetz(lef_b, omega_b)
    assert primitive_dims(lef, omega) == primitive_dims(lef_b, omega_b)


@pytest.mark.parametrize("name", ["example1", "example3", "P1xP2"])
def test_tables_with_denominators_give_the_same_answers(name):
    entry = get(name)
    a = entry.algebra
    b, lam = rescaled(a)
    # the table scale is exercised: a cell holds a denominator > 1
    assert any(c.denominator > 1 for row in b.tables[1, 1]
               for cell in row for _, c in cell)
    omega = b.element(1, [x / l for x, l in zip(entry.omega.coords, lam[1])])
    lef_a, lef_b = lefschetz_subalgebra(a), lefschetz_subalgebra(b)
    assert lef_b.dims == lef_a.dims == brute_force_lefschetz_dims(b)
    assert lef_b.bases == brute_force_lefschetz_bases(b)
    assert check_symmetry(lef_b) == check_symmetry(lef_a)
    assert check_poincare_duality(lef_b) == check_poincare_duality(lef_a)
    assert check_hard_lefschetz(lef_b, omega) == \
        check_hard_lefschetz(lef_a, entry.omega)
    assert primitive_dims(lef_b, omega) == primitive_dims(lef_a, entry.omega)
    d = b.top_degree
    for k in range(d + 1):
        assert _is_one_multiple(_dense_gram(lef_b, k), _exact_gram(lef_b, k))
    for m, row in enumerate(_omega_powers(omega, d + 1)):
        exact = (omega ** m).coords
        assert _is_one_multiple([_dense(row, len(exact))], [exact]), m


# the two build files of the benchmark's cli-files workload
_BENCHMARK_BUILDS = {
    "blowup": {"blowup": {"Y": {"P": 5}, "Z": {"catalog": "CxP1-even"},
                          "pullback": [[[1]], [[1], [3]], [[6]]],
                          "chern_N": [[4, 18], [54], []]}},
    "product": {"product": [{"Gr": [2, 5]}, {"Gr": [2, 5]}, {"P": 1}]},
}


@pytest.mark.parametrize("source", names() + list(_BENCHMARK_BUILDS))
def test_full_width_pairings_read_from_the_table_agree_with_the_gram(source):
    if source in _BENCHMARK_BUILDS:
        a = evaluate(parse_build_file(json.dumps(_BENCHMARK_BUILDS[source])))
    else:
        a = get(source).algebra
    lef = lefschetz_subalgebra(a)
    d = a.top_degree
    by_gram = lefschetz._per_degree(
        lef, lambda k: _rank(_int_gram(lef, k), lef.dim(d - k)))
    assert check_poincare_duality(lef) == ("poincare-duality", by_gram)
    full = [k for k in range(d + 1)
            if lef.dim(k) == a.dim(k) and lef.dim(d - k) == a.dim(d - k)]
    assert 0 in full
    for k in full:
        assert ring._int_pairing(a, k) == _int_gram(lef, k)


def test_a_pairing_is_read_from_the_table_only_where_both_degrees_are_full():
    # A^2 = <q1, q2> with x^2 = q1, and the integration reads q2 only: L^0 is
    # all of A^0, but L^2 = <q1> is not all of A^2 and pairs to zero with it
    one, q1, q2 = ((0, 1),), ((0, 1),), ((1, 1),)
    tables = {(0, 0): [[one]], (0, 1): [[one]], (1, 0): [[one]],
              (0, 2): [[q1, q2]], (2, 0): [[q1], [q2]], (1, 1): [[q1]]}
    a = GradedAlgebra("lopsided", [["1"], ["x"], ["q1", "q2"]], tables, [0, 1])
    lef = lefschetz_subalgebra(a)
    assert lef.dims == (1, 1, 1)
    assert check_poincare_duality(lef).witness == "k=0: rank 0 of 1"


def test_a_whole_algebra_reaches_the_exact_fallback(monkeypatch):
    # P2 with h*h = P*q and integral q = 1: h*h vanishes mod P, so every rank
    # mod P that involves it falls short and rref runs; omega^2 = P*q is
    # divided by its gcd, so the hard Lefschetz maps never need it
    one = ((0, 1),)
    tables = {(0, 0): [[one]], (0, 1): [[one]], (1, 0): [[one]],
              (0, 2): [[one]], (2, 0): [[one]], (1, 1): [[((0, P),)]]}
    a = GradedAlgebra("P2-p", [["1"], ["h"], ["q"]], tables, [1])
    omega = a.element(1, [1])
    calls = []
    real = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda m: calls.append(m) or real(m))

    def rref_calls(f, *args):
        calls.clear()
        return f(*args), len(calls)

    lef, n = rref_calls(lefschetz_subalgebra, a)
    assert (lef.dims, n) == ((1, 1, 1), 1)  # L^2
    pd, n = rref_calls(check_poincare_duality, lef)
    assert pd.passed and n == 1  # the pairing at k = 1
    hl, n = rref_calls(check_hard_lefschetz, lef, omega)
    assert hl.passed and n == 0
    prim, n = rref_calls(primitive_dims, lef, omega)
    assert prim == ((1, 0), True) and n == 0
    assert check_symmetry(lef).passed
    report, n = rref_calls(verify_algebra, a)
    assert report.ok and n == 1  # the pairing at k = 1
    _, n = rref_calls(tensor_product, a, a)
    # one pairing check per distinct factor: a is both factors, so it is checked once
    assert n == 1


# every catalog name, the rungs of the in-process ladder benchmark, and three
# larger algebras: Gr(4, 9), the 480 classes of example3 x P1^4 and the 420 of
# example1 x example3, whose product record reaches no fallback (its
# elimination does, in the kernels of its primitive dims)
_REAL = names() + ["Gr-3-8", "P2xP2xP2xP2", "Gr-2-5xGr-2-5xP1", "x".join(["P1"] * 8),
                   "example2xP1xP1", "Gr-4-9", "example3xP1xP1xP1xP1",
                   "example1xexample3"]


def test_real_inputs_never_reach_the_exact_fallback(monkeypatch):
    # every certified modular RREF of a real input reconstructs within
    # isqrt(P // 2) and certifies, so rref never runs; a failure here is the
    # sign that the reconstruction bound needs more primes
    entries = [get(name) for name in _REAL]  # built first: blowups solve over Fraction
    calls, exact = [], []
    real, real_exact = linalg.rref, linalg._exact_rref
    monkeypatch.setattr(linalg, "rref", lambda m: calls.append(m) or real(m))
    monkeypatch.setattr(linalg, "_exact_rref",
                        lambda *args: exact.append(args) or real_exact(*args))
    for entry in entries:
        lef = lefschetz_subalgebra(entry.algebra)
        check_symmetry(lef)
        check_poincare_duality(lef)
        check_hard_lefschetz(lef, entry.omega)
        primitive_dims(lef, entry.omega)
        verify_algebra(entry.algebra)
        assert not calls, entry.name
    assert exact  # the certified modular RREF itself ran


def _p2(name, hh, top):
    # P2 with h*h = hh * q and integral of q = top
    one = ((0, 1),)
    tables = {(0, 0): [[one]], (0, 1): [[one]], (1, 0): [[one]],
              (0, 2): [[one]], (2, 0): [[one]], (1, 1): [[((0, hh),)]]}
    a = GradedAlgebra(name, [["1"], ["h"], ["q"]], tables, [top])
    return a, a.element(1, [1])


def _oracle_input(kind, name):
    """(algebra, omega): a catalog entry; it rescaled by `rescaled`; it with
    b'_0 = 2 b_0 in degree 2, so that some cells hold a half and the rest
    ints; or a P2."""
    if kind == "P2":
        return _p2(name, *{"P2-half": (Fraction(1, 2), 2), "P2-p": (P, 1)}[name])
    entry = get(name)
    if kind == "catalog":
        return entry.algebra, entry.omega
    lam = None if kind == "rescaled" else \
        [[Fraction(1 + ((k, i) == (2, 0))) for i in range(n)]
         for k, n in enumerate(entry.algebra.dims)]
    b, lam = rescaled(entry.algebra, lam)
    if kind == "half":  # the coefficients left integral written as ints
        b = GradedAlgebra(b.name, b.basis, {
            key: [[tuple((t, _integral(c)) for t, c in cell) for cell in row]
                  for row in table] for key, table in b.tables.items()}, b.integration)
    return b, b.element(1, [x / l for x, l in zip(entry.omega.coords, lam[1])])


# every catalog name (the three counterexamples among them, with their
# catalog omega), rescaled and half-cell tables, and P2-p, which reaches the
# exact fallback
@pytest.mark.parametrize("kind,name", [("catalog", n) for n in names()] + [
    (kind, n) for kind in ("rescaled", "half") for n in ("example1", "example3", "P1xP2")
] + [("P2", "P2-half"), ("P2", "P2-p")])
def test_the_stage_agrees_with_an_independent_sympy_oracle(kind, name):
    pytest.importorskip("sympy")
    a, omega = _oracle_input(kind, name)
    lef = lefschetz_subalgebra(a)
    got = (lef.bases, check_symmetry(lef).degrees, check_poincare_duality(lef).degrees,
           check_hard_lefschetz(lef, omega).degrees, primitive_dims(lef, omega))
    assert got == sympy_lefschetz(a, omega.coords)


def test_each_degree_is_stored_as_the_cleared_rows_of_its_rref(monkeypatch):
    # rows[k] is the one stored form of L^k: _int_rows of its RREF basis, or
    # the shared unit cells where L^k is all of A^k; the predicates read it
    # and clear only omega themselves
    calls = []
    real = lefschetz._int_rows
    monkeypatch.setattr(lefschetz, "_int_rows",
                        lambda vectors: calls.append(len(vectors)) or real(vectors))
    for name in _REAL:
        entry = get(name)
        a = entry.algebra
        lef = lefschetz_subalgebra(a)
        for k, (rows, basis) in enumerate(zip(lef.rows, lef.bases)):
            n = a.dim(k)
            if len(rows) < n:
                assert rows == tuple(map(tuple, linalg._int_rows(basis))), (name, k)
            else:
                assert all(row is cell for row, cell in zip(rows, ring._unit_cells(n))), \
                    (name, k)
        calls.clear()
        check_symmetry(lef)
        check_poincare_duality(lef)
        check_hard_lefschetz(lef, entry.omega)
        primitive_dims(lef, entry.omega)
        assert set(calls) <= {1}, name


def _stage(lef, omega):
    return (check_symmetry(lef).degrees, check_poincare_duality(lef).degrees,
            check_hard_lefschetz(lef, omega).degrees, primitive_dims(lef, omega))


def _shared_units(lef):
    """For each degree, whether its rows are the shared unit cells themselves."""
    return [len(rows) > 0 and all(r is u for r, u in zip(rows, ring._unit_cells(len(rows))))
            for rows in lef.rows]


def _assert_the_paths_agree(a, omega):
    """A product's record from its factors equals its eliminated record, shared
    unit cells included, and the two give the same verdicts and dims."""
    lef, ref = lefschetz_subalgebra(a), lefschetz_subalgebra(a, _degree_one(a))
    assert "_factors" in vars(lef) and "_factors" not in vars(ref)
    assert lef == ref and _shared_units(lef) == _shared_units(ref)
    assert _stage(lef, omega) == _stage(ref, omega)
    return lef


def test_every_catalog_product_is_read_from_its_factors():
    for name in dict.fromkeys(names() + _REAL):
        entry = get(name)
        if getattr(entry.algebra.tables, "factors", None):
            _assert_the_paths_agree(entry.algebra, entry.omega)
    # a product of products, and a product with a point, keep each factor's
    # records; a fold step's tables keep no factors
    p1, p2, pt = (get(n).algebra for n in ("P1", "P2", "P-0"))
    inner = tensor_product(p1, pt)
    outer = tensor_product(inner, p2, p1)
    lef = _assert_the_paths_agree(outer, outer.element(1, [2, -1, 0]))
    assert [f.ambient for f in vars(lef)["_factors"]] == [inner, p2, p1]
    assert [f.ambient for f in vars(vars(lef)["_factors"][0])["_factors"]] == [p1, pt]
    assert outer.tables.factors == (inner, p2, p1)
    _assert_the_paths_agree(tensor_product(pt, pt), None)
    # an algebra on a product's tables with another integration is eliminated
    t = get("P1xP2").algebra
    zero = GradedAlgebra("zero", t.basis, t.tables, [0])
    assert zero.tables.factors and "_factors" not in vars(lefschetz_subalgebra(zero))
    assert check_poincare_duality(lefschetz_subalgebra(zero)).witness == "k=0: rank 0 of 1"


@pytest.mark.parametrize("name", ["x".join(["P1"] * 8), "P2xP2xP2xP2", "Gr-2-5xGr-2-5xP1"])
def test_a_product_record_keeps_one_record_per_distinct_factor(name):
    a = get(name).algebra
    factors, lefs = a.tables.factors, vars(lefschetz_subalgebra(a))["_factors"]
    assert [lef.ambient for lef in lefs] == list(factors)
    assert len(set(map(id, lefs))) == len(set(map(id, factors))) < len(factors)
    assert all((x is y) == (f is g) for x, f in zip(lefs, factors) for y, g in zip(lefs, factors))


def test_a_product_record_builds_no_table_and_ranks_only_its_factors(monkeypatch):
    a = tensor_product(*(get(n).algebra for n in ("example1", "P1", "example3")))
    omega = ring._degree_one_sum(a)
    seen = []
    inner = lefschetz._map_rank
    monkeypatch.setattr(lefschetz, "_map_rank",
                        lambda lef, m, row, k: seen.append(lef.ambient) or inner(lef, m, row, k))
    lef = lefschetz_subalgebra(a)
    hl, prim = check_hard_lefschetz(lef, omega), primitive_dims(lef, omega)
    check_poincare_duality(lef)
    assert (hl.witness, prim.valid) == ("k=0: rank 0 of 1", False)
    assert a.tables._tables == dict.fromkeys(a.tables)  # no product table was built
    assert set(seen) == {get(n).algebra for n in ("example1", "P1", "example3")}
    seen.clear()
    assert primitive_dims(lef, omega) == prim and seen == []


# (product name, its factors) for the Kunneth oracle
_KUNNETH = [("P2xP2xP2xP2", ["P2"] * 4), ("Gr-2-5xGr-2-5xP1", ["Gr-2-5", "Gr-2-5", "P1"]),
            ("x".join(["P1"] * 10), ["P1"] * 10),
            ("example3xP1xP1xP1xP1", ["example3"] + ["P1"] * 4),
            ("example3xexample3", ["example3"] * 2), ("example1xexample3", ["example1", "example3"]),
            ("example2xexample3", ["example2", "example3"])]


@pytest.mark.parametrize("name,factors", _KUNNETH)
def test_the_kunneth_oracle_agrees_with_both_paths(name, factors):
    # example2xexample3's eliminated primitive dims take about 5 s: their
    # kernel ranks fall back to rref over Fraction
    pytest.importorskip("sympy")
    from _oracles import kunneth_lefschetz
    entry = get(name)
    expected = kunneth_lefschetz([get(f).algebra for f in factors], entry.omega.coords)
    lef = _assert_the_paths_agree(entry.algebra, entry.omega)
    assert (lef.dims, *_stage(lef, entry.omega)) == expected


@pytest.mark.parametrize("name,calls", [("x".join(["P1"] * 8), 2), ("P2xP2xP2xP2", 2),
                                        ("Gr-2-5xGr-2-5xP1", 3)])
def test_each_distinct_factor_record_is_ranked_once(name, calls, monkeypatch):
    # the product record, then each distinct factor record once (P1^8: 2, not 9)
    seen, real = [], lefschetz._pairing_ranks
    monkeypatch.setattr(lefschetz, "_pairing_ranks", lambda lef: seen.append(lef) or real(lef))
    lef = lefschetz_subalgebra(get(name).algebra)
    assert check_poincare_duality(lef).passed
    assert len(seen) == calls and seen[0] is lef
    assert list(map(id, seen[1:])) == list(dict.fromkeys(map(id, vars(lef)["_factors"])))


@pytest.mark.parametrize("name", dict.fromkeys(names() + _REAL))
def test_a_centred_type_is_the_type_the_ranks_give(name):
    # where hard Lefschetz holds, _strings reads the centred type off the
    # L-dims, and the ranks of every power of omega on every L^k give the
    # same strings; where it fails, some string is off centre
    from _oracles import ranked_jordan_type
    entry = get(name)
    lef = lefschetz_subalgebra(entry.algebra)
    d, strings = entry.algebra.top_degree, lefschetz._strings(lef, entry.omega)
    passed = check_hard_lefschetz(lef, entry.omega).passed
    assert passed == all(s + e == d for s, e in strings)
    assert not passed or strings == ranked_jordan_type(lef, entry.omega)


@pytest.mark.parametrize("name,calls", [("P2xP2xP2xP2", 2), ("Gr-2-5xGr-2-5xP1", 5)])
def test_a_product_ranks_only_the_hl_maps_of_its_hl_factors(name, calls, monkeypatch):
    # each distinct factor ranks omega^(d-2k) on L^k once for k <= d/2 (P2: 2,
    # Gr-2-5: 4, P1: 1) and reads its type off its L-dims, with no other rank
    # (6 and 31 calls when each factor's type was found by inclusion and exclusion)
    entry = get(name)
    lef = lefschetz_subalgebra(entry.algebra)
    ranks = _count_map_ranks(monkeypatch)
    assert check_hard_lefschetz(lef, entry.omega).passed
    assert len(ranks) == calls
    assert primitive_dims(lef, entry.omega).valid and len(ranks) == calls
