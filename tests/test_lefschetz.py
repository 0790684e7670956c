"""Degree-one subalgebras and the three structural predicates."""

import json
from fractions import Fraction

import pytest

from _oracles import (brute_force_lefschetz_bases, brute_force_lefschetz_dims,
                      kernel, rescaled)
from lefalg import lefschetz, ring
from lefalg.buildfile import evaluate, parse_build_file
from lefalg.catalog import get, names
from lefalg.cli import run
from lefalg.constructors import projective_space
from lefalg.lefschetz import (_int_gram, _omega_powers, check_hard_lefschetz,
                              check_poincare_duality, check_symmetry,
                              lefschetz_subalgebra, primitive_dims)
from lefalg.linalg import Matrix, _rank
from lefalg.ring import (GradedAlgebra, _integral, integrate, multiply,
                         verify_algebra)


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
    # of omega^{d-2i+1} are not ranked on top of the HL maps
    entry = get(name)
    lef = lefschetz_subalgebra(entry.algebra)
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


def _dense_row(row, n):
    out = [0] * n
    for t, x in row:
        out[t] = x
    return out


@pytest.mark.parametrize("name", names())
def test_pd_gram_is_the_integral_of_products(name):
    lef = lefschetz_subalgebra(get(name).algebra)
    for k in range(lef.ambient.top_degree + 1):
        assert _is_one_multiple(_int_gram(lef, k), _exact_gram(lef, k))


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
        assert _is_one_multiple([_dense_row(row, len(exact))], [exact]), m


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
        assert _is_one_multiple(_int_gram(lef_b, k), _exact_gram(lef_b, k))
    for m, row in enumerate(_omega_powers(omega, d + 1)):
        exact = (omega ** m).coords
        assert _is_one_multiple([_dense_row(row, len(exact))], [exact]), m


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
