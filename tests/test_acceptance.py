"""Acceptance checklist: one test per numbered criterion, all equality exact.

Each test prints a single "criterion NN: PASS/FAIL" line (visible with -s,
or in the captured output on failure); under `pytest -v` the one-test-per-
criterion layout gives the same one-line-per-criterion report.
"""

import itertools
from contextlib import contextmanager
from fractions import Fraction

import pytest
from _oracles import brute_force_lefschetz_dims, jacobi_trudi_product, sympy_basis

from lefalg import catalog
from lefalg.cli import run
from lefalg.lefschetz import (check_hard_lefschetz, check_poincare_duality,
                              check_symmetry, lefschetz_subalgebra)
from lefalg.ring import multiply, render_element, verify_algebra
from lefalg.schubert import (Box, grassmannian, lr_coefficient,
                             parse_partition, partitions_in_box,
                             schubert_label)

COUNTEREXAMPLES = ("example1", "example2", "example3")
SMOOTH_PASSERS = ("P-1", "P-2", "P-3", "P-4", "P-5", "P-6",
                  "Gr-2-5", "Gr-2-4", "P3xP3", "P1xP2")


@contextmanager
def criterion(n: int):
    try:
        yield
    except BaseException:
        print(f"criterion {n:02d}: FAIL")
        raise
    print(f"criterion {n:02d}: PASS")


def test_criterion_01_example1_lefschetz_dims(capsys):
    pytest.importorskip("sympy")
    with criterion(1):
        assert run(["lef-dims", "example1"]) == 0
        assert capsys.readouterr().out.strip() == "1 2 3 4 2 1"
        a = catalog.get("example1").algebra
        assert a.dims == (1, 2, 4, 4, 2, 1)
        lef = lefschetz_subalgebra(a)
        assert lef.dim(2) == 3
        assert lef.dim(3) == 4
        assert lef.dims == (1, 2, 3, 4, 2, 1)
        assert brute_force_lefschetz_dims(a) == (1, 2, 3, 4, 2, 1)


def test_criterion_02_example2_lefschetz_dims():
    with criterion(2):
        a = catalog.get("example2").algebra
        assert a.dim(2) == 7
        assert a.dim(4) == 7
        lef = lefschetz_subalgebra(a)
        assert lef.dim(2) == 6
        assert lef.dim(4) == 7


def test_criterion_03_example3_dims_and_top_component():
    with criterion(3):
        a = catalog.get("example3").algebra
        assert a.dim(2) == 4
        assert a.dim(6) == 4
        lef = lefschetz_subalgebra(a)
        assert lef.dim(2) == 3
        assert lef.dim(6) == 4
        # L^6 fills the whole degree-6 component: the reduced echelon
        # basis of a full-dimensional subspace is the identity matrix
        ident = tuple(tuple(Fraction(1 if i == j else 0) for j in range(4))
                      for i in range(4))
        assert lef.bases[6] == ident


def test_criterion_04_example3_zeta_identities():
    with criterion(4):
        x = catalog.get("example3").algebra
        zeta = x.by_label("z^1*1")
        s1 = x.by_label("s[1]")
        assert zeta ** 4 == (x.by_label("s[3,1]")
                             + x.by_label("z^1*s[2,1]")
                             + x.by_label("z^2*s[1,1]"))
        assert s1 * s1 * zeta ** 4 == (x.by_label("s[3,3]")
                                       + x.by_label("z^1*s[3,2]") * 2
                                       + x.by_label("z^2*s[2,2]")
                                       + x.by_label("z^2*s[3,1]"))


def test_criterion_05_example1_exceptional_cube_relation():
    pytest.importorskip("sympy")
    with criterion(5):
        a = catalog.get("example1").algebra
        c = a.by_label("c")
        e = a.by_label("e^1*1")
        e3 = e ** 3
        assert e3 == (a.by_label("c^3") * -6
                      + a.by_label("e^1*ab") * -54
                      + a.by_label("e^2*a") * 4
                      + a.by_label("e^2*b") * 18)
        assert render_element(e3) == \
            "-6*c^3 - 54*e^1*ab + 4*e^2*a + 18*e^2*b"
        powers = [(c * c * c).coords, (c * c * e).coords, (c * e * e).coords]
        assert len(sympy_basis(powers, a.dim(3))) == 3
        assert len(sympy_basis(powers + [e3.coords], a.dim(3))) == 4


def test_criterion_06_predicate_coherence():
    with criterion(6):
        for name in COUNTEREXAMPLES:
            for flag in ("--sym", "--pd", "--hl"):
                assert run(["check", name, flag]) == 1, (name, flag)
            entry = catalog.get(name)
            lef = lefschetz_subalgebra(entry.algebra)
            assert not check_symmetry(lef).passed
            assert not check_poincare_duality(lef).passed
            assert not check_hard_lefschetz(lef, entry.omega).passed
        for name in SMOOTH_PASSERS:
            for flag in ("--sym", "--pd", "--hl"):
                assert run(["check", name, flag]) == 0, (name, flag)


def test_criterion_07_boundary_dims_on_every_catalog_entry():
    with criterion(7):
        for name in catalog.names():
            a = catalog.get(name).algebra
            lef = lefschetz_subalgebra(a)
            d = a.top_degree
            assert lef.dim(0) == 1, name
            assert lef.dim(d) == 1, name
            assert lef.dim(1) == lef.dim(d - 1), name


def test_criterion_08_kunneth_convolution():
    with criterion(8):
        factorizations = {
            "P1xP1": ("P-1", "P-1"),
            "P1xP2": ("P-1", "P-2"),
            "P3xP3": ("P-3", "P-3"),
            "P1xP1xP1": ("P-1", "P-1", "P-1"),
            "Gr-2-4xP1": ("Gr-2-4", "P-1"),
            "Gr-2-5xP2": ("Gr-2-5", "P-2"),
        }

        def conv(u, v):
            out = [0] * (len(u) + len(v) - 1)
            for i, x in enumerate(u):
                for j, y in enumerate(v):
                    out[i + j] += x * y
            return tuple(out)

        for name, factors in factorizations.items():
            assert name in catalog.names()
            got = lefschetz_subalgebra(catalog.get(name).algebra).dims
            expected = (1,)
            for f in factors:
                expected = conv(
                    expected,
                    lefschetz_subalgebra(catalog.get(f).algebra).dims)
            assert got == expected, name


def test_criterion_09_ring_axioms_and_palindromic_dims():
    with criterion(9):
        for name in catalog.names():
            a = catalog.get(name).algebra
            report = verify_algebra(a)
            assert report.ok, (name, report.violations)
            assert a.dims == a.dims[::-1], name


def test_criterion_10_oracle_equivalences():
    pytest.importorskip("sympy")
    with criterion(10):
        # lr_coefficient against iterated Pieri, all 100 pairs in Gr(2,5)
        g = grassmannian(2, 5)
        box = Box(2, 3)
        parts = [p for m in range(7) for p in partitions_in_box(2, 3, m)]
        checked = 0
        for lam, mu in itertools.product(parts, repeat=2):
            expected = jacobi_trudi_product(lam, mu, box)
            total = sum(lam) + sum(mu)
            if total <= 6:
                for nu in partitions_in_box(2, 3, total):
                    assert lr_coefficient(lam, mu, nu) == \
                        expected.get(nu, 0), (lam, mu, nu)
            prod = multiply(g.by_label(schubert_label(lam)),
                            g.by_label(schubert_label(mu)))
            got = {} if prod.above_top else {
                nu: c for nu, c in _by_partition(g, prod).items() if c}
            assert got == expected, (lam, mu)
            checked += 1
        assert checked == 100

        # subalgebra growth against brute-force monomial spans
        for name in catalog.names():
            a = catalog.get(name).algebra
            assert lefschetz_subalgebra(a).dims == \
                brute_force_lefschetz_dims(a), name

        # exceptional sign flip e -> -e is invisible to Lefschetz dims
        for build in (catalog.build_example1, catalog.build_example2):
            plus = build(sign=1)
            minus = build(sign=-1)
            assert verify_algebra(minus).ok
            assert lefschetz_subalgebra(minus).dims == \
                lefschetz_subalgebra(plus).dims


def _by_partition(g, el):
    out = {}
    for i, coeff in enumerate(el.coords):
        lbl = g.basis[el.degree][i]
        lam = () if lbl == "1" else parse_partition(lbl[1:])
        out[lam] = coeff
    return out
