"""Schubert calculus: partitions, Pieri, Littlewood-Richardson, Gr(k,n)."""

import itertools
import random
from fractions import Fraction

import pytest
from _oracles import (jacobi_trudi_product, lr_count_by_tableaux,
                      payload_checksum, pieri, relabeled)

from lefalg.constructors import projective_space
from lefalg.ring import (integrate, multiply, pairing_matrix, render_element,
                         verify_algebra)
from lefalg.schubert import (Box, _SchubertProducts, contains, format_partition,
                             grassmannian, is_partition, lr_coefficient,
                             parse_partition, partitions_in_box,
                             quotient_chern_classes, schubert_label)
from lefalg.serialize import algebra_payload


def test_partition_predicates():
    assert is_partition(())
    assert is_partition((3, 1))
    assert not is_partition((1, 3))
    assert not is_partition((2, 0))
    assert not is_partition((2, -1))


def test_partition_parsing_round_trip():
    for lam in [(), (1,), (3, 2), (4, 4, 1)]:
        assert parse_partition(format_partition(lam)) == lam
    assert parse_partition("[]") == ()
    assert parse_partition("[3,1]") == (3, 1)
    with pytest.raises(ValueError):
        parse_partition("[1,3]")
    with pytest.raises(ValueError):
        parse_partition("3,1")


def test_schubert_labels():
    assert schubert_label(()) == "1"
    assert schubert_label((3, 1)) == "s[3,1]"


def test_partitions_in_box_order_and_count():
    # 2x3 box, size 3: descending lex
    assert partitions_in_box(2, 3, 3) == [(3,), (2, 1)]
    assert partitions_in_box(2, 3, 0) == [()]
    # all partitions in the full 2x3 box number C(5,2) = 10
    total = sum(len(partitions_in_box(2, 3, m)) for m in range(7))
    assert total == 10


def test_contains():
    assert contains((3, 2), (2, 2))
    assert not contains((3, 2), (1, 3))


def test_pieri_pinned_cases():
    box = Box(2, 3)
    assert pieri((1,), 1, box) == [(2,), (1, 1)]
    assert pieri((3, 1), 1, box) == [(3, 2)]
    assert pieri((2, 1), 2, box) == [(3, 2)]
    assert pieri((), 2, box) == [(2,)]
    assert pieri((3, 3), 1, box) == []


def test_pieri_validates_input():
    box = Box(2, 3)
    with pytest.raises(ValueError):
        pieri((4,), 1, box)  # outside the box
    with pytest.raises(ValueError):
        pieri((1,), -1, box)


def test_lr_pinned_coefficients():
    assert lr_coefficient((1,), (1, 1), (2, 1)) == 1
    assert lr_coefficient((2, 1), (2, 1), (3, 3)) == 1
    assert lr_coefficient((1,), (1,), (2,)) == 1
    assert lr_coefficient((1,), (1,), (1, 1)) == 1
    assert lr_coefficient((1,), (1,), (3,)) == 0
    # sizes must add up
    assert lr_coefficient((2,), (1,), (2,)) == 0


def test_lr_is_symmetric_in_lambda_mu():
    parts = [p for m in range(5) for p in partitions_in_box(3, 3, m)]
    for lam, mu in itertools.product(parts, repeat=2):
        for nu in partitions_in_box(3, 3, sum(lam) + sum(mu)):
            assert lr_coefficient(lam, mu, nu) == lr_coefficient(mu, lam, nu)


def test_grassmannian_validates_arguments():
    with pytest.raises(ValueError):
        grassmannian(0, 4)
    with pytest.raises(ValueError):
        grassmannian(4, 4)


def test_grassmannian_takes_no_bool_for_a_count():
    # True == 1 must neither build "Gr-True-3" nor hit the Gr(1, 3) cache entry
    with pytest.raises(ValueError):
        grassmannian(True, 3)
    assert grassmannian(1, 3).name == "Gr-1-3"
    with pytest.raises(ValueError):
        grassmannian(True, 3)
    with pytest.raises(ValueError):
        grassmannian(1, True)


def test_gr25_shape():
    g = grassmannian(2, 5)
    assert g.name == "Gr-2-5"
    assert g.dims == (1, 1, 2, 2, 2, 1, 1)
    assert g.basis[2] == ("s[2]", "s[1,1]")
    assert verify_algebra(g).ok


def test_gr25_pinned_products():
    g = grassmannian(2, 5)
    s1 = g.by_label("s[1]")
    assert render_element(s1 * g.by_label("s[3,2]")) == "s[3,3]"
    assert render_element(s1 ** 6) == "5*s[3,3]"
    assert integrate(s1 ** 6) == 5
    assert integrate(g.by_label("s[3,3]")) == 1


def test_gr25_duality_pairing():
    # sigma_lam pairs to 1 exactly with the complementary partition
    g = grassmannian(2, 5)
    for k in range(7):
        m = pairing_matrix(g, k)
        # each row has exactly one nonzero entry, equal to 1
        for i in range(m.rows):
            row = m.row(i)
            assert sorted(row) == [Fraction(0)] * (len(row) - 1) + [Fraction(1)]


def test_gr_1_n_is_projective_space():
    g = grassmannian(1, 4)
    p = projective_space(3)
    assert g.dims == p.dims
    relab = relabeled(g, p.basis, name=p.name)
    assert relab.products == p.products
    assert relab.integration == p.integration


def test_lr_matches_ring_products_all_pairs_gr25():
    """The multiplication table built from lr_coefficient must agree with
    expanding one factor into iterated Pieri steps inside the ring itself.

    sigma_mu equals the Jacobi-Trudi determinant det(h_{mu_i + j - i}), and
    h_p acts by Pieri; expanding the determinant gives an independent route
    to every product sigma_lam * sigma_mu.
    """
    g = grassmannian(2, 5)
    box = Box(2, 3)
    parts = [p for m in range(7) for p in partitions_in_box(2, 3, m)]
    assert len(parts) == 10

    checked = 0
    for lam, mu in itertools.product(parts, repeat=2):
        expected = jacobi_trudi_product(lam, mu, box)
        prod = multiply(g.by_label(schubert_label(lam)),
                        g.by_label(schubert_label(mu)))
        if prod.above_top:
            got = {}
        else:
            got = {nu: c for nu, c in
                   _coords_by_partition(g, prod).items() if c}
        assert got == expected, (lam, mu, got, expected)
        checked += 1
    assert checked == 100


def test_gr36_row_products_match_pieri():
    # three-row partitions; sigma_lam * sigma_(p) is the Pieri sum
    g, box = grassmannian(3, 6), Box(3, 3)
    for lam in (p for m in range(10) for p in partitions_in_box(3, 3, m)):
        for p in range(1, 4):
            prod = multiply(g.by_label(schubert_label(lam)),
                            g.by_label(schubert_label((p,))))
            got = {} if prod.above_top else {
                nu: c for nu, c in _coords_by_partition(g, prod).items() if c}
            assert got == {nu: 1 for nu in pieri(lam, p, box)}, (lam, p)


def _coords_by_partition(g, el):
    out = {}
    for i, c in enumerate(el.coords):
        lbl = g.basis[el.degree][i]
        lam = () if lbl == "1" else parse_partition(lbl[1:])
        out[lam] = c
    return out


def test_quotient_chern_classes():
    g = grassmannian(2, 5)
    cls = quotient_chern_classes(2, 5)
    assert len(cls) == 4
    assert cls[0] == g.unit()
    assert [render_element(c) for c in cls[1:]] == ["s[1]", "s[2]", "s[3]"]


def test_gr24_dims_palindromic():
    g = grassmannian(2, 4)
    assert g.dims == (1, 1, 2, 1, 1)
    assert verify_algebra(g).ok


@pytest.mark.parametrize("k,n", [(2, 4), (2, 5), (2, 6), (2, 7), (2, 8),
                                 (3, 6), (3, 7), (3, 8), (4, 8), (4, 6), (5, 7)])
def test_every_table_cell_matches_the_tableau_count(k, n):
    # all box triples (lam, mu, nu) with |nu| = |lam| + |mu|, the zero
    # coefficients included, for both the (k1, k2) and (k2, k1) tables
    g = grassmannian(k, n)
    by_degree = [partitions_in_box(k, n - k, m) for m in range(g.top_degree + 1)]
    checked = 0
    for (k1, k2), table in g.tables.items():
        for (i, lam), (j, mu) in itertools.product(enumerate(by_degree[k1]),
                                                   enumerate(by_degree[k2])):
            cell = dict(table[i][j])
            for t, nu in enumerate(by_degree[k1 + k2]):
                assert cell.get(t, 0) == lr_count_by_tableaux(lam, mu, nu), \
                    (lam, mu, nu)
                checked += 1
    assert checked == sum(len(by_degree[k1]) * len(by_degree[k2])
                          * len(by_degree[k1 + k2]) for k1, k2 in g.tables)


# sha256 of the canonical payload JSON, taken from the tables that counted
# every LR coefficient by lattice-word tableaux
PINNED_GRASSMANNIANS = {
    (2, 4): "0fda6552a074d5432ae5c9b7ec38c2f922861a98107303bef3f7312d04b48e1a",
    (2, 5): "6f74c275573ce9f83d5cabf1707349abccf920c469a597dc0d1c8ba763f7fafe",
    (3, 6): "b8dad3151dc2ea49b6dd7f198e54484f9c6d5cbb2e3ecbe5900798a3a0034c7b",
    (2, 8): "93357e4a80fe630cf3e5ff33ba3b532b7ebf4e9a8039e4f971d07f9b85c5dba5",
    (3, 8): "4986bdac61048dfe872c99ad43e367bf0981313e0c06ca3c71ae89c0ec6bba88",
    (4, 8): "2df550a1821071b7826a48383f9eaa3e7f1b9554f50ee614c4b13697dbe8e068",
    (3, 9): "ac9ffcb5eb21e18d517dddabbeef0eec7d805b6568bd5c7d2a1c553a47ef5076",
    (4, 9): "9cfd7beeebdd08e1fb5c91cc403b2478bbd1cfca52f793ccfee059d8bea305d1",
    (5, 7): "ae25b7704655ee3626c0a2798d1bdf21549fd45d9338e32cd8c0d8ded44ab9e8",
}


@pytest.mark.parametrize("k,n", list(PINNED_GRASSMANNIANS))
def test_grassmannian_tables_are_pinned_by_digest(k, n):
    assert payload_checksum(algebra_payload(grassmannian(k, n))) == \
        PINNED_GRASSMANNIANS[k, n]


@pytest.mark.parametrize("k,n", list(PINNED_GRASSMANNIANS))
def test_grassmannian_tables_read_in_any_order_are_pinned_by_digest(k, n):
    # each pair is built on its first read, which may be either orientation
    a = grassmannian.__wrapped__(k, n)
    keys = list(a.tables)
    random.Random(f"Gr-{k}-{n}").shuffle(keys)
    for key in keys:
        a.tables[key]
    assert payload_checksum(algebra_payload(a)) == PINNED_GRASSMANNIANS[k, n]


def test_a_product_peels_the_factor_with_fewer_rows():
    # s_1 s_mu is one Pieri step on mu, in either order of the factors
    products, mu = _SchubertProducts(4, 4), (3, 2, 2, 1)
    pieri_step = {nu: 1 for nu in products.strip(mu, 1)}
    assert products.times((1,), mu) == products.times(mu, (1,)) == pieri_step
    assert list(products.products) == [(mu, (1,))]


@pytest.mark.parametrize("k,n", [(3, 8), (4, 9)])
def test_grassmannian_forms_only_the_two_smallest_products(k, n, monkeypatch):
    # c^nu_{lam,mu} is symmetric in (lam, mu, nu^v), so no product s_lam s_mu
    # is formed with a factor larger than the third class |nu^v| = d - |lam| - |mu|;
    # a build forms none until a table is read, so every table is read
    d, seen = k * (n - k), []
    times = _SchubertProducts.times

    def recorded(self, lam, mu):
        seen.append((sum(lam), sum(mu)))
        return times(self, lam, mu)

    monkeypatch.setattr(_SchubertProducts, "times", recorded)
    grassmannian.cache_clear()
    dict(grassmannian(k, n).tables.items())
    assert seen
    assert all(max(a, b) <= d - a - b for a, b in seen)
