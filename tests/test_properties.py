"""Fuzzing of generated build files, algebra payloads, element expressions,
Littlewood-Richardson coefficients and the certified modular RREF (skipped
without hypothesis)."""

import copy
import json
import os
import tempfile
from fractions import Fraction
from functools import cache
from itertools import product
from math import isqrt, prod
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from _oracles import (algebra_payload_v1, all_pairs, assert_dense_kronecker,
                      assert_ints_measured, brute_force_lefschetz_dims, dense_axiom_violations,
                      dense_ring_map_violations, full_scan_violations,
                      kunneth_lefschetz, lr_count_by_tableaux, ranked_jordan_type, rescaled,
                      sympy_basis, sympy_lefschetz, unfactored, write_algebra_v1)
from lefalg import catalog, lefschetz, linalg, ring
from lefalg.buildfile import BuildFileError, evaluate, parse_build_file
from lefalg.cli import parse_element_expr
from lefalg.constructors import (BlowupInput, blowup, projective_bundle,
                                 projective_space)
from lefalg.lefschetz import (check_hard_lefschetz, check_poincare_duality,
                              check_symmetry, lefschetz_subalgebra, primitive_dims)
from lefalg.linalg import P, Matrix, rref
from lefalg.ring import (GradedAlgebra, RingMap, _degree_one_sum, tensor_product,
                         verify_algebra, verify_ring_map)
from lefalg.schubert import contains, lr_coefficient, partitions_in_box
from lefalg.serialize import (algebra_from_payload, algebra_payload,
                              read_algebra, write_algebra)

# Integers up to 4 and text without digits name no P^n, Gr(k, n) or catalog
# entry with more than 6 classes. With at most 8 leaves and one product node,
# a document that does build something builds a few hundred classes at most.
SCALARS = st.one_of(
    st.integers(-2, 4),
    st.sampled_from([None, True, False, 0.5, "1/2", "-3", "0/1", "1/0", "x",
                     "P-2", "Gr-2-4", "P1xP1", "CxP1-even", "s[1]",
                     "graded-algebra"]),
    st.text(alphabet="Pabcex-/[]*", max_size=4))
KEYS = st.one_of(
    st.sampled_from(["P", "Gr", "product", "proj_bundle", "blowup", "algebra",
                     "catalog", "Y", "Z", "chern", "chern_N", "pullback",
                     "format", "version", "name", "top_degree", "basis",
                     "products", "integration"]),
    st.text(alphabet="Pabcex-", max_size=3))
LEAVES = st.one_of(
    SCALARS,
    st.builds(lambda n: {"P": n}, SCALARS),
    st.builds(lambda kn: {"Gr": kn}, st.lists(SCALARS, max_size=3)),
    st.builds(lambda name: {"catalog": name}, SCALARS))


def _nodes(kids):
    """Constructor-shaped objects with arbitrary contents, and plain JSON."""
    return st.one_of(
        st.builds(lambda fs: {"product": fs}, st.lists(kids, max_size=3)),
        st.builds(lambda y, c: {"proj_bundle": {"Y": y, "chern": c}},
                  kids, st.lists(kids, max_size=3)),
        st.builds(lambda y, z, p, c: {"blowup": {"Y": y, "Z": z,
                                                 "pullback": p, "chern_N": c}},
                  kids, kids, kids, kids),
        st.dictionaries(KEYS, kids, max_size=3),
        st.lists(kids, max_size=3))


JSON = st.recursive(LEAVES, _nodes, max_leaves=8)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(JSON)
def test_any_json_value_builds_or_raises_only_value_errors(doc):
    text = json.dumps(doc)
    assume(text.count('"product"') <= 1)
    try:
        evaluate(parse_build_file(text))
    except (BuildFileError, ValueError):
        pass


# Payloads: P1xP1's own payload, version 1 or 2, with a few values replaced,
# deleted or duplicated, and arbitrary JSON values. Small integers and the
# payload's own keys and tokens keep many mutants close to a readable
# document; the keys are ordered so that the mutations hypothesis draws first
# hit the tables.
P1XP1 = [{k: payload[k] for k in ("products", "integration", "basis",
                                  "top_degree", "name", "version", "format")}
         for payload in (algebra_payload(catalog.get("P1xP1").algebra),
                         algebra_payload_v1(catalog.get("P1xP1").algebra))]
PAYLOAD_KEYS = sorted(P1XP1[0]) + ["checksum"]
PAYLOAD_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-1, 3),
              st.sampled_from([0.5, "0", "1", "-1", "2/4", "1/0", " 3", "x",
                               "h⊗1", "1⊗h", "graded-algebra"]),
              st.text(max_size=3)),
    lambda kids: st.one_of(
        st.lists(kids, max_size=5),
        st.dictionaries(st.sampled_from(PAYLOAD_KEYS) | st.text(max_size=2),
                        kids, max_size=3)),
    max_leaves=6)


def _mutant(data) -> object:
    """A P1XP1 payload with one to three values replaced, deleted or
    duplicated."""
    doc = copy.deepcopy(data.draw(st.sampled_from(P1XP1)))
    for _ in range(data.draw(st.integers(1, 3))):
        parent, key, node = doc, None, doc
        for _ in range(data.draw(st.integers(1, 4))):  # a path 1-4 deep
            if not isinstance(node, (dict, list)) or not node:
                break
            keys = list(node) if isinstance(node, dict) else range(len(node))
            parent, key = node, data.draw(st.sampled_from(keys))
            node = parent[key]
        action = data.draw(st.sampled_from(["replace", "delete", "duplicate"]))
        if key is None:
            continue
        if action == "replace":
            parent[key] = data.draw(PAYLOAD_VALUES)
        elif action == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.append(copy.deepcopy(node))
    return doc


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_payloads_read_or_raise_only_value_errors_and_round_trip(data):
    doc = data.draw(PAYLOAD_VALUES) if data.draw(st.integers(0, 3)) == 0 \
        else _mutant(data)
    try:
        a = algebra_from_payload(doc, require_checksum=False)
    except ValueError:
        return
    commutative = all(cell == a.tables[k2, k1][j][i]
                      for (k1, k2), table in a.tables.items()
                      for i, row in enumerate(table)
                      for j, cell in enumerate(row))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "a.alg.json")
        if not commutative:  # only a version 1 file can hold such a table
            with pytest.raises(ValueError, match="differs from its mirror"):
                write_algebra(a, path)
            return
        write_algebra(a, path)
        assert read_algebra(path) == a


# Element expressions: a coefficient c before every label L of the paper's
# examples and of two standard rings, as "c*L", "c * L", "c L" and "cL". The
# "cL" form is left out for a label that starts with a digit, such as the
# unit "1" or "1⊗h", where it is ambiguous: "2/31" is the rational 2/31.
TERM_ALGEBRAS = [catalog.get(n).algebra
                 for n in ("example1", "example2", "example3", "Gr-2-5", "P1xP2")]


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 10**6), st.booleans())
def test_every_coefficient_form_parses_to_the_scaled_label(p, q, integral):
    c = str(p) if integral else f"{p}/{q}"
    for a in TERM_ALGEBRAS:
        for label in (lbl for labels in a.basis for lbl in labels):
            want = a.by_label(label) * Fraction(c)
            forms = [f"{c}*{label}", f"{c} * {label}", f"{c} {label}"]
            if not label[0].isdigit():
                forms.append(c + label)
            for text in forms:
                assert parse_element_expr(a, text) == want, text


# Single-cell corruptions: verify_algebra scans associativity on a generating
# set first and the full scan only on a violation or a broken unit law, so
# its report must be the full scan's, line for line, and its commutativity
# and associativity lines must be the dense oracle's. Besides a drawn cell,
# two kinds of cell test how a composed sum is compared with a stored cell:
# one with a coefficient that cancels the rest of its product with a class,
# so that the sum holds an explicit zero, and the true cell with its ints as
# equal Fractions, such as Fraction(2) for 2, which changes no product.
CORRUPTED = {n: catalog.get(n).algebra
             for n in ("P1xP2", "P1xP1xP1", "Gr-2-4", "example1", "example3")}


@cache
def _cancelling(name: str) -> list:
    """Each cell of CORRUPTED[name] at (k1, k2, i, j) with the coefficient of a
    class b_s set to c, where c b_s b_l cancels the rest of the cell times some
    b_l at a class, so that sum holds an explicit zero."""
    t, out = CORRUPTED[name], []
    for (k1, k2), table in t.tables.items():
        k = k1 + k2
        for k3 in range(t.top_degree + 1 - k):
            right = t.tables[(k, k3)]
            for (i, row), j, l, s in product(enumerate(table), range(t.dim(k2)),
                                             range(t.dim(k3)), range(t.dim(k))):
                true = row[j]
                rest = dict(ring._combine([(c, right[r][l]) for r, c in true if r != s]))
                for u, x in right[s][l]:
                    if u in rest:
                        cell = {**dict(true), s: -Fraction(rest[u]) / x}
                        out.append(((k1, k2, i, j), tuple(sorted(cell.items()))))
    return out


@settings(max_examples=75, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_corrupted_cells_get_the_full_scan_report(data):
    name = data.draw(st.sampled_from(list(CORRUPTED)))
    t = CORRUPTED[name]
    kind = data.draw(st.sampled_from(["drawn", "cancelling", "fraction"]))
    if kind == "cancelling":
        assume(_cancelling(name))
        (k1, k2, i, j), cell = data.draw(st.sampled_from(_cancelling(name)))
    else:
        d = t.top_degree
        k1 = data.draw(st.integers(0, d))  # 0: the unit row or column
        k2 = data.draw(st.integers(0, d - k1))
        i = data.draw(st.integers(0, t.dim(k1) - 1))
        j = data.draw(st.integers(0, t.dim(k2) - 1))
        true = t.tables[(k1, k2)][i][j]
    if kind == "drawn":
        terms = data.draw(st.lists(st.integers(0, t.dim(k1 + k2) - 1),
                                   max_size=2, unique=True))
        cell = tuple(sorted((s, data.draw(st.sampled_from(
            [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)]))) for s in terms))
        assume(cell != true)
    elif kind == "fraction":
        assume(any(type(c) is int for _, c in true))
        cell = tuple((s, Fraction(c)) for s, c in true)
    tables = {k: [list(row) for row in tab] for k, tab in t.tables.items()}
    tables[(k1, k2)][i][j] = cell
    if data.draw(st.booleans()):  # both cells of the pair, else one side
        tables[(k2, k1)][j][i] = cell
    a = GradedAlgebra("corrupted", t.basis, tables, t.integration)
    violations = verify_algebra(a).violations
    assert violations == full_scan_violations(a)
    assert kind != "fraction" or violations == verify_algebra(unfactored(t)).violations
    assert [v for v in violations
            if v.startswith(("commutativity", "associativity"))] \
        == dense_axiom_violations(a)


# Mirrored corruptions of cells off the unit row keep the unit law and
# commutativity, the premises of the operator argument, so the scan on the
# pairs of `ring._generators` must find a violation exactly when the full
# scan over every basis triple does, and only lines of the full scan.
PAIRED = {n: catalog.get(n).algebra
          for n in ("P1xP2", "P1xP1xP1", "Gr-2-4", "Gr-2-5", "example1",
                    "example3", "P2xP2", "Gr-2-4xP1")}


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_the_pair_scan_flags_exactly_when_the_full_scan_does(data):
    name = data.draw(st.sampled_from(list(PAIRED)))
    t = PAIRED[name]
    d = t.top_degree
    tables = {k: [list(row) for row in tab] for k, tab in t.tables.items()}
    for _ in range(data.draw(st.integers(1, 3))):
        k1 = data.draw(st.integers(1, d - 1))
        k2 = data.draw(st.integers(1, d - k1))
        i = data.draw(st.integers(0, t.dim(k1) - 1))
        j = data.draw(st.integers(0, t.dim(k2) - 1))
        terms = data.draw(st.lists(st.integers(0, t.dim(k1 + k2) - 1),
                                   max_size=2, unique=True))
        tables[(k1, k2)][i][j] = tables[(k2, k1)][j][i] = tuple(sorted(
            (s, data.draw(st.sampled_from([Fraction(1), Fraction(-1), Fraction(2),
                                           Fraction(1, 2)]))) for s in terms))
    a = GradedAlgebra("corrupted", t.basis, tables, t.integration)
    fast = ring._associativity(a, ring._generators(a)[1])
    full = ring._associativity(a, all_pairs(a))
    assert bool(fast) == bool(full)
    assert set(fast) <= set(full)


# A catalog algebra copied through the constructor with one cell of a table
# (k2, k1), k1 <= k2, changed, below a diagonal table's diagonal: its mirror
# no longer agrees, so as a product factor, a bundle base or a blowup ambient
# it is refused with the first line of its report, a commutativity line. The
# unit column (k1 = 0) is left as it is: a blowup's pushforward reads it first.
SKEWED = ["P-3", "P1xP1", "P1xP2", "Gr-2-4", "CxP1-even", "example1"]


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_a_non_commutative_input_is_refused_with_its_first_commutativity_line(data):
    t = catalog.get(data.draw(st.sampled_from(SKEWED))).algebra
    d = t.top_degree
    lower = [(k2, k1, i, j) for k1 in range(1, d + 1) for k2 in range(k1, d + 1 - k1)
             for i in range(t.dim(k2)) for j in range(t.dim(k1)) if k1 < k2 or j < i]
    k2, k1, i, j = data.draw(st.sampled_from(lower))
    terms = data.draw(st.lists(st.integers(0, t.dim(k1 + k2) - 1), max_size=2, unique=True))
    cell = tuple(sorted((s, data.draw(st.sampled_from([1, -1, 2, Fraction(1, 2)])))
                        for s in terms))
    assume(cell != t.tables[k2, k1][i][j])
    tables = {k: [list(row) for row in tab] for k, tab in t.tables.items()}
    tables[k2, k1][i][j] = cell
    a = GradedAlgebra("skewed", t.basis, tables, t.integration)
    first = verify_algebra(a).violations[0]
    assert first.startswith("commutativity fails")
    factors = data.draw(st.permutations([a, catalog.get("P-1").algebra]))
    for what, build in [("factor", lambda: tensor_product(*factors)),
                        ("base", lambda: projective_bundle(a, [a.unit(), a.zero(1),
                                                               a.zero(2)])),
                        ("ambient", lambda: _point_blowup(a, 1))]:
        with pytest.raises(ValueError) as e:
            build()
        assert str(e.value) == f"{what} skewed: {first}"


# The certified modular RREF against rref and sympy. A matrix is L*R for an
# RREF R of rank r with pivot column 0 and L whose first r rows are the
# identity, so rref gives R. Some rows of R may be unit rows, and some rows
# of L combine only those, so they sit on one-term pivots, or, read first,
# make a multi-term pivot in a unit row's column. "small" entries
# reconstruct mod P, so the certificate must accept the modular RREF and
# rref must not run. "big" puts an entry past sqrt(P/2), numerator or
# denominator, into R; "agree" appends a row that agrees mod P with a row
# of L*R but differs from it off R's row space; "p-row" appends the
# one-term row P or 2P times a unit vector off R's pivot columns. No
# modular candidate is then rref(A), so the fallback must run.
_PAST = isqrt(P // 2) + 1


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_modular_rref_matches_rref(data):
    pytest.importorskip("sympy")
    kind = data.draw(st.sampled_from(["small", "big", "agree", "p-row"]))
    forced = kind != "small"  # the fallback must run
    cols = data.draw(st.integers(1 + forced, 6))
    r = data.draw(st.integers(forced, cols - forced))
    pivots = sorted([0] + data.draw(st.permutations(range(1, cols)))[:r - 1]
                    if r else [])
    small = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
    reduced = []
    for i, p in enumerate(pivots):
        row = [Fraction(0)] * cols
        row[p] = Fraction(1)
        for c in range(p + 1, cols):
            if c not in pivots:
                row[c] = data.draw(small)
        reduced.append(row)
    units = data.draw(st.lists(st.sampled_from(range(r)), unique=True)) if r else []
    for i in units:
        reduced[i] = [Fraction(int(c == pivots[i])) for c in range(cols)]
    if kind == "big":
        c = next(c for c in range(cols) if c not in pivots)
        big = data.draw(st.integers(_PAST, P * P))
        assume(big % 5 and big % 7)  # so -big/7 and 5/big stay past the bound
        reduced[0][c] = data.draw(st.sampled_from(
            [Fraction(big), Fraction(-big, 7), Fraction(1, big), Fraction(5, big)]))
    extra = data.draw(st.integers(1 if kind == "big" else 0, 3))
    left = [[int(i == j) for j in range(r)] for i in range(r)] + \
        [data.draw(st.lists(st.integers(-5, 5), min_size=r, max_size=r))
         for _ in range(extra)] + \
        [[data.draw(st.integers(-3, 3)) * (i in units) for i in range(r)]
         for _ in range(data.draw(st.integers(0, 2 if units else 0)))]
    vectors = [[sum((x * row[c] for x, row in zip(coeffs, reduced)), Fraction(0))
                for c in range(cols)] for coeffs in left]
    if kind == "agree":
        vectors = [linalg._dense(row, cols) for row in linalg._int_rows(vectors)]
        c = next(c for c in range(cols) if c not in pivots)
        vectors.append([x + P * (j == c) for j, x in enumerate(vectors[0])])
    if kind == "p-row":
        c = next(c for c in range(cols) if c not in pivots)
        vectors.append([data.draw(st.sampled_from([P, 2 * P])) * (j == c)
                        for j in range(cols)])
    if data.draw(st.booleans()):  # rational rows, else their integer multiples
        vectors = [[Fraction(x) / (i + 2) for x in v] for i, v in enumerate(vectors)]
    vectors = [vectors[i] for i in data.draw(st.permutations(range(len(vectors))))]

    calls = []
    real = linalg.rref
    with mock.patch.object(linalg, "rref", lambda m: calls.append(m) or real(m)):
        basis = list(map(list, linalg._basis_rows(linalg._int_rows(vectors), cols)))
        rank = linalg._rank(linalg._int_rows(vectors), cols)
    res = rref(Matrix(len(vectors), cols, vectors))
    assert basis == linalg._int_rows(res.reduced.row(i) for i in range(res.rank))
    assert basis == linalg._int_rows(sympy_basis(vectors, cols))
    assert rank == res.rank == r + (kind in ("agree", "p-row"))
    assert bool(calls) == forced
    # the rows' terms in any order, in lists or in tuples, give the same
    # answers, and rref runs exactly when it runs on the sorted rows
    rows = linalg._int_rows(vectors)
    for fed in (rows, [data.draw(st.permutations(row)) for row in rows],
                [tuple(data.draw(st.permutations(row))) for row in rows]):
        calls.clear()
        with mock.patch.object(linalg, "rref", lambda m: calls.append(m) or real(m)):
            assert list(map(list, linalg._basis_rows(fed, cols))) == basis
            assert linalg._rank(fed, cols) == rank
        assert len(calls) == 2 * forced


# One entry of a pullback changed: the pullbacks of example1 and example2,
# which the catalog builders hand to blowup, and the maps P3 -> P1 (a ring
# map) and P1 -> P2 (not one: h^2 = 0 in P1 maps to h^2 != 0 in P2, a pair
# past the source's top degree). verify_ring_map composes cells; its report
# must be the dense oracle's, line for line. The entry is drawn, or it cancels
# the rest of some f(x)f(y) at a class, so that sum holds an explicit zero; or
# else the image keeps its values, its ints made equal Fractions.
def _pullback(build):
    with mock.patch.object(catalog, "blowup", lambda data, **kw: data.pullback):
        return build()


_P1, _P2, _P3 = (projective_space(n) for n in (1, 2, 3))
PULLBACKS = {
    "example1": _pullback(catalog.build_example1),
    "example2": _pullback(catalog.build_example2),
    "P3->P1": RingMap(_P3, _P1, [[((0, 1),)]] * 2),
    "P1->P2": RingMap(_P1, _P2, [[((0, 1),)]] * 2),
}


def _cancelling_values(f: RingMap, k: int, i: int, j: int) -> list:
    """Values v of class i in f(b_j), b_j of degree k, for which some f(b_j) f(y)
    = sum of c_s b_s f(y) over the terms (s, c_s) of f(b_j) sums to zero at a
    class u, b_i f(y) and the other terms both nonzero there."""
    def times(s, fy, table):  # b_s f(y) as {u: c}
        out = {}
        for t, b in fy:
            for u, c in table[s][t]:
                out[u] = out.get(u, 0) + b * c
        return out

    values = []
    others = [(s, c) for s, c in f.images[k][j] if s != i]
    for k2 in range(min(len(f.images), f.target.top_degree + 1 - k)):
        table = f.target.tables[(k, k2)]
        for fy in f.images[k2]:
            own, rest = times(i, fy, table), {}
            for s, c in others:
                for u, x in times(s, fy, table).items():
                    rest[u] = rest.get(u, 0) + c * x
            values += [-Fraction(rest[u]) / own[u] for u in own if own[u] and rest.get(u)]
    return values


@settings(max_examples=90, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_ring_map_reports_match_the_dense_oracle(data):
    f = PULLBACKS[data.draw(st.sampled_from(list(PULLBACKS)))]
    images = [list(cells) for cells in f.images]
    k = data.draw(st.integers(0, len(images) - 1))
    i = data.draw(st.integers(0, f.target.dim(k) - 1))
    j = data.draw(st.integers(0, len(images[k]) - 1))
    kind = data.draw(st.sampled_from(["drawn", "cancelling", "fraction"]))
    image = dict(images[k][j])
    if kind == "fraction":
        assume(any(type(c) is int for c in image.values()))
        images[k][j] = tuple((t, Fraction(c)) for t, c in images[k][j])
    else:
        values = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)]
        if kind == "cancelling":
            values = _cancelling_values(f, k, i, j)
            assume(values)
        value = data.draw(st.sampled_from(values))
        assume(value != image.get(i, 0))
        image[i] = value
        images[k][j] = ring.sparse_cell(image)
    g = RingMap(f.source, f.target, images)
    assert verify_ring_map(g).violations == dense_ring_map_violations(g)
    assert verify_ring_map(f).violations == dense_ring_map_violations(f)


# Random constructor trees of depth at most 2 over six small leaves: tensor
# products, projective bundles of rank 2 or 3 whose Chern classes have
# integer coordinates in -3..3, and blowups at a point. Every leaf satisfies
# Poincare duality, and so does every product, bundle and blowup built from
# them, so each tree must give a palindromic, verified algebra whose L-dims
# match the brute-force oracle and whose payload reads back as an equal
# algebra. A bundle over a bundle names its class z2 (or z3, ...), so its
# labels are new; a blowup needs its e^i*1 labels to be new.
TREE_LEAVES = ["P-1", "P-2", "P-3", "Gr-2-4", "CxP1-even", "example1"]
MAX_CLASSES = 48


def _point_blowup(y: GradedAlgebra, sign: int) -> GradedAlgebra:
    """The blowup of y at a point: Z = P-0, the degree-0 identity as
    pullback, r = top degree of y, and c(N) = 1."""
    z, d = catalog.get("P-0").algebra, y.top_degree
    return blowup(BlowupInput(y, z, RingMap(y, z, [[((0, 1),)]]), d,
                              [z.zero(i) for i in range(1, d + 1)]), sign=sign)


def _tree(data, depth: int) -> GradedAlgebra:
    kind = data.draw(st.sampled_from(["leaf", "tensor", "bundle", "blowup"]
                                     if depth else ["leaf"]))
    if kind == "leaf":
        return catalog.get(data.draw(st.sampled_from(TREE_LEAVES))).algebra
    y = _tree(data, depth - 1)
    if kind == "blowup":
        d = y.top_degree
        assume(d >= 2 and sum(y.dims) + d - 1 <= MAX_CLASSES)
        assume(all(y.label_location(f"e^{i}*1") is None for i in range(1, d)))
        plus, minus = _point_blowup(y, 1), _point_blowup(y, -1)
        # e -> -e: the class e^k*1 of degree k goes to (-1)^k e^k*1
        signs = [[(-1) ** k if lbl == f"e^{k}*1" else 1 for lbl in labels]
                 for k, labels in enumerate(plus.basis)]
        flip = [[((s, c),) for s, c in enumerate(row)] for row in signs]
        assert verify_ring_map(RingMap(plus, minus, flip)).ok
        return data.draw(st.sampled_from([plus, minus]))
    if kind == "tensor":
        z = _tree(data, depth - 1)
        assume(sum(y.dims) * sum(z.dims) <= MAX_CLASSES)
        t = tensor_product(y, z)
        assert_dense_kronecker(y, z, t)  # reads every table, each built on that read
        return t
    rank = data.draw(st.integers(2, 3))
    assume(rank * sum(y.dims) <= MAX_CLASSES)
    chern = [y.unit()] + [
        y.element(i, data.draw(st.lists(st.integers(-3, 3), min_size=y.dim(i),
                                        max_size=y.dim(i))))
        if i <= y.top_degree else y.zero(i) for i in range(1, rank + 1)]
    return projective_bundle(y, chern)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_random_constructor_trees(data):
    # the Lefschetz stage also against sympy, an engine sharing no code with
    # lefalg, with the degree-one sum as omega
    pytest.importorskip("sympy")
    a = _tree(data, 2)
    assert a.dims == a.dims[::-1]
    assert verify_algebra(a).ok, verify_algebra(a).violations
    lef = lefschetz_subalgebra(a)
    assert lef.dims == brute_force_lefschetz_dims(a)
    omega = _degree_one_sum(a)
    got = (lef.bases, check_symmetry(lef).degrees, check_poincare_duality(lef).degrees,
           check_hard_lefschetz(lef, omega).degrees, primitive_dims(lef, omega))
    assert got == sympy_lefschetz(a, omega.coords if omega else ())
    assert algebra_from_payload(algebra_payload(a), require_checksum=False) == a


# Factors of an n-factor product: every draw has a point (top degree 0) and
# a rescaled factor (P-2, CxP1-even or Gr-2-4, each with non-integral
# structure constants) among 3-4 factors of at most 6 classes each.
FOLD_FACTORS = ["P-0", "P-1", "P-2", "CxP1-even", "Gr-2-4"]


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_an_n_factor_product_is_its_nested_binary_products(data):
    names = data.draw(st.lists(st.sampled_from(FOLD_FACTORS), min_size=1, max_size=2))
    rational = rescaled(catalog.get(data.draw(st.sampled_from(FOLD_FACTORS[2:]))).algebra)[0]
    factors = data.draw(st.permutations(
        [catalog.get(n).algebra for n in ["P-0", *names]] + [rational]))
    t = tensor_product(*factors)
    nested = factors[0]
    for f in factors[1:]:
        step = tensor_product(nested, f)
        assert_dense_kronecker(nested, f, step)
        nested = step
    assert (t.name, t.basis, t.tables, t.integration) == \
        (nested.name, nested.basis, nested.tables, nested.integration)
    assert t.name == "x".join(f.name for f in factors)
    # a product of two coefficients is an int wherever it is integral
    assert all(type(c) is int or c.denominator > 1 for table in t.tables.values()
               for row in table for cell in row for _, c in cell)
    named = tensor_product(*factors, name="named")
    assert (named.name, named.tables) == ("named", t.tables)


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_a_pair_is_flagged_exactly_when_its_cells_hold_only_ints(data):
    # a catalog algebra, or a product of it with a rescaled factor (Fraction
    # cells) and maybe another, each pair first read in either orientation;
    # then its file, as written and as a version 1 file, with the same flags
    a = catalog.get(data.draw(st.sampled_from(catalog.names()))).algebra
    if data.draw(st.booleans()):
        rational = rescaled(catalog.get(data.draw(st.sampled_from(FOLD_FACTORS[2:]))).algebra)[0]
        more = data.draw(st.lists(st.sampled_from(FOLD_FACTORS), max_size=1))
        factors = data.draw(st.permutations(
            [a, rational, *(catalog.get(n).algebra for n in more)]))
        assume(prod(sum(f.dims) for f in factors) <= 200)
        a = tensor_product(*factors)
        for key in data.draw(st.permutations(list(a.tables))):
            a.tables[key]
    assert_ints_measured(a)
    with tempfile.TemporaryDirectory() as tmp:
        for write in (write_algebra, write_algebra_v1):
            path = os.path.join(tmp, f"{write.__name__}.alg.json")
            write(a, path)
            b = read_algebra(path)
            assert_ints_measured(b)
            assert b.tables.ints == a.tables.ints


# Small catalog factors of a product analysed from its factors; a draw keeps
# products of at most 200 classes, so that its elimination stays quick.
KUNNETH_FACTORS = ["P-0", "P1", "P2", "Gr-2-4", "example1", "example3", "CxP1-even"]


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_a_product_is_analysed_as_its_factors_predict(data):
    # the record from the factors equals the eliminated one, and both paths
    # give the verdicts of the Kunneth oracle for an omega with zero and
    # negative coefficients; verified from its factors, reading no table, the
    # product gets the report of the scan of its cells
    pytest.importorskip("sympy")
    factors = [catalog.get(n).algebra for n in data.draw(
        st.lists(st.sampled_from(KUNNETH_FACTORS), min_size=2, max_size=3))]
    assume(prod(sum(f.dims) for f in factors) <= 200)
    t = tensor_product(*factors)
    assert verify_algebra(t) == ((),) and set(t.tables._tables.values()) == {None}
    assert verify_algebra(unfactored(t)) == ((),)
    coords = data.draw(st.lists(st.integers(-3, 3), min_size=t.dim(1), max_size=t.dim(1)))
    omega = t.element(1, coords) if t.top_degree else None
    lef = lefschetz_subalgebra(t)
    ref = lefschetz_subalgebra(t, [t.basis_element(1, i) for i in range(t.dim(1))])
    assert lef == ref
    got, eliminated = ((x.dims, check_symmetry(x).degrees, check_poincare_duality(x).degrees,
                        check_hard_lefschetz(x, omega).degrees, primitive_dims(x, omega))
                       for x in (lef, ref))
    assert got == eliminated == kunneth_lefschetz(factors, coords)
    # on each record where hard Lefschetz holds, the centred type that _strings
    # reads off the L-dims is the type the ranks give: both product records and
    # each factor record with its share of omega, as the product path reads it
    records, at = [(lef, omega), (ref, omega)], 0
    for f in vars(lef)["_factors"]:
        n = f.ambient.dim(1)
        records.append((f, ring.Element(f.ambient, 1, tuple(coords[at:at + n]))))
        at += n
    for x, w in records:
        if check_hard_lefschetz(x, w).passed:
            assert lefschetz._strings(x, w) == ranked_jordan_type(x, w)


def _box_partition(data, rows: int, cols: int):
    size = data.draw(st.integers(0, rows * cols))
    return data.draw(st.sampled_from(partitions_in_box(rows, cols, size)))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_lr_coefficient_matches_the_tableau_count(data):
    """lam and mu lie in a box of at most 4 x 5; nu has their total size,
    lies in the doubled box and contains both, as every nu with
    c^nu_{lam,mu} != 0 does (lam + mu, taken row by row, is one such nu)."""
    rows, cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 5))
    lam, mu = _box_partition(data, rows, cols), _box_partition(data, rows, cols)
    nu = data.draw(st.sampled_from([
        nu for nu in partitions_in_box(2 * rows, 2 * cols, sum(lam) + sum(mu))
        if contains(nu, lam) and contains(nu, mu)]))
    c = lr_coefficient(lam, mu, nu)
    assert c == lr_count_by_tableaux(lam, mu, nu)
    assert c == lr_coefficient(mu, lam, nu)
