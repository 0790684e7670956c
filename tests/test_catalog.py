"""Built-in algebra registry: names, shapes, omegas, parametric lookup."""

import pytest

from lefalg.catalog import build_example1, build_example2, get, names
from lefalg.lefschetz import lefschetz_subalgebra
from lefalg.ring import render_element, tensor_product, verify_algebra


def test_names_contains_the_required_entries():
    have = names()
    for required in ("example1", "example2", "example3", "CxP1-even",
                     "P-1", "P-6", "Gr-2-4", "Gr-2-5", "P3xP3", "P1xP2"):
        assert required in have


def test_every_catalog_entry_verifies():
    for name in names():
        entry = get(name)
        assert verify_algebra(entry.algebra).ok, name
        assert entry.algebra.name == name


def test_catalog_dims_are_palindromic():
    for name in names():
        dims = get(name).algebra.dims
        assert dims == dims[::-1], name


def test_catalog_omegas_live_in_degree_one():
    for name in names():
        entry = get(name)
        if entry.algebra.top_degree == 0:
            continue
        assert entry.omega is not None, name
        assert entry.omega.degree == 1, name


def test_pinned_ambient_dims():
    assert get("example1").algebra.dims == (1, 2, 4, 4, 2, 1)
    assert get("example2").algebra.dims == (1, 3, 7, 10, 7, 3, 1)
    assert get("example3").algebra.dims == (1, 2, 4, 5, 6, 5, 4, 2, 1)
    assert get("CxP1-even").algebra.dims == (1, 2, 1)


def test_pinned_omegas():
    assert render_element(get("example1").omega) == "10*c - e^1*1"
    assert render_element(get("example2").omega) == "10*y1 + 10*y2 - e^1*1"
    assert render_element(get("example3").omega) == "s[1] + z^1*1"


def test_parametric_names():
    assert get("P-4").algebra.dims == (1,) * 5
    assert get("P3").algebra.dims == (1,) * 4  # dash is optional
    assert get("Gr-2-4").algebra.dims == (1, 1, 2, 1, 1)


def test_product_names_fold_left():
    t = get("P1xP1xP1").algebra
    assert t.dims == (1, 3, 3, 1)
    assert get("Gr-2-4xP1").algebra.dims == (1, 2, 3, 3, 2, 1)
    # CxP1-even must not be split at its inner x
    assert get("CxP1-even").algebra.dims == (1, 2, 1)


def test_unknown_names_raise():
    for bad in ("nope", "P-x", "Gr-5-2", "P1xnope", "Gr-0-3", ""):
        with pytest.raises(ValueError, match="unknown catalog name"):
            get(bad)


def test_get_is_cached():
    assert get("example1") is get("example1")
    assert get("P-3").algebra is get("P-3").algebra


def test_sign_flip_builders_are_consistent():
    for build in (build_example1, build_example2):
        plus, minus = build(), build(sign=-1)
        assert plus.dims == minus.dims
        assert verify_algebra(minus).ok
        assert lefschetz_subalgebra(plus).dims == \
            lefschetz_subalgebra(minus).dims


def test_description_strings_present():
    for name in ("example1", "example2", "example3"):
        assert get(name).description


@pytest.mark.parametrize("name, factors", [
    ("example3xP1", ("example3", "P1")),
    ("CxP1-evenxP1", ("CxP1-even", "P1")),
])
def test_product_factors_may_contain_x(name, factors):
    expected = get(factors[0]).algebra
    for f in factors[1:]:
        expected = tensor_product(expected, get(f).algebra)
    assert get(name).algebra == expected


def test_triple_product_is_the_left_fold():
    p1 = get("P1").algebra
    t = get("P1xP1xP1").algebra
    assert t == tensor_product(tensor_product(p1, p1), p1)
    assert t.basis[1] == ("h⊗1⊗1", "1⊗h⊗1", "1⊗1⊗h")
