"""Fuzzing of generated build files (skipped without hypothesis)."""

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from lefalg.buildfile import BuildFileError, evaluate, parse_build_file

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
