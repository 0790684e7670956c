"""Fuzzing of generated build files and algebra payloads (skipped without
hypothesis)."""

import copy
import json
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from lefalg import catalog
from lefalg.buildfile import BuildFileError, evaluate, parse_build_file
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


# Payloads: P1xP1's own payload with a few values replaced, deleted or
# duplicated, and arbitrary JSON values. Small integers and the payload's own
# keys and tokens keep many mutants close to a readable document; the keys
# are ordered so that the mutations hypothesis draws first hit the tables.
_P1XP1 = algebra_payload(catalog.get("P1xP1").algebra)
P1XP1 = {k: _P1XP1[k] for k in ("products", "integration", "basis",
                                "top_degree", "name", "version", "format")}
PAYLOAD_KEYS = sorted(P1XP1) + ["checksum"]
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
    """P1XP1 with one to three values replaced, deleted or duplicated."""
    doc = copy.deepcopy(P1XP1)
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
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "a.alg.json")
        write_algebra(a, path)
        assert read_algebra(path) == a
