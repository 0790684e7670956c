"""Versioned algebra files: round trips, checksums, malformed input."""

import hashlib
import json

import pytest
from _oracles import algebra_payload_v1, payload_checksum, write_algebra_v1

from lefalg import catalog, serialize
from lefalg.buildfile import evaluate, parse_build_file
from lefalg.catalog import build_example1, build_example2, get
from lefalg.constructors import projective_space
from lefalg.serialize import (algebra_from_payload, algebra_payload,
                              read_algebra, write_algebra)


@pytest.mark.parametrize("name", ["P-3", "CxP1-even", "Gr-2-5", "example1",
                                  "P1xP1", "example3"])
def test_round_trip_is_field_for_field(tmp_path, name):
    a = get(name).algebra
    path = tmp_path / f"{name}.alg.json"
    write_algebra(a, str(path))
    b = read_algebra(str(path))
    assert b == a               # structural equality
    assert b.basis == a.basis   # label order preserved
    assert b.products == a.products
    assert b.integration == a.integration
    assert b.name == a.name


def test_round_trip_p3_constructed(tmp_path):
    a = projective_space(3)
    path = tmp_path / "p3.alg.json"
    write_algebra(a, str(path))
    assert read_algebra(str(path)) == a


def test_files_are_deterministic(tmp_path):
    a = get("example1").algebra
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_algebra(a, str(p1))
    write_algebra(a, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_payload_uses_rational_strings():
    payload = algebra_payload(get("P-2").algebra)
    for entry in payload["products"]:
        k1, i, k2, j, terms = entry
        assert all(type(t) is int and isinstance(c, str) for t, c in terms)
    assert all(isinstance(c, str) for c in payload["integration"])


def test_tampered_file_fails_checksum(tmp_path):
    a = get("P-3").algebra
    path = tmp_path / "x.alg.json"
    write_algebra(a, str(path))
    doc = json.loads(path.read_text())
    doc["integration"] = ["2"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="checksum"):
        read_algebra(str(path))


def _spliced_digest(text: str, digest: str) -> str:
    """sha256 of a file's text with its checksum member and last newline cut out."""
    body = text.removesuffix("\n").replace(f'"checksum":"{digest}",', "", 1)
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def test_a_written_file_is_checked_on_its_text_and_a_reformatted_one_re_encoded(
        tmp_path, monkeypatch):
    a = get("Gr-2-4xP1").algebra
    path = tmp_path / "x.alg.json"
    write_algebra(a, str(path))
    text = path.read_text()
    stored = json.loads(text)["checksum"]
    assert _spliced_digest(text, stored) == stored
    encoded = []
    real = serialize._canonical
    monkeypatch.setattr(serialize, "_canonical", lambda p: encoded.append(p) or real(p))
    assert read_algebra(str(path)) == a and encoded == []
    path.write_text(json.dumps(json.loads(text), indent=1))  # same payload, other text
    assert read_algebra(str(path)) == a and len(encoded) == 1


@pytest.mark.parametrize("old,new", [
    ('"integration":["1"]', '"integration":["2"]'),
    ('[[0,"1"]]', '[[0,"2"]]'),
    ('"name":"Gr-2-4xP1"', '"name":"Gr-2-4xP2"'),
    ('"version":2', '"version":1'),
    ('"checksum":"', '"checksum":"0'),
    ('"products":[', '"products":[[1,0,1,0,[]],'),
])
def test_every_edit_of_a_written_file_is_refused(tmp_path, old, new):
    path = tmp_path / "x.alg.json"
    write_algebra(get("Gr-2-4xP1").algebra, str(path))
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))
    with pytest.raises(ValueError, match="^checksum mismatch: file corrupted or edited$"):
        read_algebra(str(path))


def test_a_text_that_carries_the_digest_of_its_own_spliced_text_is_accepted(tmp_path):
    # not canonical JSON (a space after every product's comma), so re-encoding the
    # payload gives another digest, but the stored one is that of the spliced text
    a = get("P1xP1").algebra
    path = tmp_path / "x.alg.json"
    write_algebra(a, str(path))
    stored = json.loads(path.read_text())["checksum"]
    text = path.read_text().replace("],[", "], [")
    digest = _spliced_digest(text, stored)
    path.write_text(text.replace(stored, digest))
    assert payload_checksum(json.loads(text.replace(f'"checksum":"{stored}",', ""))) != digest
    assert read_algebra(str(path)) == a


def test_missing_checksum_rejected_on_read(tmp_path):
    a = get("P-3").algebra
    path = tmp_path / "x.alg.json"
    write_algebra(a, str(path))
    doc = json.loads(path.read_text())
    del doc["checksum"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="checksum"):
        read_algebra(str(path))
    # but the payload API can opt out for inline build-file data
    assert algebra_from_payload(doc, require_checksum=False) == a


def test_version_mismatch(tmp_path):
    a = get("P-3").algebra
    path = tmp_path / "x.alg.json"
    write_algebra(a, str(path))
    doc = json.loads(path.read_text())
    doc["version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="version"):
        read_algebra(str(path))


def test_format_mismatch():
    payload = algebra_payload(get("P-2").algebra)
    payload["format"] = "something-else"
    with pytest.raises(ValueError, match="format"):
        algebra_from_payload(payload, require_checksum=False)


def test_truncated_file(tmp_path):
    a = get("example1").algebra
    path = tmp_path / "x.alg.json"
    write_algebra(a, str(path))
    raw = path.read_text()
    path.write_text(raw[: len(raw) // 2])
    with pytest.raises(ValueError, match="malformed"):
        read_algebra(str(path))


def test_malformed_rational_in_payload():
    payload = algebra_payload(get("P-2").algebra)
    payload.pop("checksum", None)
    payload["integration"] = ["0.5"]
    with pytest.raises(ValueError, match="rational"):
        algebra_from_payload(payload, require_checksum=False)


def test_bad_product_entries_rejected():
    for payload in (algebra_payload, algebra_payload_v1):
        base = payload(get("P-2").algebra)

        # out-of-range degree index
        bad = json.loads(json.dumps(base))
        bad["products"][0][0] = 99
        with pytest.raises(ValueError):
            algebra_from_payload(bad, require_checksum=False)

        # duplicate entry
        bad = json.loads(json.dumps(base))
        bad["products"].append(list(bad["products"][0]))
        with pytest.raises(ValueError, match="duplicate"):
            algebra_from_payload(bad, require_checksum=False)

        # wrong vector length (v1); terms that are not [t, "p/q"] (v2)
        bad = json.loads(json.dumps(base))
        bad["products"][0][4] = ["1", "2"]
        with pytest.raises(ValueError):
            algebra_from_payload(bad, require_checksum=False)


def test_payload_checksum_field_not_required_inline():
    payload = algebra_payload(get("Gr-2-4").algebra)
    payload.pop("checksum", None)
    assert algebra_from_payload(payload, require_checksum=False) == \
        get("Gr-2-4").algebra


# sha256 of the version 1 writer's output (now the reference writer in
# _oracles), recorded when the product tables were still stored densely; the
# sparse tables must write the same v1 bytes
V1_FILE_SHA256 = {
    "example1": "1bf316ca9034ee9f1304ac79748f6fbd27a2c4e12bd43bb568e1b5610b78899f",
    "example2": "5ca4ed6140c76b29a1ae881dbcb2e25df3d12f0b48b4346735666fd79b4c41a8",
    "example3": "3f99db28b6fb213e1b2b7296de14d77795e6a5477d6d793dda29ba321e50521f",
    "Gr-2-5xGr-2-5xP1":
        "27999f3159d90aad417f3544c3777a0d5a4027d894796cd304d1ef760c1b7181",
    # recorded while tensor_product still placed cells through an index of
    # every class; the blockwise Kronecker tables must write the same bytes
    "example3xP1":
        "70763985435e05a2148b318f0c07b43cb56ae1cb48b2a77cf3377a7902d03239",
    "P1xexample1":
        "9198c35a96a4dbf43842278ab42d98b790ea3b835266d0fabdf7331df262d914",
    "P2xP2xP2xP2":
        "ac51af673fa4d9fe1e167e5215311db660e3dfb21a8d7ee543440e70c782c13a",
}


@pytest.mark.parametrize("name", sorted(V1_FILE_SHA256))
def test_written_v1_bytes_are_pinned(tmp_path, name):
    path = tmp_path / f"{name}.alg.json"
    write_algebra_v1(get(name).algebra, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == V1_FILE_SHA256[name]


# sha256 of the version 1 writer's output for the blowups rebuilt with
# e -> -e, recorded before every e-power was reduced through one relation
SIGN_MINUS_FILE_SHA256 = {
    "example1": "529ebefc92230358b194730bcc9b81626decaf201a422a18862396aff1451441",
    "example2": "5e98a11642bfe700421abb8a647fb90b7793e781734dc19a393e9e4dad4a2493",
}


@pytest.mark.parametrize("name", sorted(SIGN_MINUS_FILE_SHA256))
def test_written_sign_minus_blowup_bytes_are_pinned(tmp_path, name):
    build = {"example1": build_example1, "example2": build_example2}[name]
    path = tmp_path / f"{name}.alg.json"
    write_algebra_v1(build(sign=-1), str(path))
    assert (hashlib.sha256(path.read_bytes()).hexdigest()
            == SIGN_MINUS_FILE_SHA256[name])


# sha256 of write_algebra's version 2 output for the same algebras, recorded
# when version 2 was introduced
V2_FILE_SHA256 = {
    "example1":
        "41c291f37f7f8b66f8d2d35847c9c7b5c4fcfd17347f8eded66ca6513c65b49b",
    "example2":
        "d698384b0b77745e828ebf05b105cbe94575d55abb200da79ee523f575641ab5",
    "example3":
        "96e16c527023c8a97703ce28c7c9f253e0a3e8abce3231b271b69a7c72e09f7f",
    "Gr-2-5xGr-2-5xP1":
        "c7aec87c5f8dab5d7d5e5933710dd1cdbe2e9fa996578e1cd10046e7b791dbbd",
    "example3xP1":
        "d84b4d927c9ee32f5af5f980bb8611b072cba5d8c0b7b2de4aec0ad5b3cbd373",
    "P1xexample1":
        "5e5f5de9185afbcad4bffa413aa54433314d77a2a47113f8107f8845b1eb7a25",
    "P2xP2xP2xP2":
        "5810ae71e5b5a3d16db15f45a2714a9dc94d06a490fbfd22e380c94c89f0fcd2",
}
V2_SIGN_MINUS_FILE_SHA256 = {
    "example1": "800a81be075bd1c5766e55f2b64a27580075b011d49e27faf69bb7717cd49719",
    "example2": "8f0b7362ab50168508f6c77301e09a72bc99f00c6a49e05cedd73dd1cb9171e0",
}


@pytest.mark.parametrize("name", sorted(V2_FILE_SHA256))
def test_written_v2_bytes_are_pinned(tmp_path, name):
    path = tmp_path / f"{name}.alg.json"
    write_algebra(get(name).algebra, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == V2_FILE_SHA256[name]


@pytest.mark.parametrize("name", sorted(V2_SIGN_MINUS_FILE_SHA256))
def test_written_v2_sign_minus_blowup_bytes_are_pinned(tmp_path, name):
    build = {"example1": build_example1, "example2": build_example2}[name]
    path = tmp_path / f"{name}.alg.json"
    write_algebra(build(sign=-1), str(path))
    assert (hashlib.sha256(path.read_bytes()).hexdigest()
            == V2_SIGN_MINUS_FILE_SHA256[name])


# the documents the benchmark builds and writes, a blowup and a 200-class
# product
BENCHMARK_BUILDS = {
    "blowup": {"blowup": {"Y": {"P": 5}, "Z": {"catalog": "CxP1-even"},
                          "pullback": [[[1]], [[1], [3]], [[6]]],
                          "chern_N": [[4, 18], [54], []]}},
    "product": {"product": [{"Gr": [2, 5]}, {"Gr": [2, 5]}, {"P": 1}]},
}


def _build(name: str):
    if name in BENCHMARK_BUILDS:
        return evaluate(parse_build_file(json.dumps(BENCHMARK_BUILDS[name])))
    return get(name).algebra


@pytest.mark.parametrize("name", catalog.names() + sorted(BENCHMARK_BUILDS))
def test_v1_and_v2_files_read_to_the_same_cells(tmp_path, name):
    a = _build(name)
    v1, v2 = tmp_path / "v1.alg.json", tmp_path / "v2.alg.json"
    write_algebra_v1(a, str(v1))
    write_algebra(a, str(v2))
    assert json.loads(v2.read_text())["version"] == 2
    b1, b2 = read_algebra(str(v1)), read_algebra(str(v2))
    assert b1 == b2 == a
    assert b1.basis == b2.basis and b1.integration == b2.integration
    for (k1, k2), table in b2.tables.items():
        assert table == b1.tables[k1, k2] == a.tables[k1, k2]
        mirror = b2.tables[k2, k1]
        for i, row in enumerate(table):
            for j, cell in enumerate(row):
                assert mirror[j][i] is cell
                assert b1.tables[k2, k1][j][i] is b1.tables[k1, k2][i][j]


def test_a_v2_file_is_one_sparse_triangle(tmp_path):
    a = get("P1xP1").algebra
    path = tmp_path / "p1xp1.alg.json"
    write_algebra(a, str(path))
    text = path.read_text()
    assert text.endswith("}\n") and "\n" not in text[:-1]  # compact
    payload = json.loads(text)
    keys = [entry[:4] for entry in payload["products"]]
    assert keys == sorted(keys)
    assert all((k1, i) <= (k2, j) for k1, i, k2, j in keys)
    # h1 * h2 = h1h2 is stored once; h1 * h1 = 0 is not stored
    assert [1, 0, 1, 1, [[0, "1"]]] in payload["products"]
    assert not any(entry[:4] == [1, 1, 1, 0] for entry in payload["products"])
    assert not any(entry[:4] == [1, 0, 1, 0] for entry in payload["products"])
    assert payload["checksum"] == payload_checksum(
        {k: v for k, v in payload.items() if k != "checksum"})


def _v2(name="P1xP1") -> dict:
    payload = algebra_payload(get(name).algebra)
    return json.loads(json.dumps(payload))


@pytest.mark.parametrize("extra,match", [
    ([1, 0, 1, 1, [[0, "1"]]], "duplicate"),        # a repeated entry
    ([1, 1, 1, 0, [[0, "1"]]], "mirror entry"),     # k1 == k2 with i > j
    ([2, 0, 0, 0, [[0, "1"]]], "mirror entry"),     # k1 > k2
], ids=["repeat", "diagonal-mirror", "degree-mirror"])
def test_v2_rejects_a_repeated_or_mirror_entry(extra, match):
    payload = _v2()
    payload["products"].append(extra)
    with pytest.raises(ValueError, match=match):
        algebra_from_payload(payload, require_checksum=False)


@pytest.mark.parametrize("terms", [
    "1", [["0", "1"]], [[0, 1]], [[True, "1"]], [[0]], [[0, "1", 2]],
    [(0, "1")], [[0.0, "1"]], [None],
], ids=repr)
def test_v2_rejects_a_term_that_is_not_int_and_string(terms):
    payload = _v2()
    payload["products"][-1][4] = terms
    with pytest.raises(ValueError, match=r"\[t, \"p/q\"\]|\[int, \"p/q\"\]"):
        algebra_from_payload(payload, require_checksum=False)


@pytest.mark.parametrize("terms,match", [
    ([[0, "0"]], "product table"), ([[1, "1"]], "product table"),
    ([[-1, "1"]], "product table"), ([[0, "1"], [0, "1"]], "product table"),
    ([[0, "x"]], "malformed rational"),
], ids=["zero", "out-of-range", "negative", "repeated-t", "bad-rational"])
def test_v2_rejects_a_cell_that_is_not_canonical(terms, match):
    # every check but the term shape is the constructor's or parse_rational's
    payload = _v2()
    payload["products"][-1][4] = terms
    with pytest.raises(ValueError, match=match):
        algebra_from_payload(payload, require_checksum=False)


def test_v2_reads_an_explicit_empty_cell_as_zero():
    payload = _v2()
    payload["products"].append([1, 0, 1, 0, []])
    assert algebra_from_payload(payload, require_checksum=False) == \
        get("P1xP1").algebra


def test_version_error_names_both_versions():
    payload = _v2()
    for bad in (3, 0, "2", True, 2.0):
        payload["version"] = bad
        with pytest.raises(ValueError, match=r"\(expected 1 or 2\)$"):
            algebra_from_payload(payload, require_checksum=False)


def test_writing_a_noncommutative_table_names_the_cell(tmp_path):
    a = get("P1xP1").algebra
    payload = algebra_payload_v1(a)
    for entry in payload["products"]:
        if entry[:4] == [1, 0, 1, 1]:
            entry[4] = ["2"]
    twisted = algebra_from_payload(payload, require_checksum=False)
    path = tmp_path / "twisted.alg.json"
    with pytest.raises(ValueError, match=r"^product table \(1,1\) cell \(0,1\) "
                                         r"differs from its mirror, table "
                                         r"\(1,1\) cell \(1,0\)"):
        write_algebra(twisted, str(path))
    assert not path.exists()


def _with(path, value):
    """An edit that sets payload[path[0]][path[1]]... to value; a slice as
    the last key inserts."""
    def edit(payload):
        *head, last = path
        node = payload
        for key in head:
            node = node[key]
        node[last] = value
        return payload
    return edit


READER_ERRORS = [
    # (version, edit, the whole message)
    (2, lambda p: [p], "algebra payload must be a JSON object"),
    (2, _with(["format"], "x"),
     "unsupported format 'x' (expected 'graded-algebra')"),
    (2, _with(["version"], 3), "unsupported format version 3 (expected 1 or 2)"),
    (2, _with(["checksum"], 5), "algebra payload is missing its checksum"),
    (2, _with(["checksum"], "0" * 64),
     "checksum mismatch: file corrupted or edited"),
    (2, lambda p: p.pop("name") and p, "algebra payload is missing 'name'"),
    (2, _with(["top_degree"], True),
     "algebra payload field 'top_degree' must be int"),
    (2, _with(["basis", slice(2, 3)], []), "basis must list degrees 0..2"),
    (2, _with(["basis", 1, 0], 7), "basis degree 1 must be a list of strings"),
    (2, _with(["products"], {}),
     "algebra payload field 'products' must be list"),
    (2, _with(["products", 0], [0, 0, 0, 0]),
     "product entry must be [k1,i,k2,j,coeffs], got [0, 0, 0, 0]"),
    (2, _with(["products", 0, 1], True),
     "product entry indices must be integers: [0, True, 0, 0, [[0, '1']]]"),
    (1, _with(["products", 0, 2], 0.0),
     "product entry indices must be integers: [0, 0, 0.0, 0, ['1']]"),
    (2, _with(["products", 0, 0], 99),
     "product entry out of range: [99, 0, 0, 0]"),
    (1, _with(["products", 4, 1], 2),
     "product entry out of range: [1, 2, 0, 0]"),
    (2, _with(["products", slice(5, 5)], [[1, 0, 1, 1, [[0, "1"]]]]),
     "duplicate product entry [1, 0, 1, 1]"),
    (1, _with(["products", slice(9, 9)], [[1, 1, 1, 0, ["1"]]]),
     "duplicate product entry [1, 1, 1, 0]"),
    (2, _with(["products", slice(5, 5)], [[1, 1, 1, 0, [[0, "1"]]]]),
     "product entry [1, 1, 1, 0] is a mirror entry: a version 2 file "
     "lists only (k1, i) <= (k2, j)"),
    (2, _with(["products", 4, 4], "1"),
     'product entry [1, 0, 1, 1]: expected a list of [t, "p/q"] terms'),
    (2, _with(["products", 4, 4, 0, 1], 1),
     'product entry [1, 0, 1, 1]: a term must be [int, "p/q"], got [0, 1]'),
    (2, _with(["products", 4, 4, 0], [0]),
     'product entry [1, 0, 1, 1]: a term must be [int, "p/q"], got [0]'),
    (2, _with(["products", 4, 4, 0, 1], "1/0"), "malformed rational: '1/0'"),
    (1, _with(["products", 1, 4, 0], 1),
     "product entry [0, 0, 1, 0]: rationals must be strings, got 1"),
    (1, _with(["products", 1, 4, 1], ["0"]),
     "product entry [0, 0, 1, 0]: rationals must be strings, got ['0']"),
    (1, _with(["products", 1, 4, 1], "0.5"), "malformed rational: '0.5'"),
    (1, _with(["products", 1, 4], ["1"]),
     "product entry [0, 0, 1, 0]: expected 2 rational strings"),
    (1, _with(["products", 1, 4], "10"),
     "product entry [0, 0, 1, 0]: expected 2 rational strings"),
    (2, _with(["integration", 0], 1),
     "integration: rationals must be strings, got 1"),
    (1, _with(["integration", 0], None),
     "integration: rationals must be strings, got None"),
    (2, _with(["integration"], ["1", "0"]),
     "integration: expected 1 rational strings"),
    (2, _with(["integration"], "1"),
     "algebra payload field 'integration' must be list"),
]


@pytest.mark.parametrize("version,edit,message", READER_ERRORS,
                         ids=[m for _, _, m in READER_ERRORS])
def test_every_reader_error_message_is_pinned(version, edit, message):
    a = get("P1xP1").algebra
    payload = algebra_payload(a) if version == 2 else algebra_payload_v1(a)
    with pytest.raises(ValueError) as e:
        algebra_from_payload(edit(json.loads(json.dumps(payload))),
                             require_checksum=False)
    assert str(e.value) == message
