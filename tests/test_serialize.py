"""Versioned algebra files: round trips, checksums, malformed input."""

import hashlib
import json

import pytest

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
        k1, i, k2, j, coeffs = entry
        assert all(isinstance(c, str) for c in coeffs)
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
    base = algebra_payload(get("P-2").algebra)

    def variant(**changes):
        doc = json.loads(json.dumps(base))
        doc.update(changes)
        return doc

    # out-of-range degree index
    bad = variant()
    bad["products"][0][0] = 99
    with pytest.raises(ValueError):
        algebra_from_payload(bad, require_checksum=False)

    # duplicate entry
    bad = variant()
    bad["products"].append(list(bad["products"][0]))
    with pytest.raises(ValueError, match="duplicate"):
        algebra_from_payload(bad, require_checksum=False)

    # wrong vector length
    bad = variant()
    bad["products"][0][4] = ["1", "2"]
    with pytest.raises(ValueError):
        algebra_from_payload(bad, require_checksum=False)


def test_payload_checksum_field_not_required_inline():
    payload = algebra_payload(get("Gr-2-4").algebra)
    payload.pop("checksum", None)
    assert algebra_from_payload(payload, require_checksum=False) == \
        get("Gr-2-4").algebra


# sha256 of write_algebra output, recorded when the product tables were
# still stored densely; the sparse tables must write the same v1 bytes
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
    write_algebra(get(name).algebra, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == V1_FILE_SHA256[name]


# sha256 of write_algebra output for the blowups rebuilt with e -> -e,
# recorded before every e-power was reduced through one relation
SIGN_MINUS_FILE_SHA256 = {
    "example1": "529ebefc92230358b194730bcc9b81626decaf201a422a18862396aff1451441",
    "example2": "5e98a11642bfe700421abb8a647fb90b7793e781734dc19a393e9e4dad4a2493",
}


@pytest.mark.parametrize("name", sorted(SIGN_MINUS_FILE_SHA256))
def test_written_sign_minus_blowup_bytes_are_pinned(tmp_path, name):
    build = {"example1": build_example1, "example2": build_example2}[name]
    path = tmp_path / f"{name}.alg.json"
    write_algebra(build(sign=-1), str(path))
    assert (hashlib.sha256(path.read_bytes()).hexdigest()
            == SIGN_MINUS_FILE_SHA256[name])
