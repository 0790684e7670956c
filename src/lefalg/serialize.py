"""On-disk algebra format (.alg.json), versioned and checksummed.

The payload stores the basis labels, a sparse product list
[k1, i, k2, j, coeff-vector], and the integration functional, with every
rational written as a "p/q" string. The checksum is the sha256 of the
canonical (sorted, compact) JSON of the payload minus the checksum field,
so a file edited by hand is rejected rather than silently reinterpreted.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .linalg import format_rational, parse_rational
from .ring import Cell, GradedAlgebra

FORMAT_NAME = "graded-algebra"
FORMAT_VERSION = 1


def algebra_payload(a: GradedAlgebra) -> dict:
    products = []
    for (k1, k2) in sorted(a.tables):
        n = a.dim(k1 + k2)
        for i, row in enumerate(a.tables[(k1, k2)]):
            for j, cell in enumerate(row):
                if cell:
                    coeffs = ["0"] * n
                    for t, c in cell:
                        coeffs[t] = format_rational(c)
                    products.append([k1, i, k2, j, coeffs])
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "name": a.name,
        "top_degree": a.top_degree,
        "basis": [list(deg) for deg in a.basis],
        "products": products,
        "integration": [format_rational(c) for c in a.integration],
    }


def _checksum(payload: dict) -> str:
    import hashlib  # loads OpenSSL; only file reads and writes need it

    blob = json.dumps(payload, sort_keys=True, ensure_ascii=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def write_algebra(a: GradedAlgebra, path: str) -> None:
    payload = algebra_payload(a)
    payload["checksum"] = _checksum(payload)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, ensure_ascii=True, indent=1)
        fh.write("\n")


def _field(payload: dict, key: str, kind: type) -> object:
    if key not in payload:
        raise ValueError(f"algebra payload is missing {key!r}")
    value = payload[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"algebra payload field {key!r} must be {kind.__name__}")
    return value


def algebra_from_payload(payload: object, *,
                         require_checksum: bool = True) -> GradedAlgebra:
    if not isinstance(payload, dict):
        raise ValueError("algebra payload must be a JSON object")
    fmt = payload.get("format")
    if fmt != FORMAT_NAME:
        raise ValueError(f"unsupported format {fmt!r} "
                         f"(expected {FORMAT_NAME!r})")
    version = payload.get("version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {version!r} "
                         f"(expected {FORMAT_VERSION})")
    if require_checksum or "checksum" in payload:
        stored = payload.get("checksum")
        if not isinstance(stored, str):
            raise ValueError("algebra payload is missing its checksum")
        body = {k: v for k, v in payload.items() if k != "checksum"}
        if _checksum(body) != stored:
            raise ValueError("checksum mismatch: file corrupted or edited")

    name = _field(payload, "name", str)
    d = _field(payload, "top_degree", int)
    basis = _field(payload, "basis", list)
    if d < 0 or len(basis) != d + 1:
        raise ValueError(f"basis must list degrees 0..{d}")
    for k, labels in enumerate(basis):
        if not isinstance(labels, list) or \
                not all(isinstance(lbl, str) for lbl in labels):
            raise ValueError(f"basis degree {k} must be a list of strings")
    dims = [len(labels) for labels in basis]
    # a file repeats a few distinct tokens ("0", "1", ...) many times over:
    # each is parsed once, to its value, or to None when it is zero
    nonzero: dict[str, Fraction | None] = {}

    def where(entry: list | None) -> str:
        return "integration" if entry is None else f"product entry {entry[:4]}"

    def parse_cell(raw: object, length: int, entry: list | None) -> Cell:
        """The nonzero (t, value) terms of a vector of rational strings."""
        if not isinstance(raw, list) or len(raw) != length:
            raise ValueError(f"{where(entry)}: expected {length} rational "
                             f"strings")
        cell = []
        for t, tok in enumerate(raw):
            try:
                x = nonzero[tok]
            except (KeyError, TypeError):  # a new token, or not a string
                if not isinstance(tok, str):
                    raise ValueError(f"{where(entry)}: rationals must be "
                                     f"strings, got {tok!r}") from None
                x = nonzero[tok] = parse_rational(tok) or None
            if x is not None:
                cell.append((t, x))
        return tuple(cell)

    tables = {(k1, k2): [[()] * dims[k2] for _ in range(dims[k1])]
              for k1 in range(d + 1) for k2 in range(d + 1 - k1)}
    seen = set()
    for entry in _field(payload, "products", list):
        if not (isinstance(entry, list) and len(entry) == 5):
            raise ValueError(f"product entry must be [k1,i,k2,j,coeffs], "
                             f"got {entry!r}")
        k1, i, k2, j, raw = entry
        for v in (k1, i, k2, j):
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"product entry indices must be integers: "
                                 f"{entry!r}")
        if not (0 <= k1 <= d and 0 <= k2 <= d and k1 + k2 <= d
                and 0 <= i < dims[k1] and 0 <= j < dims[k2]):
            raise ValueError(f"product entry out of range: {entry[:4]}")
        if (k1, i, k2, j) in seen:
            raise ValueError(f"duplicate product entry {entry[:4]}")
        seen.add((k1, i, k2, j))
        cell = parse_cell(raw, dims[k1 + k2], entry)
        mirror = tables[(k2, k1)][j][i]  # shared if equal, in either order
        tables[(k1, k2)][i][j] = mirror if mirror == cell else cell
    integration = [Fraction(0)] * dims[d]
    for t, x in parse_cell(_field(payload, "integration", list), dims[d],
                           None):
        integration[t] = x
    return GradedAlgebra(name, basis, tables, integration)


def read_algebra(path: str) -> GradedAlgebra:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"malformed algebra file {path}: {e}") from None
    return algebra_from_payload(payload, require_checksum=True)
