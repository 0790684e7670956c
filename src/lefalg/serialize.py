"""On-disk algebra format (.alg.json), versioned and checksummed.

A payload stores the basis labels, the product list and the integration
functional (a dense vector), with every rational written as a "p/q" string.
Version 2, the one written, stores each product once, for
(k1, i) <= (k2, j), as [k1, i, k2, j, [[t, "p/q"], ...]]: the terms of the
cell of b_i * b_j. The reader puts that one cell object at both
(k1,k2)[i][j] and (k2,k1)[j][i], so a version 2 file holds only commutative
tables, and `write_algebra` raises ValueError on a table whose mirror cells
differ. Version 1 files still read: there each ordered pair is its own entry
[k1, i, k2, j, coeff-vector], a dense vector of rational strings.

Files are written as compact JSON. The checksum is the sha256 of the
canonical (sorted, compact) JSON of the payload minus the checksum field,
so a file edited by hand is rejected rather than silently reinterpreted.
Cells are checked in one place, the `GradedAlgebra` constructor.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .linalg import format_rational, parse_rational
from .ring import Cell, GradedAlgebra

FORMAT_NAME = "graded-algebra"
FORMAT_VERSION = 2


def algebra_payload(a: GradedAlgebra) -> dict:
    """The version 2 payload of a; ValueError if a cell differs from its mirror."""
    products = []
    for (k1, k2), table in sorted(a.tables.items()):
        if k1 > k2:
            continue
        mirror = a.tables[k2, k1]
        for i, row in enumerate(table):
            for j in range(i if k1 == k2 else 0, len(row)):
                cell = row[j]
                if cell is not mirror[j][i] and cell != mirror[j][i]:
                    raise ValueError(
                        f"product table ({k1},{k2}) cell ({i},{j}) differs "
                        f"from its mirror, table ({k2},{k1}) cell ({j},{i}): "
                        f"a version 2 file holds commutative tables only")
                if cell:
                    products.append([k1, i, k2, j, [[t, format_rational(c)]
                                                    for t, c in cell]])
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "name": a.name,
        "top_degree": a.top_degree,
        "basis": [list(deg) for deg in a.basis],
        "products": products,
        "integration": [format_rational(c) for c in a.integration],
    }


def _canonical(payload: dict) -> str:
    # no indent, so json runs its C encoder
    return json.dumps(payload, sort_keys=True, ensure_ascii=True,
                      separators=(",", ":"))


def _checksum(payload: dict) -> str:
    import hashlib  # loads OpenSSL; only file reads and writes need it

    return hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()


def write_algebra(a: GradedAlgebra, path: str) -> None:
    payload = algebra_payload(a)
    payload["checksum"] = _checksum(payload)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_canonical(payload) + "\n")


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
    if type(version) is not int or version not in (1, 2):
        raise ValueError(f"unsupported format version {version!r} "
                         f"(expected 1 or 2)")
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
    # each is parsed once
    values: dict[str, Fraction] = {}

    def where(entry: list | None) -> str:
        return "integration" if entry is None else f"product entry {entry[:4]}"

    def parsed(tok: object, entry: list | None) -> Fraction:
        """The value of a token not parsed yet."""
        if not isinstance(tok, str):
            raise ValueError(f"{where(entry)}: rationals must be strings, "
                             f"got {tok!r}")
        x = values[tok] = parse_rational(tok)
        return x

    def dense_cell(raw: object, length: int, entry: list | None) -> Cell:
        """The nonzero (t, value) terms of a vector of rational strings."""
        if not isinstance(raw, list) or len(raw) != length:
            raise ValueError(f"{where(entry)}: expected {length} rational "
                             f"strings")
        cell = []
        for t, tok in enumerate(raw):
            try:
                x = values[tok]
            except (KeyError, TypeError):  # a new token, or not a string
                x = parsed(tok, entry)
            if x:
                cell.append((t, x))
        return tuple(cell)

    def sparse_cell(raw: object, entry: list) -> Cell:
        """The (t, value) terms of a list of [t, "p/q"]; the constructor
        checks that t ascends in range and that every value is nonzero."""
        if not isinstance(raw, list):
            raise ValueError(f"{where(entry)}: expected a list of "
                             f"[t, \"p/q\"] terms")
        cell = []
        for term in raw:
            if not (type(term) is list and len(term) == 2
                    and type(term[0]) is int and type(term[1]) is str):
                raise ValueError(f"{where(entry)}: a term must be "
                                 f"[int, \"p/q\"], got {term!r}")
            x = values.get(term[1])
            cell.append((term[0], parsed(term[1], entry) if x is None else x))
        return tuple(cell)

    tables = {(k1, k2): [[()] * dims[k2] for _ in range(dims[k1])]
              for k1 in range(d + 1) for k2 in range(d + 1 - k1)}
    seen = set()
    for entry in _field(payload, "products", list):
        if not (isinstance(entry, list) and len(entry) == 5):
            raise ValueError(f"product entry must be [k1,i,k2,j,coeffs], "
                             f"got {entry!r}")
        k1, i, k2, j, raw = entry
        if not type(k1) is type(i) is type(k2) is type(j) is int:  # no bools
            raise ValueError(f"product entry indices must be integers: "
                             f"{entry!r}")
        if not (0 <= k1 <= d and 0 <= k2 <= d and k1 + k2 <= d
                and 0 <= i < dims[k1] and 0 <= j < dims[k2]):
            raise ValueError(f"product entry out of range: {entry[:4]}")
        key = (k1, i, k2, j)
        if key in seen:
            raise ValueError(f"duplicate {where(entry)}")
        seen.add(key)
        if version == 1:
            cell = dense_cell(raw, dims[k1 + k2], entry)
            mirror = tables[(k2, k1)][j][i]  # shared if equal, in either order
            tables[(k1, k2)][i][j] = mirror if mirror == cell else cell
        elif k1 > k2 or (k1 == k2 and i > j):
            raise ValueError(f"{where(entry)} is a mirror entry: a version 2 "
                             f"file lists only (k1, i) <= (k2, j)")
        else:
            tables[(k1, k2)][i][j] = tables[(k2, k1)][j][i] = \
                sparse_cell(raw, entry)
    integration = [Fraction(0)] * dims[d]
    for t, x in dense_cell(_field(payload, "integration", list), dims[d],
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
