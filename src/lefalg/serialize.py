"""On-disk algebra format (.alg.json), versioned and checksummed.

A payload stores the basis labels, the product list and the integration
functional (a dense vector), with every rational written as a "p/q" string.
Version 2, the one written, stores each product once, for
(k1, i) <= (k2, j), as [k1, i, k2, j, [[t, "p/q"], ...]]: the terms of the
cell of b_i * b_j. The reader puts that one cell object at both
(k1,k2)[i][j] and (k2,k1)[j][i], so a version 2 file holds only commutative
tables, and `write_algebra` raises ValueError on a table whose mirror cells
differ. Version 1 files still read: there each ordered pair is its own entry
[k1, i, k2, j, coeff-vector], a dense vector of rational strings that
`ring._cells` makes a cell, shared with its mirror when the two are equal.
The integration vector is dense in both versions. One token parser reads
every rational string, each distinct one once, integral ones as ints.

Files are written as compact JSON. The checksum is the sha256 of the
canonical (sorted, compact) JSON of the payload minus the checksum field,
so a file edited by hand is rejected rather than silently reinterpreted.
A written file is that JSON plus a ``"checksum":"<digest>",`` member and a
newline, so the reader hashes its text with those cut out, and re-encodes the
payload only when that digest differs (a hand-formatted or version 1 file).
Cells are checked in one place, the `GradedAlgebra` constructor.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .linalg import format_rational, parse_rational
from .ring import GradedAlgebra, _cells, _integral

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


def _digest(text: str) -> str:
    import hashlib  # loads OpenSSL; only file reads and writes need it

    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def write_algebra(a: GradedAlgebra, path: str) -> None:
    payload = algebra_payload(a)
    payload["checksum"] = _digest(_canonical(payload))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_canonical(payload) + "\n")


def _field(payload: dict, key: str, kind: type) -> object:
    if key not in payload:
        raise ValueError(f"algebra payload is missing {key!r}")
    value = payload[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"algebra payload field {key!r} must be {kind.__name__}")
    return value


def _place(entry: list | None) -> str:
    return "integration" if entry is None else f"product entry {entry[:4]}"


def algebra_from_payload(payload: object, *, require_checksum: bool = True,
                         text: str = "") -> GradedAlgebra:
    """The algebra of a payload; ``text`` is the file it was read from, if any."""
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
        member = f'"checksum":"{stored}",'
        spliced = member in text and text.removesuffix("\n").replace(member, "", 1)
        if not (spliced and _digest(spliced) == stored) and _digest(_canonical(
                {k: v for k, v in payload.items() if k != "checksum"})) != stored:
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
    values: dict[str, int | Fraction] = {}  # each distinct token, parsed once

    def value(tok: object, entry: list | None) -> int | Fraction:
        """The value of a rational string at entry (None: integration)."""
        try:
            return values[tok]
        except (KeyError, TypeError):  # a new token, or not a string
            if not isinstance(tok, str):
                raise ValueError(f"{_place(entry)}: rationals must be "
                                 f"strings, got {tok!r}") from None
        return values.setdefault(tok, _integral(parse_rational(tok)))

    def dense(raw: object, length: int, entry: list | None) -> list:
        """The values of a vector of `length` rational strings."""
        if not isinstance(raw, list) or len(raw) != length:
            raise ValueError(f"{_place(entry)}: expected {length} rational "
                             f"strings")
        return [value(tok, entry) for tok in raw]

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
        if (k1, i, k2, j) in seen:
            raise ValueError(f"duplicate {_place(entry)}")
        seen.add((k1, i, k2, j))
        if version == 1:
            cell, = _cells([dense(raw, dims[k1 + k2], entry)])
            mirror = tables[(k2, k1)][j][i]  # shared if equal, in either order
            tables[(k1, k2)][i][j] = mirror if mirror == cell else cell
        elif k1 > k2 or (k1 == k2 and i > j):
            raise ValueError(f"{_place(entry)} is a mirror entry: a version 2 "
                             f"file lists only (k1, i) <= (k2, j)")
        elif not isinstance(raw, list):
            raise ValueError(f"{_place(entry)}: expected a list of "
                             f"[t, \"p/q\"] terms")
        else:  # the constructor checks that t ascends and c is nonzero
            cell = []
            for term in raw:
                if not (type(term) is list and len(term) == 2
                        and type(term[0]) is int and type(term[1]) is str):
                    raise ValueError(f"{_place(entry)}: a term must be "
                                     f"[int, \"p/q\"], got {term!r}")
                cell.append((term[0], value(term[1], entry)))
            tables[(k1, k2)][i][j] = tables[(k2, k1)][j][i] = tuple(cell)
    integration = dense(_field(payload, "integration", list), dims[d], None)
    return GradedAlgebra(name, basis, tables, integration)


def read_algebra(path: str) -> GradedAlgebra:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"malformed algebra file {path}: {e}") from None
    return algebra_from_payload(payload, require_checksum=True, text=text)
