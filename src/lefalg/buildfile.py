"""Compositional build files: a JSON tree of constructor nodes.

Each node is an object with exactly one key: {"P": n}, {"Gr": [k, n]},
{"product": [node, ...]}, {"proj_bundle": {"Y": node, "chern": [...]}},
{"blowup": {"Y": node, "Z": node, "pullback": [...], "chern_N": [...]}},
{"algebra": <inline payload>}, or {"catalog": "name"}. Numeric data is
written as integers or "p/q" strings; float literals are rejected so no
binary rounding can sneak in.

Malformed JSON raises BuildSyntaxError with line/column; a structurally
valid file that asks for something ill-typed (wrong arity, wrong degree,
unknown name) raises BuildTypeError with the JSON path of the offender.
The constructors check their own data; one helper, `_call_at`, re-raises
each of their errors with the JSON path of the data it was given.

The parsed tree is made of namedtuple nodes, each with the JSON path of its
object; a node also compares equal to a plain tuple of its fields.
"""

from __future__ import annotations

import json
from collections import namedtuple
from fractions import Fraction

from . import catalog
from .constructors import BlowupInput, blowup, projective_bundle, projective_space
from .linalg import Matrix, parse_rational
from .ring import GradedAlgebra, RingMap, tensor_product
from .schubert import grassmannian
from .serialize import algebra_from_payload


class BuildFileError(ValueError):
    """Any problem with a build file."""


class BuildSyntaxError(BuildFileError):
    """The file is not valid JSON."""


class BuildTypeError(BuildFileError):
    """The file is valid JSON but not a well-typed build tree."""


PNode = namedtuple("PNode", "path n")
GrNode = namedtuple("GrNode", "path k n")
ProductNode = namedtuple("ProductNode", "path factors")
# chern: per degree, tuple of Fractions
BundleNode = namedtuple("BundleNode", "path base chern")
# pullback: per degree, tuple of row tuples of Fractions;
# chern: c_1..c_r as coefficient tuples
BlowupNode = namedtuple("BlowupNode", "path y z pullback chern")
AlgebraNode = namedtuple("AlgebraNode", "path payload")
CatalogNode = namedtuple("CatalogNode", "path name")


BuildExpr = (PNode | GrNode | ProductNode | BundleNode | BlowupNode
             | AlgebraNode | CatalogNode)

_KINDS = ("P", "Gr", "product", "proj_bundle", "blowup", "algebra", "catalog")


def _reject_float(text: str):
    raise BuildTypeError(f"type error: float literal {text} is not exact; "
                         f"write rationals as strings like \"1/3\"")


def _is_count(v: object) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _call_at(path: str, make, *args, **kwargs):
    """make(*args, **kwargs), a ValueError from it re-raised as a
    BuildTypeError that names the JSON path of the data it was given."""
    try:
        return make(*args, **kwargs)
    except ValueError as e:
        raise BuildTypeError(f"type error at {path}: {e}") from None


def _rational(tok: object, path: str) -> Fraction:
    if _is_count(tok):
        return Fraction(tok)
    if isinstance(tok, str):
        return _call_at(path, parse_rational, tok)
    raise BuildTypeError(f"type error at {path}: expected an integer or a "
                         f"rational string, got {tok!r}")


def _rational_vector(raw: object, path: str) -> tuple[Fraction, ...]:
    if not isinstance(raw, list):
        raise BuildTypeError(f"type error at {path}: expected a list of "
                             f"rationals, got {type(raw).__name__}")
    return tuple(_rational(tok, f"{path}[{t}]") for t, tok in enumerate(raw))


def _rational_matrix(raw: object, path: str) -> tuple[tuple[Fraction, ...], ...]:
    if not isinstance(raw, list):
        raise BuildTypeError(f"type error at {path}: expected a list of rows")
    return tuple(_rational_vector(row, f"{path}[{r}]")
                 for r, row in enumerate(raw))


def parse_build_file(text: str) -> BuildExpr:
    try:
        doc = json.loads(text, parse_float=_reject_float)
    except BuildTypeError:
        raise
    except json.JSONDecodeError as e:
        raise BuildSyntaxError(f"syntax error: line {e.lineno} column "
                               f"{e.colno}: {e.msg}") from None
    return _node(doc, "$")


def _keys_exactly(obj: object, keys: tuple[str, ...], path: str) -> None:
    if not isinstance(obj, dict):
        raise BuildTypeError(f"type error at {path}: expected an object")
    if set(obj) != set(keys):
        raise BuildTypeError(f"type error at {path}: expected keys "
                             f"{list(keys)}, got {sorted(obj)}")


def _node(obj: object, path: str) -> BuildExpr:
    if not isinstance(obj, dict):
        raise BuildTypeError(f"type error at {path}: expected a constructor "
                             f"object, got {type(obj).__name__}")
    if len(obj) != 1:
        raise BuildTypeError(f"type error at {path}: a constructor object has "
                             f"exactly one of the keys {list(_KINDS)}")
    (key, val), = obj.items()
    where = f"{path}.{key}"
    if key == "P":
        if not _is_count(val) or val < 0:
            raise BuildTypeError(f"type error at {where}: expected an integer "
                                 f"n >= 0, got {val!r}")
        return PNode(path, val)
    if key == "Gr":
        if not (isinstance(val, list) and len(val) == 2
                and all(_is_count(v) for v in val) and 1 <= val[0] < val[1]):
            raise BuildTypeError(f"type error at {where}: expected [k, n] "
                                 f"with 1 <= k < n, got {val!r}")
        return GrNode(path, val[0], val[1])
    if key == "product":
        if not isinstance(val, list) or len(val) < 2:
            raise BuildTypeError(f"type error at {where}: expected a list of "
                                 f"at least two factor nodes")
        return ProductNode(path, tuple(_node(f, f"{where}[{i}]")
                                       for i, f in enumerate(val)))
    if key == "proj_bundle":
        _keys_exactly(val, ("Y", "chern"), where)
        chern = val["chern"]
        if not isinstance(chern, list) or len(chern) < 2:
            raise BuildTypeError(f"type error at {where}.chern: expected "
                                 f"[c_0, ..., c_s] with s >= 1")
        return BundleNode(path, _node(val["Y"], f"{where}.Y"),
                          tuple(_rational_vector(row, f"{where}.chern[{i}]")
                                for i, row in enumerate(chern)))
    if key == "blowup":
        _keys_exactly(val, ("Y", "Z", "pullback", "chern_N"), where)
        pull = val["pullback"]
        if not isinstance(pull, list):
            raise BuildTypeError(f"type error at {where}.pullback: expected a "
                                 f"list of per-degree matrices")
        chern = val["chern_N"]
        if not isinstance(chern, list):
            raise BuildTypeError(f"type error at {where}.chern_N: expected a "
                                 f"list [c_1, ..., c_r]")
        return BlowupNode(
            path,
            _node(val["Y"], f"{where}.Y"),
            _node(val["Z"], f"{where}.Z"),
            tuple(_rational_matrix(m, f"{where}.pullback[{k}]")
                  for k, m in enumerate(pull)),
            tuple(_rational_vector(row, f"{where}.chern_N[{i}]")
                  for i, row in enumerate(chern)))
    if key == "algebra":
        if not isinstance(val, dict):
            raise BuildTypeError(f"type error at {where}: expected an inline "
                                 f"algebra payload object")
        return AlgebraNode(path, val)
    if key == "catalog":
        if not isinstance(val, str):
            raise BuildTypeError(f"type error at {where}: expected a catalog "
                                 f"name string")
        return CatalogNode(path, val)
    raise BuildTypeError(f"type error at {path}: unknown constructor {key!r} "
                         f"(expected one of {list(_KINDS)})")


def _as_element(a: GradedAlgebra, degree: int, coords, path: str):
    if not coords:
        return a.zero(degree)  # [] is shorthand for the zero class
    if degree > a.top_degree:
        raise BuildTypeError(f"type error at {path}: degree {degree} exceeds "
                             f"the top degree {a.top_degree}; give an empty list")
    return _call_at(path, a.element, degree, coords)


def evaluate(expr: BuildExpr) -> GradedAlgebra:
    """Build the algebra a parsed tree describes."""
    if isinstance(expr, PNode):
        return projective_space(expr.n)
    if isinstance(expr, GrNode):
        return grassmannian(expr.k, expr.n)
    if isinstance(expr, ProductNode):
        return _call_at(f"{expr.path}.product", tensor_product, *map(evaluate, expr.factors))
    if isinstance(expr, BundleNode):
        y = evaluate(expr.base)
        chern = [_as_element(y, i, row, f"{expr.path}.proj_bundle.chern[{i}]")
                 for i, row in enumerate(expr.chern)]
        return _call_at(f"{expr.path}.proj_bundle", projective_bundle, y,
                        chern)
    if isinstance(expr, BlowupNode):
        return _evaluate_blowup(expr)
    if isinstance(expr, AlgebraNode):
        return _call_at(f"{expr.path}.algebra", algebra_from_payload,
                        expr.payload, require_checksum=False)
    if isinstance(expr, CatalogNode):
        return _call_at(f"{expr.path}.catalog", catalog.get, expr.name).algebra
    raise TypeError(f"not a build expression: {expr!r}")


def _evaluate_blowup(expr: BlowupNode) -> GradedAlgebra:
    # RingMap, Matrix and blowup check the data; this adds the JSON path
    where = f"{expr.path}.blowup"
    y = evaluate(expr.y)
    z = evaluate(expr.z)
    mats = [_call_at(f"{where}.pullback[{k}]", Matrix, z.dim(k), y.dim(k),
                     rows) for k, rows in enumerate(expr.pullback)]
    pull = _call_at(f"{where}.pullback", RingMap, y, z, mats)
    chern = [_as_element(z, i, row, f"{where}.chern_N[{i - 1}]")
             for i, row in enumerate(expr.chern, start=1)]
    r = y.top_degree - z.top_degree
    return _call_at(where, blowup, BlowupInput(y, z, pull, r, chern))
