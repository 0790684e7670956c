"""Command-line front end.

Exit codes: 0 means the command ran and any verdict holds, 1 means a
checked property fails (the verdict is still printed), 2 means the
invocation or an input file was bad.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import catalog
from .buildfile import evaluate, parse_build_file
from .lefschetz import (LefschetzData, check_hard_lefschetz,
                        check_poincare_duality, check_symmetry,
                        lefschetz_subalgebra, primitive_dims)
from .ring import (Element, GradedAlgebra, _degree_one_sum, render_element,
                   verify_algebra)
from .linalg import parse_rational
from .serialize import read_algebra, write_algebra


class CliError(ValueError):
    """Bad command-line input (unknown name, unparsable expression)."""


def _resolve(ref: str) -> tuple[GradedAlgebra, catalog.CatalogEntry | None]:
    """The algebra a reference names, with its catalog entry (None for a file)."""
    import os
    looks_like_path = (ref.endswith(".json") or os.sep in ref
                       or os.path.exists(ref))
    if looks_like_path:
        return read_algebra(ref), None
    try:
        entry = catalog.get(ref)
    except ValueError as e:
        raise CliError(str(e)) from None
    return entry.algebra, entry


def load_algebra(ref: str) -> GradedAlgebra:
    """Resolve an algebra reference: a file path or a catalog name."""
    return _resolve(ref)[0]


# a term is a basis label, a rational, or a rational then an optional "*"
# then a basis label; labels may contain "*" but never "+" or "-"
_TERM_RE = re.compile(r"(\d+(?:/\d+)?)(?:\s*\*?\s*(\S.*))?")


def _parse_term(a: GradedAlgebra, term: str) -> Element:
    term = term.strip()
    if not term:
        raise CliError("empty term in element expression")
    loc = a.label_location(term)
    if loc is not None:
        return a.basis_element(*loc)
    m = _TERM_RE.fullmatch(term)
    if m and (m[2] is None or a.label_location(m[2])):
        try:
            c = parse_rational(m[1])
        except ValueError as e:
            raise CliError(f"bad coefficient in term {term!r}: {e}") from None
        return (a.unit() if m[2] is None else a.by_label(m[2])) * c
    raise CliError(f"cannot parse term {term!r}: not a basis label of "
                   f"{a.name}, a rational, or coefficient*label")


def parse_element_expr(a: GradedAlgebra, text: str) -> Element:
    """Parse sums like "10c - 2e^1*1" or "s[2,1]" into a homogeneous Element.

    Basis labels never contain + or -, so the expression splits at signs.
    """
    text = text.strip()
    if not text:
        raise CliError("empty element expression")
    # ["", sign, term, sign, term, ...]
    parts = re.split(r"([+-])", text if text[0] in "+-" else "+" + text)
    out: Element | None = None
    for sign, chunk in zip(parts[1::2], parts[2::2]):
        el = _parse_term(a, chunk)
        if sign == "-":
            el = -el
        if out is None:
            out = el
        elif out.degree != el.degree:
            raise CliError(f"expression {text!r} mixes degrees {out.degree} "
                           f"and {el.degree}; elements must be homogeneous")
        else:
            out = out + el
    assert out is not None
    return out


def _resolve_check_inputs(args) -> tuple[GradedAlgebra, LefschetzData,
                                         Element | None]:
    a, entry = _resolve(args.algebra)
    gens = None
    if getattr(args, "gens", None):
        gens = [parse_element_expr(a, g) for g in args.gens]
    lef = lefschetz_subalgebra(a, gens)
    if getattr(args, "omega", None) is not None:
        omega = parse_element_expr(a, args.omega)
    elif entry is not None:
        omega = entry.omega
    else:
        omega = _degree_one_sum(a)
    return a, lef, omega


def _dims_line(dims) -> str:
    return " ".join(str(n) for n in dims)


def cmd_catalog(args) -> int:
    for name in catalog.names():
        print(name)
    return 0


def cmd_build(args) -> int:
    with open(args.file, "r", encoding="utf-8") as fh:
        text = fh.read()
    alg = evaluate(parse_build_file(text))
    print(f"{alg.name}: dims {_dims_line(alg.dims)}")
    if args.output:
        write_algebra(alg, args.output)
        print(f"wrote {args.output}")
    return 0


def cmd_dims(args) -> int:
    a = load_algebra(args.algebra)
    print(_dims_line(a.dims))
    return 0


def cmd_lef_dims(args) -> int:
    a, lef, _ = _resolve_check_inputs(args)
    print(_dims_line(lef.dims))
    return 0


def cmd_check(args) -> int:
    a, lef, omega = _resolve_check_inputs(args)
    if args.sym:
        verdict = check_symmetry(lef)
    elif args.pd:
        verdict = check_poincare_duality(lef)
    else:
        verdict = check_hard_lefschetz(lef, omega)
    if verdict.passed:
        print(f"{verdict.predicate} {a.name}: PASS")
        return 0
    print(f"{verdict.predicate} {a.name}: FAIL {verdict.witness}")
    return 1


def cmd_mul(args) -> int:
    a = load_algebra(args.algebra)
    x = parse_element_expr(a, args.x)
    y = parse_element_expr(a, args.y)
    print(render_element(x * y))
    return 0


def cmd_verify(args) -> int:
    a = load_algebra(args.algebra)
    report = verify_algebra(a)
    if report.ok:
        print(f"ok: {a.name} is a graded commutative algebra with "
              f"nondegenerate integration")
        return 0
    for line in report.violations:
        print(line)
    return 1


def cmd_report(args) -> int:
    a, lef, omega = _resolve_check_inputs(args)
    sym = check_symmetry(lef)
    pd = check_poincare_duality(lef)
    hl = check_hard_lefschetz(lef, omega)
    # lef keeps the HL pass for primitive_dims; plain text prints no dims if HL fails
    prim = primitive_dims(lef, omega) if hl.passed or args.json else None
    doc = {
        "name": a.name,
        "top_degree": a.top_degree,
        "dims": list(a.dims),
        "lefschetz_dims": list(lef.dims),
        "omega": None if omega is None else render_element(omega),
        "predicates": {
            "symmetry": _verdict_dict(sym),
            "poincare_duality": _verdict_dict(pd),
            "hard_lefschetz": _verdict_dict(hl),
        },
    }
    if args.json:
        doc["primitive"] = {"valid": prim.valid, "dims": list(prim.dims)}
        print(json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=True))
    else:
        print(f"name: {doc['name']}")
        print(f"top degree: {doc['top_degree']}")
        print(f"dims: {_dims_line(doc['dims'])}")
        print(f"lefschetz dims: {_dims_line(doc['lefschetz_dims'])}")
        print(f"omega: {doc['omega']}")
        for key in ("symmetry", "poincare_duality", "hard_lefschetz"):
            v = doc["predicates"][key]
            tail = "PASS" if v["passed"] else f"FAIL {v['witness']}"
            print(f"{key}: {tail}")
        if hl.passed:
            print(f"primitive dims: {_dims_line(prim.dims)}")
        else:
            print("primitive dims: not defined (hard Lefschetz fails)")
    return 0


def _verdict_dict(v) -> dict:
    return {
        "passed": v.passed,
        "witness": v.witness,
        "degrees": [{"k": d.k, "passed": d.passed, "witness": d.witness}
                    for d in v.degrees],
    }


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lefalg",
        description="Finite graded commutative algebras over Q: build, "
                    "multiply, and test Lefschetz-type properties.")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("catalog", help="list built-in algebra names") \
        .set_defaults(func=cmd_catalog)

    b = sub.add_parser("build", help="evaluate a JSON build file")
    b.add_argument("file")
    b.add_argument("-o", "--output", help="also write the result as an "
                                          "algebra file")
    b.set_defaults(func=cmd_build)

    d = sub.add_parser("dims", help="print graded dimensions")
    d.add_argument("algebra", help="catalog name or algebra file")
    d.set_defaults(func=cmd_dims)

    ld = sub.add_parser("lef-dims",
                        help="print dimensions of the subalgebra generated "
                             "in degree one")
    ld.add_argument("algebra")
    ld.add_argument("--gens", action="append", metavar="EXPR",
                    help="generator expression (repeatable); default is all "
                         "degree-one basis classes")
    ld.set_defaults(func=cmd_lef_dims)

    c = sub.add_parser("check", help="test one structural property")
    c.add_argument("algebra")
    which = c.add_mutually_exclusive_group(required=True)
    which.add_argument("--sym", action="store_true",
                       help="dimension symmetry of the degree-one subalgebra")
    which.add_argument("--pd", action="store_true",
                       help="perfect pairing on the degree-one subalgebra")
    which.add_argument("--hl", action="store_true",
                       help="hard Lefschetz for the chosen omega")
    c.add_argument("--omega", metavar="EXPR",
                   help="degree-one class; defaults to the catalog choice or "
                        "the sum of degree-one basis classes")
    c.add_argument("--gens", action="append", metavar="EXPR")
    c.set_defaults(func=cmd_check)

    m = sub.add_parser("mul", help="multiply two element expressions")
    m.add_argument("algebra")
    m.add_argument("x")
    m.add_argument("y")
    m.set_defaults(func=cmd_mul)

    v = sub.add_parser("verify", help="check the algebra axioms and "
                                      "integration pairing")
    v.add_argument("algebra")
    v.set_defaults(func=cmd_verify)

    r = sub.add_parser("report", help="full structural report")
    r.add_argument("algebra")
    r.add_argument("--json", action="store_true")
    r.add_argument("--omega", metavar="EXPR")
    r.add_argument("--gens", action="append", metavar="EXPR")
    r.set_defaults(func=cmd_report)
    return p


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError, RecursionError) as e:
        # CliError and BuildFileError are ValueErrors, FileNotFoundError and
        # IsADirectoryError are OSErrors; exit 1 is kept for failing verdicts
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
