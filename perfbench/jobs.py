"""Workloads of the lefalg benchmark: job lists, seeded inputs, expected answers.

No expected answer comes from the lefalg under test. Rungs whose Kähler
class is drawn from the seed are products of projective spaces and
Grassmannians, where every positive class is ample, so all three verdicts
pass; their dimension vectors come from this module's own partition counts
and Künneth convolutions. The counterexamples' answers, which agree with
the numbered acceptance criteria in tests/test_acceptance.py, and the
digests of the ``report --json`` outputs were pinned from lefalg 0.1.0.

This module imports nothing from lefalg; job functions receive the package.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional


def convolve(*vectors: tuple[int, ...]) -> tuple[int, ...]:
    """Künneth: the dimension vector of a tensor product."""
    out = (1,)
    for v in vectors:
        acc = [0] * (len(out) + len(v) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(v):
                acc[i + j] += x * y
        out = tuple(acc)
    return out


def box_partition_counts(rows: int, cols: int) -> tuple[int, ...]:
    """Partitions of each size inside a rows x cols box: dims of Gr(rows, rows+cols)."""
    # polys[r, c] lists the partitions in an r x c box by size; such a
    # partition has fewer than r parts, or r parts whose first column can go
    polys = {}
    for r in range(rows + 1):
        for c in range(cols + 1):
            if r == 0 or c == 0:
                polys[r, c] = (1,)
                continue
            a, b = polys[r - 1, c], (0,) * r + polys[r, c - 1]
            n = max(len(a), len(b))
            polys[r, c] = tuple((a[i] if i < len(a) else 0)
                                + (b[i] if i < len(b) else 0) for i in range(n))
    return polys[rows, cols]


@dataclass(frozen=True)
class Factor:
    """A factor P^n or Gr(k, n): its top degree, ambient dims and degree-one class."""
    top: int
    dims: tuple[int, ...]
    generator: str


def P(n: int) -> Factor:
    return Factor(n, (1,) * (n + 1), "h")


def Gr(k: int, n: int) -> Factor:
    return Factor(k * (n - k), box_partition_counts(k, n - k), "s[1]")


@dataclass(frozen=True)
class Answer:
    """What a job must report; a witness of None means the predicate passes."""
    dims: tuple[int, ...]
    ldims: tuple[int, ...]
    symmetry: Optional[str]
    poincare_duality: Optional[str]
    hard_lefschetz: Optional[str]
    primitive: tuple[int, ...]
    primitive_valid: bool


def ample_answer(factors: tuple[Factor, ...]) -> Answer:
    """Products of P^n and Gr(k, n) with an ample class: every predicate passes.

    The Lefschetz subalgebra of each factor is a truncated polynomial ring
    in its hyperplane class, so its dims are all ones up to the factor's top
    degree, and the product's are their convolution.
    """
    dims = convolve(*(f.dims for f in factors))
    ldims = convolve(*((1,) * (f.top + 1) for f in factors))
    half = (len(ldims) - 1) // 2
    primitive = tuple(ldims[i] - (ldims[i - 1] if i else 0)
                      for i in range(half + 1))
    return Answer(dims, ldims, None, None, None, primitive, True)


EXAMPLE1 = Answer((1, 2, 4, 4, 2, 1), (1, 2, 3, 4, 2, 1),
                  "k=2: 3 vs 4", "k=2: 3 vs 4", "k=2: 3 vs 4", (1, 1, 1), False)
EXAMPLE2 = Answer((1, 3, 7, 10, 7, 3, 1), (1, 3, 6, 10, 7, 3, 1),
                  "k=2: 6 vs 7", "k=2: 6 vs 7", "k=2: 6 vs 7", (1, 2, 3, 3), False)
EXAMPLE3 = Answer((1, 2, 4, 5, 6, 5, 4, 2, 1), (1, 2, 3, 4, 5, 5, 4, 2, 1),
                  "k=2: 3 vs 4", "k=2: 3 vs 4", "k=0: rank 0 of 1",
                  (1, 2, 1, 1, 0), False)
# example2 x P1 x P1 with omega = (10 y1 + 10 y2 - e) + h' + h''
EXAMPLE2_P1_P1 = Answer(
    convolve(EXAMPLE2.dims, (1, 1), (1, 1)),
    convolve(EXAMPLE2.ldims, (1, 1), (1, 1)),
    "k=2: 13 vs 14", "k=2: 13 vs 14", "k=2: 13 vs 14", (1, 4, 8, 11, 6), False)
# example1 rebuilt from a build file and checked with the default omega
# h + e^1*1 gives the same answer as with the catalog omega
BLOWUP_FILE = EXAMPLE1

# stdout of `lefalg catalog`, the command noop_cmd_s times
CATALOG_LISTING = "".join(f"{name}\n" for name in (
    ["example1", "example2", "example3", "CxP1-even"]
    + [f"P-{n}" for n in range(1, 7)]
    + ["Gr-2-4", "Gr-2-5", "P1xP1", "P1xP2", "P3xP3", "P1xP1xP1", "Gr-2-4xP1",
       "Gr-2-5xP2"]))

CATALOG_OMEGA = {"example1": "10*c - e^1*1", "example2": "10*y1 + 10*y2 - e^1*1",
                 "example3": "s[1] + z^1*1"}


def draw_coefficients(rng: random.Random, n: int) -> tuple[int, ...]:
    return tuple(rng.randint(1, 9) for _ in range(n))


def render_omega(labels: tuple[str, ...], coeffs: tuple[int, ...]) -> str:
    """The class sum(c_i * label_i) as lefalg prints it and parses it."""
    return " + ".join(lbl if c == 1 else f"{c}*{lbl}"
                      for c, lbl in zip(coeffs, labels))


def product_labels(factors: tuple[Factor, ...]) -> tuple[str, ...]:
    """Degree-one basis of a product of factors, in lefalg's Künneth order."""
    out = []
    for i, f in enumerate(factors):
        parts = ["1"] * len(factors)
        parts[i] = f.generator
        out.append("⊗".join(parts))
    return tuple(out)


# lefschetz-ladder -----------------------------------------------------------

@dataclass(frozen=True)
class Rung:
    """One algebra of the ladder: how lefalg builds it, and its answer.

    ``factors`` is set on the rungs whose omega is drawn from the seed.
    """
    name: str
    build: Callable  # (lefalg, coefficients) -> (algebra, omega)
    answer: Answer
    factors: tuple[Factor, ...] = ()

    @property
    def basis_size(self) -> int:
        return sum(self.answer.dims)


def _catalog_rung(name: str):
    def build(lefalg, coeffs):
        entry = lefalg.catalog.get(name)
        if not coeffs:
            return entry.algebra, entry.omega
        a = entry.algebra
        omega = a.zero(1)
        for i, c in enumerate(coeffs):
            omega = omega + a.basis_element(1, i) * c
        return a, omega
    return build


def _example2_p1_p1(lefalg, coeffs):
    # catalog.get("example2xP1xP1") splits at every "x" of "example2", so the
    # rung is built with tensor_product instead.
    p1 = lefalg.catalog.get("P1").algebra
    a = lefalg.tensor_product(
        lefalg.tensor_product(lefalg.catalog.get("example2").algebra, p1), p1)
    omega = a.element(1, (10, 10, -1, 1, 1))
    return a, omega


def _ample(name: str, catalog_name: str, factors: tuple[Factor, ...]) -> Rung:
    return Rung(name, _catalog_rung(catalog_name), ample_answer(factors), factors)


LADDER = (
    Rung("example1", _catalog_rung("example1"), EXAMPLE1),
    Rung("example2", _catalog_rung("example2"), EXAMPLE2),
    Rung("example3", _catalog_rung("example3"), EXAMPLE3),
    _ample("Gr-3-8", "Gr-3-8", (Gr(3, 8),)),
    _ample("P2^4", "P2xP2xP2xP2", (P(2),) * 4),
    _ample("Gr-2-5xGr-2-5xP1", "Gr-2-5xGr-2-5xP1", (Gr(2, 5), Gr(2, 5), P(1))),
    _ample("P1^8", "x".join(["P1"] * 8), (P(1),) * 8),
    Rung("example2xP1xP1", _example2_p1_p1, EXAMPLE2_P1_P1),
)

VERIFY_LADDER = ("example1", "example2", "example3", "Gr-3-8", "P2^4")


def analyse(lefalg, algebra, omega) -> Answer:
    """The lefschetz-ladder job: subalgebra, three predicates, primitive dims."""
    lef = lefalg.lefschetz_subalgebra(algebra)
    sym = lefalg.check_symmetry(lef)
    pd = lefalg.check_poincare_duality(lef)
    hl = lefalg.check_hard_lefschetz(lef, omega)
    prim = lefalg.primitive_dims(lef, omega)
    return Answer(algebra.dims, lef.dims, sym.witness, pd.witness, hl.witness,
                  prim.dims, prim.valid)


# cli-files ------------------------------------------------------------------

BLOWUP_BUILD = {"blowup": {
    "Y": {"P": 5},
    "Z": {"catalog": "CxP1-even"},
    "pullback": [[[1]], [[1], [3]], [[6]]],
    "chern_N": [[4, 18], [54], []]}}
PRODUCT_FACTORS = (Gr(2, 5), Gr(2, 5), P(1))
PRODUCT_BUILD = {"product": [{"Gr": [2, 5]}, {"Gr": [2, 5]}, {"P": 1}]}
BLOWUP_NAME = "Bl(P5, CxP1-even)"
PRODUCT_NAME = "Gr-2-5xGr-2-5xP1"

# sha256 of the stdout of `report --json` on the two written files
REPORT_JSON_DIGEST = {
    "blowup.alg.json":
        "9073750a3ac4004b98af580192c03efba8d406086e8b1d9bca15691e25619bb7",
    "product.alg.json":
        "1908d477447360e8d77dca35bf71e9ab4cfb3bffe49da90b694a76d9866e340f",
}


def write_build_files(directory: str) -> None:
    for name, doc in (("blowup.build.json", BLOWUP_BUILD),
                      ("product.build.json", PRODUCT_BUILD)):
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.write("\n")


def _line(values) -> str:
    return " ".join(str(v) for v in values)


def report_text(name: str, answer: Answer, omega: str) -> str:
    """The text `lefalg report` prints for an algebra with this answer."""
    lines = [f"name: {name}", f"top degree: {len(answer.dims) - 1}",
             f"dims: {_line(answer.dims)}",
             f"lefschetz dims: {_line(answer.ldims)}", f"omega: {omega}"]
    for key in ("symmetry", "poincare_duality", "hard_lefschetz"):
        witness = getattr(answer, key)
        lines.append(f"{key}: " + ("PASS" if witness is None else f"FAIL {witness}"))
    if answer.primitive_valid:
        lines.append(f"primitive dims: {_line(answer.primitive)}")
    else:
        lines.append("primitive dims: not defined (hard Lefschetz fails)")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CliJob:
    """One `lefalg` command, its exit code and its exact stdout (or its sha256)."""
    name: str
    argv: tuple[str, ...]
    exit_code: int
    stdout: str
    basis_size: int
    dims: tuple[int, ...]
    phase: int  # phase-1 jobs write the files phase-2 jobs read
    hashed: bool = False

    def check(self, code: Optional[int], out: str) -> Optional[str]:
        """None if the command answered as expected, else what went wrong."""
        if code != self.exit_code:
            return f"{self.name}: exit {code}, expected {self.exit_code}"
        got = hashlib.sha256(out.encode("utf-8")).hexdigest() if self.hashed else out
        if got != self.stdout:
            return f"{self.name}: unexpected output {out[:200]!r}"
        return None


def cli_jobs(coeffs: tuple[int, ...]) -> list[CliJob]:
    """The cli-files pass; ``coeffs`` draw omega on the product file."""
    product = ample_answer(PRODUCT_FACTORS)
    omega = render_omega(product_labels(PRODUCT_FACTORS), coeffs)
    blowup_file, product_file = "blowup.alg.json", "product.alg.json"
    jobs = []
    for ex, answer in (("example1", EXAMPLE1), ("example2", EXAMPLE2),
                       ("example3", EXAMPLE3)):
        jobs.append(CliJob(f"report {ex}", ("report", ex), 0,
                           report_text(ex, answer, CATALOG_OMEGA[ex]),
                           sum(answer.dims), answer.dims, 1))
    jobs.append(CliJob("verify example2", ("verify", "example2"), 0,
                       "ok: example2 is a graded commutative algebra with "
                       "nondegenerate integration\n",
                       sum(EXAMPLE2.dims), EXAMPLE2.dims, 1))
    for src, out, name, answer in (
            ("blowup.build.json", blowup_file, BLOWUP_NAME, BLOWUP_FILE),
            ("product.build.json", product_file, PRODUCT_NAME, product)):
        size, dims = sum(answer.dims), answer.dims
        jobs.append(CliJob(f"build {src}", ("build", src, "-o", out), 0,
                           f"{name}: dims {_line(dims)}\nwrote {out}\n",
                           size, dims, 1))
    for path, name, answer, hl_code, omega_args, omega_text in (
            (blowup_file, BLOWUP_NAME, BLOWUP_FILE, 1, (), "h + e^1*1"),
            (product_file, PRODUCT_NAME, product, 0, ("--omega", omega), omega)):
        size, dims = sum(answer.dims), answer.dims
        hl = answer.hard_lefschetz
        jobs += [
            CliJob(f"report {path}", ("report", path) + omega_args, 0,
                   report_text(name, answer, omega_text), size, dims, 2),
            CliJob(f"report --json {path}", ("report", "--json", path), 0,
                   REPORT_JSON_DIGEST[path], size, dims, 2, hashed=True),
            CliJob(f"check --hl {path}", ("check", path, "--hl") + omega_args,
                   hl_code,
                   f"hard-lefschetz {name}: "
                   + ("PASS" if hl is None else f"FAIL {hl}") + "\n",
                   size, dims, 2),
            CliJob(f"lef-dims {path}", ("lef-dims", path), 0,
                   _line(answer.ldims) + "\n", size, dims, 2),
        ]
    return jobs
