"""Exact-arithmetic models of even-degree rational cohomology rings.

Finite graded commutative Q-algebras with a chosen integration functional,
compositional constructors (projective spaces, Grassmannians, products,
projective bundles, blowups), and tests for the structural properties of
the subalgebra generated in degree one: dimension symmetry, Poincare
duality of the induced pairing, and hard Lefschetz.

``import lefalg`` loads no submodule: each public name, and each submodule
(``lefalg.catalog``, ``lefalg.ring``, ...), is imported on first use
(PEP 562) and then cached in this module's globals.
"""

import sys as _sys

__version__ = "0.1.0"

# the module that defines each public name
_HOMES = {
    "linalg": ("Matrix", "format_rational", "parse_rational"),
    "ring": ("CheckReport", "Element", "GradedAlgebra", "RingMap",
             "apply_ring_map", "integrate", "multiply", "pairing_matrix",
             "render_element", "tensor_product", "verify_algebra",
             "verify_ring_map"),
    "schubert": ("Box", "grassmannian", "parse_partition",
                 "partitions_in_box", "quotient_chern_classes",
                 "schubert_label"),
    "constructors": ("BlowupInput", "adjoint_pushforward", "blowup",
                     "chern_series_inverse", "projective_bundle",
                     "projective_space", "series", "series_product",
                     "truncated_polynomial_algebra"),
    "lefschetz": ("LefschetzData", "PredicateVerdict", "PrimitiveDims",
                  "check_hard_lefschetz", "check_poincare_duality",
                  "check_symmetry", "lefschetz_subalgebra", "primitive_dims"),
    "serialize": ("algebra_from_payload", "algebra_payload", "read_algebra",
                  "write_algebra"),
    "buildfile": ("BuildFileError", "BuildSyntaxError", "BuildTypeError",
                  "evaluate", "parse_build_file"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
_SUBMODULES = (*_HOMES, "catalog", "cli")

__all__ = [name for names in _HOMES.values() for name in names] \
    + ["catalog", "__version__"]


def __getattr__(name: str):
    module = name if name in _SUBMODULES else _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    qualified = f"{__name__}.{module}"
    __import__(qualified)
    value = _sys.modules[qualified]
    if module != name:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_SUBMODULES))
