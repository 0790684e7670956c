"""Per-layer counters and timers for lefalg, kept from outside the package.

A Tracer rebinds lefalg's public functions, in every lefalg module that
imported them, to wrappers that count and time the calls; ``uninstall()``
puts the originals back. A timer adds only the outermost call of its
function or group, so recursion (``catalog.get`` on product names,
``buildfile.evaluate`` on subtrees) and nesting are not counted twice.

In memory mode the outermost build and every ``read_algebra`` run under
``tracemalloc``, which reports the peak of the memory they allocate. That
slows them several times over, so a memory pass is never used for timing.
"""

from __future__ import annotations

import os
import sys
import tracemalloc
from collections import defaultdict
from time import perf_counter

MIB = float(1 << 20)

# Functions that build an algebra from a definition; their outermost call is
# one build (constructors.build_s, constructors.build.peak_mb).
BUILDERS = (
    ("catalog", "get"),
    ("buildfile", "evaluate"),
    ("ring", "tensor_product"),
    ("schubert", "grassmannian"),
    ("constructors", "projective_space"),
    ("constructors", "truncated_polynomial_algebra"),
    ("constructors", "projective_bundle"),
    ("constructors", "blowup"),
)

# (module, function) -> timer metric; timed inclusively, outermost call only.
TIMERS = {
    ("ring", "verify_algebra"): "ring.verify_algebra_s",
    ("ring", "build_product_tables"): "ring.build_product_tables_s",
    ("ring", "tensor_product"): "ring.tensor_product_s",
    ("schubert", "grassmannian"): "schubert.grassmannian_s",
    ("catalog", "get"): "catalog.get_s",
    ("buildfile", "parse_build_file"): "buildfile.parse_s",
    ("buildfile", "evaluate"): "buildfile.evaluate_s",
    ("serialize", "write_algebra"): "serialize.write_s",
    ("serialize", "read_algebra"): "serialize.read_s",
    ("lefschetz", "lefschetz_subalgebra"): "lefschetz.subalgebra_s",
    ("lefschetz", "check_symmetry"): "lefschetz.symmetry_s",
    ("lefschetz", "check_poincare_duality"): "lefschetz.poincare_duality_s",
    ("lefschetz", "check_hard_lefschetz"): "lefschetz.hard_lefschetz_s",
    ("lefschetz", "primitive_dims"): "lefschetz.primitive_dims_s",
}

STAGES = tuple(key for key in TIMERS if key[0] == "lefschetz")

# Every per-layer metric a tracer reports, zero when the layer is idle.
LAYER_METRICS = (
    "linalg.rref.calls", "linalg.rref.cells", "linalg.rref_s",
    "linalg.solve.calls",
    "ring.multiply.calls", "ring.multiply_s",
    "constructors.build_s", "ring.table_cells",
    "schubert.lr_coefficient.calls",
    "lefschetz.self_s",
    "serialize.file_bytes",
) + tuple(TIMERS.values())

PEAK_METRICS = ("constructors.build.peak_mb", "serialize.read.peak_mb")

# Counts repeat exactly between runs; times and peaks do not.
COUNT_METRICS = ("linalg.rref.calls", "linalg.rref.cells", "linalg.solve.calls",
                 "ring.multiply.calls", "schubert.lr_coefficient.calls",
                 "ring.table_cells", "serialize.file_bytes")


class Tracer:
    """Counters and timers for one pass; ``take()`` returns and resets them."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.values: dict[str, float] = defaultdict(int)
        self._depth: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    def take(self) -> dict[str, float]:
        values = self.values
        out = {name: values.get(name, 0) for name in LAYER_METRICS}
        if self.memory:
            out.update({name: values.get(name, 0.0) for name in PEAK_METRICS})
        # the stages minus the rref and multiply time spent inside them
        out["lefschetz.self_s"] = (values.get("lefschetz.stages_s", 0.0)
                                   - values.get("lefschetz.inner_s", 0.0))
        self.values = defaultdict(int)
        return out

    # installation ------------------------------------------------------

    def install(self) -> None:
        import lefalg
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "lefalg"
                                         or name.startswith("lefalg."))]
        wrappers = {}
        keys = set(TIMERS) | set(BUILDERS) | {
            ("linalg", "rref"), ("linalg", "solve"), ("ring", "multiply"),
            ("schubert", "lr_coefficient")}
        for mod_name, fn_name in keys:
            fn = getattr(getattr(lefalg, mod_name), fn_name)
            wrappers[id(fn)] = (fn, self._wrapper(mod_name, fn_name, fn))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._undo.append((mod, attr, value))
        self._count_table_cells(lefalg.ring.GradedAlgebra)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def _count_table_cells(self, cls) -> None:
        init = cls.__init__
        tracer = self

        def counting_init(alg, *args, **kwargs):
            init(alg, *args, **kwargs)
            dims = alg.dims
            tracer.values["ring.table_cells"] += sum(
                dims[k1] * dims[k2] * dims[k1 + k2] for k1, k2 in alg.products)

        cls.__init__ = counting_init
        self._undo.append((cls, "__init__", init))

    # wrappers ----------------------------------------------------------

    def _wrapper(self, mod_name: str, fn_name: str, fn):
        key = (mod_name, fn_name)
        if key == ("ring", "multiply"):
            return self._inner(fn, "ring.multiply.calls", "ring.multiply_s",
                               None)
        if key == ("linalg", "rref"):
            return self._inner(fn, "linalg.rref.calls", "linalg.rref_s",
                               "linalg.rref.cells")
        if key in (("linalg", "solve"), ("schubert", "lr_coefficient")):
            return self._counter(fn, f"{mod_name}.{fn_name}.calls")
        spans = []
        if key in TIMERS:
            spans.append(TIMERS[key])
        if key in BUILDERS:
            spans.append("constructors.build_s")
        if key in STAGES:
            spans.append("lefschetz.stages_s")
        peak = None
        if self.memory and key in BUILDERS:
            peak = "constructors.build.peak_mb"
        elif self.memory and key == ("serialize", "read_algebra"):
            peak = "serialize.read.peak_mb"
        return self._spans(fn, tuple(spans), peak,
                           key == ("serialize", "write_algebra"))

    def _counter(self, fn, calls: str):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.values[calls] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _inner(self, fn, calls: str, timer: str, cells):
        """Leaf functions: cheap timing, and their share of the stage time."""
        tracer = self
        depth = self._depth

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            dt = perf_counter() - t0
            values = tracer.values
            values[calls] += 1
            values[timer] += dt
            if cells is not None:
                values[cells] += args[0].rows * args[0].cols
            if depth["lefschetz.stages_s"]:
                values["lefschetz.inner_s"] += dt
            return out
        return wrapper

    def _spans(self, fn, spans: tuple[str, ...], peak, writes_file: bool):
        tracer = self
        depth = self._depth

        def wrapper(*args, **kwargs):
            opened = tuple(s for s in spans if not depth[s])
            for s in spans:
                depth[s] += 1
            measure = peak is not None and not depth[peak]
            if measure:
                depth[peak] += 1
                tracemalloc.start()
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                values = tracer.values
                if measure:
                    peak_bytes = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    depth[peak] -= 1
                    values[peak] = max(values[peak], peak_bytes / MIB)
                for s in spans:
                    depth[s] -= 1
                for s in opened:
                    values[s] += dt
                if writes_file:
                    values["serialize.file_bytes"] += os.path.getsize(args[1])
        return wrapper
