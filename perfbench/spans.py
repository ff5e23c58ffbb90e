"""In-memory span tracer that times the hqcdfs modules from outside.

``instrument`` rebinds, in every ``hqcdfs`` module namespace, each public
function that the module imported from another ``hqcdfs`` module, so every
cross-module call opens a span named ``<module>.<function>`` after the
module that defines the function. Private helpers are not wrapped and count
toward their module's self time. A few functions that the per-layer metrics
name are also wrapped inside their own module, and ``numpy.linalg.eigh`` and
``svd`` get spans of the pseudo-layer ``linalg``. Classes and methods are not
wrapped; their time counts toward the layer of the calling span.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, field
from typing import Callable

LAYERS = ("cli", "gates", "holonomy", "model", "noise", "operators", "serialize", "subspace")

# Wrapped inside their own module too, because a per-layer metric names them.
OWN_MODULE = {
    "cli": ("main",),
    "holonomy": ("cyclicity_defect", "transport_defect"),
    "operators": ("as_complex_matrix", "require_hermitian", "require_unitary"),
}
LINALG = ("eigh", "svd")

VALIDATE = {"operators.as_complex_matrix", "operators.require_hermitian", "operators.require_unitary"}
# Only functions that ``instrument`` wraps; the builders these call inside
# their own module get no span.
HAMILTONIAN_BUILDERS = {"model.recipe_hamiltonian", "model.assemble_two_body"}
BASIS_BUILDERS = {
    "subspace.logical_basis",
    "subspace.invariant_check_basis",
    "subspace.dfs_product_basis",
}


@dataclass
class Tracer:
    """Spans as parallel arrays: name id, parent index, start, end."""

    names: list[str] = field(default_factory=list)
    name_id: array = field(default_factory=lambda: array("i"))
    parent: array = field(default_factory=lambda: array("i"))
    start: array = field(default_factory=lambda: array("d"))
    end: array = field(default_factory=lambda: array("d"))
    _ids: dict = field(default_factory=dict)
    _stack: list = field(default_factory=lambda: [-1])

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = self.intern(name)
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            index = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.end.append(0.0)
            stack.append(index)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[index] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def __len__(self) -> int:
        return len(self.start)

    def span_name(self, i: int) -> str:
        return self.names[self.name_id[i]]

    def write_tsv(self, fh) -> None:
        """One line per span: index, parent, name, start, end."""
        fh.write("index\tparent\tname\tstart\tend\n")
        for i in range(len(self)):
            fh.write(
                f"{i}\t{self.parent[i]}\t{self.span_name(i)}"
                f"\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
            )


def instrument(tracer: Tracer, modules: dict, linalg) -> Callable[[], None]:
    """Install wrappers; return a function that restores the originals.

    ``modules`` maps layer name to imported ``hqcdfs`` module.
    """
    home = {mod.__name__: layer for layer, mod in modules.items()}
    wrappers: dict = {}
    restore: list = []

    def rebind(namespace, attr: str, fn, name: str) -> None:
        if fn not in wrappers:
            wrappers[fn] = tracer.wrap(name, fn)
        restore.append((namespace, attr, fn))
        setattr(namespace, attr, wrappers[fn])

    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not callable(obj) or isinstance(obj, type):
                continue
            owner = home.get(getattr(obj, "__module__", None))
            if owner is None:
                continue
            if owner != layer or attr in OWN_MODULE.get(layer, ()):
                rebind(mod, attr, obj, f"{owner}.{obj.__name__}")
    for attr in LINALG:
        rebind(linalg, attr, getattr(linalg, attr), f"linalg.{attr}")

    def uninstall() -> None:
        for namespace, attr, fn in reversed(restore):
            setattr(namespace, attr, fn)

    return uninstall


def self_times(tracer: Tracer) -> array:
    """Each span's duration minus the part of it covered by its children.

    Spans are indexed in the order they opened, so each span's children
    arrive in start order and their union is found in one pass.
    """
    n = len(tracer)
    start, end, parent = tracer.start, tracer.end, tracer.parent
    covered = array("d", bytes(8 * n))
    reach = array("d", start)
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        a, b = max(start[i], reach[p]), min(end[i], end[p])
        if b > a:
            covered[p] += b - a
            reach[p] = b
    return array("d", (end[i] - start[i] - covered[i] for i in range(n)))


def outermost(tracer: Tracer, names: set) -> list[int]:
    """Spans named in ``names`` that no other span named in ``names`` encloses."""
    inside = [False] * len(tracer)
    found = []
    for i in range(len(tracer)):
        p = tracer.parent[i]
        enclosed = p >= 0 and inside[p]
        hit = tracer.span_name(i) in names
        if hit and not enclosed:
            found.append(i)
        inside[i] = enclosed or hit
    return found


def layer_metrics(tracer: Tracer, invocations: int, noise_samples: int, report_bytes: int) -> dict:
    """Per-layer metrics, normalised per traced invocation where they are sums."""
    selfs = self_times(tracer)
    layer_self = {layer: 0.0 for layer in LAYERS}
    calls: dict = {}
    for i in range(len(tracer)):
        name = tracer.span_name(i)
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += selfs[i]
        calls[name] = calls.get(name, 0) + 1

    def duration(names: set) -> float:
        return sum(tracer.end[i] - tracer.start[i] for i in outermost(tracer, names))

    hamiltonians = len(outermost(tracer, HAMILTONIAN_BUILDERS))
    noise_time = duration({"noise.noisy_realize"})
    eigh_calls = calls.get("linalg.eigh", 0)
    per_op = 1.0 / invocations
    metrics = {f"{layer}.self_s": (t * per_op, "s/op") for layer, t in layer_self.items()}
    metrics.update(
        {
            "holonomy.transport_s": (duration({"holonomy.transport_defect"}) * per_op, "s/op"),
            "holonomy.cyclicity_s": (duration({"holonomy.cyclicity_defect"}) * per_op, "s/op"),
            "linalg.eigh_calls": (eigh_calls * per_op, "count/op"),
            "linalg.eigh_s": (duration({"linalg.eigh"}) * per_op, "s/op"),
            "linalg.eigh_per_hamiltonian": (eigh_calls / hamiltonians if hamiltonians else 0.0, "ratio"),
            "linalg.svd_calls": (calls.get("linalg.svd", 0) * per_op, "count/op"),
            "noise.samples_per_s": (noise_samples / noise_time if noise_time else 0.0, "1/s"),
            "operators.validate_s": (duration(VALIDATE) * per_op, "s/op"),
            "operators.evolve_calls": (calls.get("operators.evolve", 0) * per_op, "count/op"),
            "model.hamiltonians": (hamiltonians * per_op, "count/op"),
            "subspace.basis_builds": (len(outermost(tracer, BASIS_BUILDERS)) * per_op, "count/op"),
            "subspace.restrict_calls": (calls.get("subspace.restrict", 0) * per_op, "count/op"),
            "cli.report_bytes": (report_bytes * per_op, "bytes/op"),
        }
    )
    return metrics
