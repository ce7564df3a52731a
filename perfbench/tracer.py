"""Per-layer tracing of qfimlab from outside the package.

The tracer replaces public functions of ``linalg``, ``channels``, ``circuits``,
``qfim``, ``dla`` and ``experiments`` with timing wrappers, in every qfimlab
module namespace where a caller looks the name up (``circuits`` and
``experiments`` import ``herm_exp_from_eig`` by name, for example). Spans are
aggregated in memory per name: calls, total time, and time spent in wrapped
children, so that self time = total - children. Nothing is written until the
caller asks for :meth:`Tracer.metrics` at the end of the run.

Counts of work (gates, derivative steps, flops, bytes) are computed from the
array sizes of each call's arguments, not measured by hardware counters;
names ending in ``_computed`` say so.
"""

from __future__ import annotations

import sys
import time
from typing import Callable

# Spans reported as ``<name>.calls`` and ``<name>.self_s``.
TIMED = (
    "linalg.herm_exp_from_eig",
    "linalg.hermitian_eig",
    "linalg.partial_trace",
    "linalg.insert_qubit",
    "channels.LocalDepolarizing.apply",
    "channels.GlobalDepolarizing.apply",
    "channels.PauliChannel.apply",
    "circuits.evolve_with_derivatives",
    "circuits.evolve",
    "circuits.bloch_coords",
    "circuits.build_circuit",
    "qfim.qfim_mixed",
    "qfim.report_from_matrix",
    "dla.lie_closure",
    "experiments.emit_table",
)
CHANNEL_CLASSES = ("LocalDepolarizing", "GlobalDepolarizing", "PauliChannel")
# Counters, in the order they are reported, with their units.
COUNTERS = {
    **{f"channels.{c}.apply.bytes_computed": "bytes" for c in CHANNEL_CLASSES},
    "circuits.gates_applied": "count",
    "circuits.deriv_slot_steps": "count",
    "circuits.matmul_flops_computed": "flop",
    "circuits.states_held_bytes_computed": "bytes",
    "qfim.assembly_terms": "count",
    "dla.commutators": "count",
    "dla.basis_dim": "count",
}
RUNNER = "experiments.runner"
COMPLEX_BYTES = 16


def metric_units() -> dict[str, str]:
    """Every per-layer metric name this tracer reports, with its unit."""
    units: dict[str, str] = {}
    for name in TIMED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(COUNTERS)
    units[f"{RUNNER}.self_s"] = "s"
    return units


class Tracer:
    """In-memory span aggregates and work counters for one traced run."""

    def __init__(self):
        self.spans: dict[str, list[float]] = {}  # name -> [calls, total_s, child_s]
        self.counts: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self._child_time: list[float] = []

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """Timing wrapper; ``after(args, kwargs, result)`` updates counters."""
        record = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._child_time
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                record[0] += 1
                record[1] += elapsed
                record[2] += stack.pop()
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def metrics(self) -> dict[str, float]:
        """Per-layer values: calls and self time per span, then counters."""
        out: dict[str, float] = {}
        for name in TIMED:
            calls, total, child = self.spans.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = int(calls)
            out[f"{name}.self_s"] = total - child
        out.update(self.counts)
        _, total, child = self.spans.get(RUNNER, (0, 0.0, 0.0))
        out[f"{RUNNER}.self_s"] = total - child
        return out

    # -- counters -----------------------------------------------------------

    def _add(self, name: str, value: int) -> None:
        self.counts[name] += int(value)

    def _count_channel(self, cls_name: str) -> Callable:
        def after(args, kwargs, result):
            d = args[1].shape[0]
            self._add(f"channels.{cls_name}.apply.bytes_computed", 2 * COMPLEX_BYTES * d * d)

        return after

    def _count_derivatives(self, args, kwargs, result):
        circuit = args[0]
        indices = kwargs.get("indices", args[3] if len(args) > 3 else None)
        m = circuit.n_params
        idx = range(m) if indices is None else list(indices)
        tail_steps = sum(m - 1 - i for i in idx)
        d = circuit.dim
        # Dense products: one to build each gate, two per conjugation, two per
        # commutator that seeds a derivative.
        products = m + 2 * (m + tail_steps) + 2 * len(idx)
        self._add("circuits.gates_applied", m + tail_steps)
        self._add("circuits.deriv_slot_steps", tail_steps)
        self._add("circuits.matmul_flops_computed", 8 * d**3 * products)
        # Gates, post-gate states and derivatives held at once: the largest
        # call is kept, not a sum, since it is what bounds peak memory.
        held = COMPLEX_BYTES * d * d * (2 * m + len(idx))
        key = "circuits.states_held_bytes_computed"
        self.counts[key] = max(self.counts[key], held)

    def _count_evolve(self, args, kwargs, result):
        circuit = args[0]
        m, d = circuit.n_params, circuit.dim
        self._add("circuits.gates_applied", m)
        self._add("circuits.matmul_flops_computed", 8 * d**3 * 3 * m)

    def _count_assembly(self, args, kwargs, result):
        m, d = len(args[1]), args[0].shape[0]
        self._add("qfim.assembly_terms", m * (m + 1) // 2 * d * d)

    def _count_closure(self, args, kwargs, result):
        self._add("dla.basis_dim", result.dim)

    # -- installation -------------------------------------------------------

    def install(self, runner: Callable) -> Callable:
        """Patch qfimlab in place and return the traced ``runner``.

        Meant for a process that runs one workload and exits: the patches
        are never undone.
        """
        from qfimlab import channels, circuits, dla, experiments, linalg, qfim

        counters = {
            "circuits.evolve_with_derivatives": self._count_derivatives,
            "circuits.evolve": self._count_evolve,
            "qfim.qfim_mixed": self._count_assembly,
            "dla.lie_closure": self._count_closure,
        }
        for name in TIMED:
            module_name, _, attr = name.partition(".")
            if module_name == "channels":
                cls_name, _, method = attr.partition(".")
                cls = getattr(channels, cls_name)
                setattr(cls, method, self.wrap(name, getattr(cls, method), self._count_channel(cls_name)))
                continue
            module = {"linalg": linalg, "circuits": circuits, "qfim": qfim, "dla": dla,
                      "experiments": experiments}[module_name]
            original = getattr(module, attr)
            _rebind(original, self.wrap(name, original, counters.get(name)))

        # Lie closure looks ``commutator`` up in the dla module; count only there.
        commutator = dla.commutator

        def counted_commutator(a, b):
            self.counts["dla.commutators"] += 1
            return commutator(a, b)

        dla.commutator = counted_commutator
        return self.wrap(RUNNER, runner)


def _rebind(original: Callable, replacement: Callable) -> None:
    """Point every qfimlab module-level name bound to ``original`` at ``replacement``."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "qfimlab" or mod_name.startswith("qfimlab.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
