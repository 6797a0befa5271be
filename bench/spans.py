"""Span recorder that times the program's public functions from outside.

``Tracer.install`` replaces each traced function with a wrapper, in its own
module and in every ``contextprob`` module (or class) that holds the same
object under some name, so calls through ``from .x import f`` are counted
too.  ``Tracer.uninstall`` puts the originals back.

Each call is a span: label, start, end and the span that caused it (the one
on top of the stack when it started).  Spans are folded into per-label
totals as they close, which is all the benchmark reports: calls and self
time, where self time is the span's duration minus the time of the spans it
caused.  ``space.probability`` also counts the points of the events it is
given.
"""

from __future__ import annotations

import sys
import time

# label -> (module, attribute) of each traced function; a class attribute is
# written "Class.method".  Several targets may share one label.
TARGETS = {
    "space.probability": [("space", "FiniteKolmogorovSpace.probability")],
    "space.conditional": [("space", "FiniteKolmogorovSpace.conditional")],
    "space.transition_matrix": [("space", "transition_matrix")],
    "space.are_incompatible": [("space", "are_incompatible")],
    "interference.interference_coefficients": [("interference", "interference_coefficients")],
    "interference.assign_phases": [("interference", "assign_phases")],
    "interference.reconstruct_probability": [("interference", "reconstruct_probability")],
    "interference.verify_no_global_alpha": [("interference", "verify_no_global_alpha")],
    "complex_repr.build_amplitude": [("complex_repr", "build_amplitude")],
    "complex_repr.a_basis_for_context": [("complex_repr", "a_basis_for_context")],
    "complex_repr.verify_average_preservation": [("complex_repr", "verify_average_preservation")],
    "hyperbolic.arith": [
        ("hyperbolic", f"HyperbolicNumber.{op}")
        for op in ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "conj", "norm_sq")
    ],
    "hyperbolic_repr.build_hyperbolic_amplitude": [("hyperbolic_repr", "build_hyperbolic_amplitude")],
    "hyperbolic_repr.hyperbolic_a_basis": [("hyperbolic_repr", "hyperbolic_a_basis")],
    "multivalued.build_amplitude_nvalued": [("multivalued", "build_amplitude_nvalued")],
    "multivalued.contextual_total_probability_split": [("multivalued", "contextual_total_probability_split")],
    "multivalued.mu_coefficient": [("multivalued", "mu_coefficient")],
    "models.load_model": [("models", "load_model")],
    "cli.main": [("cli", "main")],
}

PACKAGE = "contextprob"


class LabelStats:
    __slots__ = ("calls", "self_s", "points")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.points = 0


class Tracer:
    """Wraps the functions of ``TARGETS`` while installed and keeps their
    totals.  One tracer per traced round.  Not thread safe: the benchmark
    runs the program on one thread."""

    def __init__(self):
        self.stats = {label: LabelStats() for label in TARGETS}
        # one entry per open span: [start, time of the spans it caused]
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, label: str, fn, count_points: bool):
        stack = self._stack
        stats = self.stats
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - frame[0]
                stack.pop()
                s = stats[label]
                s.calls += 1
                s.self_s += duration - frame[1]
                if count_points:
                    s.points += args[1].mask.bit_count()
                if stack:
                    stack[-1][1] += duration

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for label, targets in TARGETS.items():
            for module_name, attr in targets:
                module = sys.modules[f"{PACKAGE}.{module_name}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[meth]
                    wrapped = self._wrap(label, original, label == "space.probability")
                    self._patch(owner, meth, wrapped)
                    continue
                original = getattr(module, attr)
                wrapped = self._wrap(label, original, False)
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, name, wrapped)

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
