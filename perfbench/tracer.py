"""Span tracing of kraussim's public functions, installed from outside.

``Tracer.install`` replaces each traced function in its defining module and
in every ``kraussim`` module that imported it by name (``cli`` binds
``exact_evolve``, ``check_conditions`` and ``fidelity`` directly, ``kraus``
binds ``check_conditions``), so no call path escapes the wrapper.  Generator
functions (``cli.run_experiment``) get one span per ``next()``, so the
compute they do is not charged to the consumer that drains them.

Spans stay in memory as ``[name, parent, start, end]`` until ``summary``
turns them into per-function self time (span minus child spans) and call
counts.  Exact work counts are taken from arguments and return values next
to the spans.
"""

from __future__ import annotations

import inspect
import sys
import time


def _series_terms(_args, series):
    return {"kraus.terms": len(series.terms)}


def _statevector_work(args, _result):
    circuit = args[0]
    gates = len(circuit.gates)
    # One read and one write of the full complex128 register per gate.
    return {
        "circuits.gates": gates,
        "circuits.statevector_bytes": gates * 2**circuit.num_qubits * 16 * 2,
    }


def _shots(_args, result):
    return {"circuits.shots": int(sum(result.counts.values()))}


def _survival(_args, result):
    _rho, diagnostics = result
    weights = [d["weight"] ** 2 for d in diagnostics]
    return {
        "circuits.survival_num": sum(w * d["survival"] for w, d in zip(weights, diagnostics)),
        "circuits.survival_den": sum(weights),
    }


def _fit_iterations(_args, result):
    _channel, report = result
    return {"mitigation.fit_iterations": report.iterations}


def _field_cells(_args, field):
    return {"analysis.field_cells": int(field.size)}


# (module, function, counter or None).  A counter maps (args, result) to
# increments of the exact counts.
TARGETS = (
    ("cli", "emit_report", None),
    ("cli", "run_experiment", None),
    ("models", "build_model", None),
    ("lindblad", "exact_evolve", None),
    ("lindblad", "check_conditions", None),
    ("lindblad", "normalize_lindblads", None),
    ("kraus", "detect_group_structure", None),
    ("kraus", "build_reduced_series", _series_terms),
    ("kraus", "build_tp_series", _series_terms),
    ("kraus", "apply_series", None),
    ("circuits", "build_kraus_circuit", None),
    ("circuits", "simulate_statevector", _statevector_work),
    ("circuits", "sample_shots", _shots),
    ("circuits", "tomography", None),
    ("circuits", "execute_series_tomography", _survival),
    ("mitigation", "fit_pauli_channel", _fit_iterations),
    ("mitigation", "fit_qdc_lambda", None),
    ("mitigation", "invert_channel", None),
    ("analysis", "wigner", _field_cells),
    ("analysis", "position_density", _field_cells),
    ("matkernel", "fidelity", None),
    ("matkernel", "von_neumann_entropy", None),
    ("matkernel", "trace_distance", None),
    ("matkernel", "project_to_physical", None),
)

SPAN_NAMES = tuple(f"{module}.{name}" for module, name, _ in TARGETS)
COUNT_NAMES = (
    "kraus.terms",
    "circuits.gates",
    "circuits.shots",
    "circuits.statevector_bytes",
    "mitigation.fit_iterations",
    "analysis.field_cells",
)


class Tracer:
    """Spans and counts of the ``TARGETS`` functions while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()

    def _open(self, name: str) -> list:
        span = [name, self.stack[-1] if self.stack else -1, 0.0, 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[2] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[3] = time.perf_counter()
        self.stack.pop()

    def _count(self, counter, args, result) -> None:
        for key, value in counter(args, result).items():
            self.counts[key] = self.counts.get(key, 0) + value

    def _wrap(self, name: str, func, counter):
        tracer = self
        if inspect.isgeneratorfunction(func):

            def traced_generator(*args, **kwargs):
                inner = func(*args, **kwargs)
                while True:
                    span = tracer._open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(span)
                    yield item

            return traced_generator

        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(span)
            if counter is not None:
                tracer._count(counter, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key == "kraussim" or key.startswith("kraussim.")]
        for module_name, func_name, counter in TARGETS:
            original = getattr(sys.modules[f"kraussim.{module_name}"], func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def summary(self) -> dict[str, float]:
        """Self time and calls per traced function, plus the exact counts."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.self_s"] = 0.0
            out[f"{name}.calls"] = 0
        for (name, _parent, start, end), children in zip(self.spans, child_time):
            out[f"{name}.self_s"] += end - start - children
            out[f"{name}.calls"] += 1
        for key in COUNT_NAMES:
            out[key] = self.counts.get(key, 0)
        den = self.counts.get("circuits.survival_den", 0.0)
        out["circuits.survival"] = self.counts.get("circuits.survival_num", 0.0) / den if den else 0.0
        return out
