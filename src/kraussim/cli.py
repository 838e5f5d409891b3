"""Batch experiment runner and command-line interface.

One JSON config describes an experiment: model, initial state, time grid,
execution method, mitigation chain and requested outputs.  Records stream
per time step so long grids never hold every density matrix at once: the
matrices go to one binary ``states.npy``, the per-step diagnostics to
``run.json`` and the scalar columns to ``trajectory.csv``.
Exit codes: 0 success, 2 config/validation error, 3 numerical-check failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from . import analysis, circuits, kraus, mitigation, models
from .kraus import ConditionError
from .lindblad import (
    LindbladModel,
    SPLIT_EFFECTIVE_JUMP,
    SPLIT_HAMILTONIAN_DISSIPATOR,
    check_conditions,
    exact_trajectory,
    trotter_trajectory,
)
from .matkernel import (
    DensityMatrix,
    QuantumState,
    fidelity,
    from_doc,
    hermiticity_defect,
    project_to_physical,
    pauli_string_matrix,
    qubit_count,
    to_doc,
    trace_distance,
    von_neumann_entropy,
)

METHODS = ("exact", "trotter", "kraus", "kraus-circuit", "kraus-circuit-shots")
SERIES_VARIANTS = ("auto", "reduced", "truncated", "factored")
MITIGATIONS = ("none", "qdc", "pauli-fit", "twirl-qdc")
FIELD_OUTPUTS = ("position-density", "momentum-density", "wigner")
NOISE_PARAMETERS = {"qdc": "lambda", "pauli": "epsilons"}


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass
class ExperimentConfig:
    model: str | dict
    state: str | list
    t_start: float = 0.0
    t_stop: float = 1.0
    steps: int = 11
    method: str = "exact"
    model_params: dict = field(default_factory=dict)
    order: int = 3
    series: str = "auto"
    trotter_steps: int = 64
    trotter_split: str = SPLIT_HAMILTONIAN_DISSIPATOR
    shots: int | None = None
    seed: int = 0
    mitigation: str = "none"
    noise: dict | None = None
    outputs: list[str] = field(default_factory=list)
    check: bool = False
    check_tol: float | None = None

    def __post_init__(self):
        for name in ("steps", "order", "trotter_steps", "seed", "shots"):
            value = getattr(self, name)
            if name == "shots" and value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}")
        if self.series not in SERIES_VARIANTS:
            raise ConfigError(f"unknown series variant {self.series!r}")
        if self.mitigation not in MITIGATIONS:
            raise ConfigError(f"unknown mitigation {self.mitigation!r}")
        if not 0 <= self.t_start <= self.t_stop < np.inf:
            raise ConfigError("need finite times with 0 <= start <= stop")
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")
        if self.method == "kraus-circuit-shots":
            if self.shots is None or self.shots < 1:
                raise ConfigError("shot mode needs shots >= 1")
            if self.series == "factored":
                raise ConfigError("the factored circuit traces its ancillas out and cannot be sampled; use kraus-circuit")
        if self.order < 0:
            raise ConfigError("order must be >= 0")
        if self.trotter_steps < 1:
            raise ConfigError("trotter_steps must be >= 1")
        if self.trotter_split not in (SPLIT_HAMILTONIAN_DISSIPATOR, SPLIT_EFFECTIVE_JUMP):
            raise ConfigError(f"unknown trotter split {self.trotter_split!r}")
        if not isinstance(self.outputs, list) or not all(isinstance(token, str) for token in self.outputs):
            raise ConfigError(f"outputs must be a list of strings, got {self.outputs!r}")
        if self.noise is not None:
            if not isinstance(self.noise, dict) or self.noise.get("kind") not in NOISE_PARAMETERS:
                raise ConfigError(f"noise must be an object with kind qdc or pauli, got {self.noise!r}")
            fields = sorted(["kind", NOISE_PARAMETERS[self.noise["kind"]]])
            if sorted(self.noise) != fields:
                raise ConfigError(f"{self.noise['kind']} noise takes the fields {fields}, got {sorted(self.noise)}")
        if self.check_tol is not None and not 0 <= self.check_tol < np.inf:
            raise ConfigError(f"check_tol must be finite and >= 0, got {self.check_tol!r}")

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        doc = dict(doc)
        time = doc.pop("time", None)
        if time is not None:
            if not isinstance(time, dict):
                raise ConfigError(f"time must be an object, got {time!r}")
            unknown = set(time) - {"start", "stop", "steps"}
            if unknown:
                raise ConfigError(f"unknown time fields: {sorted(unknown)}; choose from start, stop and steps")
            doc.setdefault("t_start", time.get("start", 0.0))
            doc.setdefault("t_stop", time.get("stop", 1.0))
            doc.setdefault("steps", time.get("steps", 11))
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        try:
            return cls(**doc)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc


@dataclass
class TrajectoryRecord:
    index: int
    t: float
    raw: np.ndarray
    mitigated: np.ndarray
    fidelity_vs_oracle: float
    entropy: float
    observables: dict[str, float]
    diagnostics: list
    fields: dict[str, np.ndarray]
    check_distance: float
    check_bound: float


PRESETS: dict[str, dict] = {
    "pauli-xx-zz": {
        "model": "pauli-xx-zz",
        "state": "pauli-xx-zz",
        "time": {"start": 0.0, "stop": 2.0, "steps": 21},
        "method": "kraus",
        "series": "reduced",
        "outputs": ["populations", "pauli:ZI", "pauli:IZ", "pauli:ZZ"],
    },
    "schwinger-jz": {
        "model": "schwinger-jz",
        "state": "schwinger-jz",
        "time": {"start": 0.0, "stop": 2.0, "steps": 5},
        "method": "kraus",
        "series": "truncated",
        "order": 20,
        "outputs": ["quadratures"],
    },
    "qho-damped": {
        "model": "qho-damped",
        "state": "qho-oscillating",
        "time": {"start": 0.0, "stop": 3.0, "steps": 19},
        "method": "kraus-circuit-shots",
        "order": 3,
        "shots": 1024,
        "seed": 7,
        "outputs": ["quadratures", "position-density", "momentum-density", "wigner"],
    },
    "qho-cat": {
        "model": "qho-cat",
        "state": "qho-cat",
        "time": {"start": 0.0, "stop": 2.0, "steps": 9},
        "method": "kraus",
        "order": 3,
        "mitigation": "twirl-qdc",
        "outputs": ["parity", "position-density", "momentum-density", "wigner"],
    },
}


def _build_model(key: str, params) -> models.ModelSpec:
    """The registry model ``key`` with ``params`` overriding its parameters.

    An unknown key, an unknown parameter or a parameter of the wrong type or
    value is a :class:`ConfigError`.
    """
    if not isinstance(params, dict):
        raise ConfigError(f"model_params must be an object, got {params!r}")
    try:
        return models.build_model(key, **params)
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"cannot build model {key!r} with parameters {params}: {exc}") from exc


def _resolve_model(config: ExperimentConfig) -> models.ModelSpec:
    if isinstance(config.model, str):
        return _build_model(config.model, config.model_params)
    if config.model_params:
        raise ConfigError(f"model_params {config.model_params!r} only apply to a registry model, not to an inline model")
    try:
        model = from_doc(LindbladModel, config.model)
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"invalid inline model: {exc}") from exc
    return models.ModelSpec("custom", model, (), "inline model")


def _named_state(key: str) -> QuantumState:
    registry = models.benchmark_initial_states()
    if key not in registry:
        raise ConfigError(f"unknown state key {key!r}")
    return registry[key]


def _resolve_state(config: ExperimentConfig, dim: int) -> QuantumState:
    if isinstance(config.state, str):
        state = _named_state(config.state)
    else:
        try:
            amps = np.array([complex(re, im) for re, im in config.state])
            state = QuantumState(amps / np.linalg.norm(amps))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid state amplitudes: {exc}") from exc
    if state.dim != dim:
        raise ConfigError(f"state dimension {state.dim} does not match model dimension {dim}")
    return state


def _build_noise(config: ExperimentConfig, dim: int):
    if config.noise is None:
        return None
    doc = config.noise
    num_qubits = qubit_count(dim, "noise injection dimension")
    if doc["kind"] == "qdc":
        channel = mitigation.DepolarizingChannel(num_qubits, float(doc["lambda"]))
        return lambda mat: mitigation.apply_qdc(channel, mat).matrix
    channel = mitigation.PauliChannel(num_qubits, np.asarray(doc["epsilons"], dtype=float))
    return lambda mat: mitigation.apply_pauli_channel(channel, mat).matrix


def _run_method(
    config: ExperimentConfig,
    model: LindbladModel | kraus.PreparedModel,
    psi0: QuantumState,
    rho0: np.ndarray,
    ts: list[float],
) -> Iterator[tuple[np.ndarray | None, list, float]]:
    """Yield the method's raw state, per-term diagnostics and check bound at
    each time of ``ts``.  The exact method yields None: its state is the oracle's."""
    if config.method == "exact":
        for _t in ts:
            yield None, [], 1e-9
    elif config.method == "trotter":
        for out in trotter_trajectory(model, rho0, ts, config.trotter_steps, config.trotter_split):
            yield out.matrix, [], np.inf
    elif config.series == "factored":
        for t in ts:
            if config.method == "kraus":
                yield kraus.apply_factored_evolution(model, t, rho0).matrix, [], 1e-9
            else:
                circuit = circuits.build_group_circuit(model, t)
                yield circuits.apply_group_circuit(circuit, psi0), [], 1e-9
    else:
        shots = config.shots if config.method == "kraus-circuit-shots" else None
        trajectory = kraus.series_trajectory(model, ts, config.series, config.order)
        for index, (t, series) in enumerate(zip(ts, trajectory)):
            bound = series.tail_bound + 1e-9
            if config.method == "kraus":
                out = kraus.apply_series(series, rho0)
                diags = [
                    {"order": int(term.order), "indices": [int(k) for k in term.indices], "weight": float(term.weight)}
                    for term in series.terms
                ]
                yield out.matrix, diags, bound
            else:
                rho, diags = circuits.execute_series_tomography(
                    model, series, t, psi0, shots=shots, seed=(config.seed, index)
                )
                yield rho.matrix, diags, bound if shots is None else np.inf


class _MitigationChain:
    """twirl -> channel inversion -> physical projection, fit on the first step."""

    def __init__(self, config: ExperimentConfig, dim: int):
        self.kind = config.mitigation
        self.num_qubits = None if self.kind == "none" else qubit_count(dim, "mitigation dimension")
        self.parity = models.fock_parity_operator(dim)
        self.channel = None
        self.fitted = self.kind == "none"

    def _twirl(self, mat: np.ndarray) -> np.ndarray:
        return mitigation.parity_twirl(DensityMatrix(mat, raw=True), self.parity).matrix

    def fit(self, oracle0: np.ndarray, noisy0: np.ndarray) -> None:
        if self.fitted:
            return
        reference = self._twirl(noisy0) if self.kind == "twirl-qdc" else noisy0
        if self.kind == "pauli-fit":
            self.channel, _report = mitigation.fit_pauli_channel([(oracle0, reference)])
        else:
            lam = mitigation.fit_qdc_lambda([(oracle0, reference)])
            self.channel = mitigation.DepolarizingChannel(self.num_qubits, lam)
        self.fitted = True

    def apply(self, mat: np.ndarray) -> np.ndarray:
        if self.kind == "none":
            return mat
        out = mat
        if self.kind == "twirl-qdc":
            out = self._twirl(out)
        out = mitigation.invert_channel(self.channel, out).matrix
        return project_to_physical(out)


def _step_outputs(
    config: ExperimentConfig, spec: models.ModelSpec, dim: int
) -> Callable[[np.ndarray, np.ndarray], tuple[dict[str, float], dict[str, np.ndarray]]]:
    """Check the output tokens and build their operators once.  The returned
    function reads one step's observable columns from its mitigated state and
    its phase-space fields from the physical one."""
    operators: dict[str, np.ndarray] = {}
    for token in config.outputs:
        if token.startswith("pauli:"):
            label = token.split(":", 1)[1]
            operators[token] = pauli_string_matrix(label)
            if operators[token].shape != (dim, dim):
                raise ConfigError(f"Pauli label {label!r} does not match the dimension")
        elif token == "parity":
            operators[token] = models.fock_parity_operator(dim)
        elif token == "quadratures" and not spec.mode_ops:
            raise ConfigError("quadratures need a bosonic model")
        elif token in FIELD_OUTPUTS and (len(spec.mode_ops) != 1 or spec.mode_ops[0].shape != (dim, dim)):
            raise ConfigError("field outputs need a single-mode bosonic model")
        elif token not in ("populations", "quadratures", *FIELD_OUTPUTS):
            raise ConfigError(f"unknown output token {token!r}")
    grid = analysis.default_grid()

    def read(mitigated: np.ndarray, physical: np.ndarray):
        columns: dict[str, float] = {}
        fields: dict[str, np.ndarray] = {}
        for token in config.outputs:
            if token in operators:
                columns[token] = float(np.trace(operators[token] @ mitigated).real)
            elif token == "populations":
                for i, val in enumerate(np.diag(mitigated).real):
                    columns[f"pop_{i}"] = float(val)
            elif token == "quadratures":
                for m, (x0, p0) in enumerate(analysis.quadrature_expectations(mitigated, spec.mode_ops)):
                    columns[f"x0_{m}"] = x0
                    columns[f"p0_{m}"] = p0
            elif token == "position-density":
                fields[token] = analysis.position_density(physical, grid, analysis.POSITION)
            elif token == "momentum-density":
                fields[token] = analysis.position_density(physical, grid, analysis.MOMENTUM)
            else:
                fields[token] = analysis.wigner(physical, grid)
        return columns, fields

    return read


def run_experiment(config: ExperimentConfig) -> Iterator[TrajectoryRecord]:
    """Execute the configured method over the time grid, one record per step."""
    spec = _resolve_model(config)
    model = spec.model
    psi0 = _resolve_state(config, model.dim)
    rho0 = psi0.density().matrix
    work: LindbladModel | kraus.PreparedModel = model
    if config.method in ("kraus", "kraus-circuit", "kraus-circuit-shots"):
        work = kraus.prepare(model)
        kraus._require_conditions(work.report)
    noise = _build_noise(config, model.dim)
    chain = _MitigationChain(config, model.dim)
    outputs = _step_outputs(config, spec, model.dim)
    ts = np.linspace(config.t_start, config.t_stop, config.steps).tolist()
    oracles = exact_trajectory(model, rho0, config.t_start, config.t_stop, config.steps)
    methods = _run_method(config, work, psi0, rho0, ts)
    for index, (t, oracle_state, (raw, diagnostics, bound)) in enumerate(zip(ts, oracles, methods)):
        oracle = oracle_state.matrix
        raw = oracle if raw is None else raw
        check_distance = trace_distance(oracle, raw)
        if check_distance == np.inf:
            raise ConditionError(f"non-finite state at t={t:.6g}")
        noisy = noise(raw) if noise is not None else raw
        chain.fit(oracle, noisy)
        final = chain.apply(noisy)
        physical = (
            final
            if hermiticity_defect(final) <= 1e-10 and np.linalg.eigvalsh((final + final.conj().T) / 2).min() >= -1e-10
            else project_to_physical(final)
        )
        observables, fields = outputs(final, physical)
        yield TrajectoryRecord(
            index=index,
            t=t,
            raw=noisy,
            mitigated=final,
            fidelity_vs_oracle=fidelity(oracle, physical),
            entropy=von_neumann_entropy(physical),
            observables=observables,
            diagnostics=diagnostics,
            fields=fields,
            check_distance=check_distance,
            check_bound=bound,
        )


def emit_report(records: Iterable[TrajectoryRecord], outdir: str | Path, steps: int) -> None:
    """Stream each of the ``steps`` records to the output tree; deterministic layout.

    ``trajectory.csv`` gets one row per record under a header taken from the
    first.  ``states.npy`` is one complex128 array of shape ``(steps, 2, d,
    d)`` in C order, ``[:, 0]`` raw and ``[:, 1]`` mitigated: its NPY header
    is written with the first record and each record appends its two
    matrices.  ``run.json`` is one object ``{"steps": [...]}`` with an entry
    ``{"t", "diagnostics"}`` per record.  ``fields/`` gets one float64
    ``stepNNN_<name>.npy`` per field with the grid axes saved once as
    ``x.npy`` and ``p.npy`` (2-D fields are indexed ``[x, p]``).  If a
    record raises, or the records are not ``steps`` in number, the files
    written so far are removed and the error raised.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    fields_dir = outdir / "fields"
    written = [outdir / "states.npy", outdir / "run.json", outdir / "trajectory.csv"]
    try:
        with (
            written[0].open("wb") as states_file,
            written[1].open("w") as run_file,
            written[2].open("w", newline="") as table_file,
        ):
            table = csv.writer(table_file)
            run_file.write('{"steps": [\n')
            count = 0
            for record in records:
                row = {
                    "t": record.t,
                    "fidelity": record.fidelity_vs_oracle,
                    "entropy": record.entropy,
                    **record.observables,
                }
                if count == 0:
                    table.writerow(row)
                    dim = record.raw.shape[0]
                    descr = np.lib.format.dtype_to_descr(np.dtype(np.complex128))
                    header = {"descr": descr, "fortran_order": False, "shape": (steps, 2, dim, dim)}
                    np.lib.format.write_array_header_1_0(states_file, header)
                    if record.fields:
                        fields_dir.mkdir(exist_ok=True)
                        grid = analysis.default_grid()
                        for name, axis in (("x", grid.x), ("p", grid.p)):
                            written.append(fields_dir / f"{name}.npy")
                            np.save(written[-1], axis)
                else:
                    run_file.write(",\n")
                table.writerow([repr(float(value)) for value in row.values()])
                for matrix in (record.raw, record.mitigated):
                    states_file.write(np.ascontiguousarray(matrix, dtype=np.complex128).tobytes())
                run_file.write(json.dumps({"t": record.t, "diagnostics": record.diagnostics}, sort_keys=True))
                for name, data in record.fields.items():
                    written.append(fields_dir / f"step{record.index:03d}_{name}.npy")
                    np.save(written[-1], data)
                count += 1
            if count != steps:
                raise ValueError(f"expected {steps} records, got {count}")
            run_file.write("\n]}\n")
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise


def _load_config(args) -> ExperimentConfig:
    doc: dict = {}
    if getattr(args, "preset", None):
        if args.preset not in PRESETS:
            raise ConfigError(f"unknown preset {args.preset!r}; see 'kraussim presets'")
        doc.update(PRESETS[args.preset])
    if getattr(args, "config", None):
        loaded = json.loads(Path(args.config).read_text())
        if not isinstance(loaded, dict):
            raise ConfigError(f"config must be a JSON object, got {type(loaded).__name__}")
        doc.update(loaded)
    if not doc:
        raise ConfigError("need --config or --preset")
    for key in ("method", "series", "order", "shots", "seed", "mitigation", "steps"):
        value = getattr(args, key, None)
        if value is not None:
            doc[key] = value
    if getattr(args, "check", False):
        doc["check"] = True
    if getattr(args, "check_tol", None) is not None:
        doc["check_tol"] = args.check_tol
    return ExperimentConfig.from_dict(doc)


def _model_params(pairs) -> dict:
    out: dict = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigError(f"--param expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        try:
            parsed: object = json.loads(value)
        except json.JSONDecodeError:
            parsed = value
        out[key] = parsed
    return out


def _cmd_check(args) -> int:
    spec = _build_model(args.model, _model_params(args.param))
    report = check_conditions(spec.model)
    structure = kraus.detect_group_structure(spec.model)
    doc = {
        "model": spec.key,
        "conditions": {
            "i": report.hamiltonian_commutes,
            "ii": report.dissipators_commute,
            "iii": report.ladder_constant_found,
            "iv": report.damping_constant_found,
        },
        "nu": [report.nu.real, report.nu.imag],
        "lambda": [report.lambda_const.real, report.lambda_const.imag],
        "alpha": report.alpha,
        "f_kind": report.f_kind,
        "nu_residual": report.nu_residual,
        "lambda_residual": report.lambda_residual,
        "group_structure": None
        if structure is None
        else {"periods": list(structure.periods), "thetas": list(structure.thetas)},
    }
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text)
    print(text)
    return 0


def _cmd_presets(_args) -> int:
    for name, doc in PRESETS.items():
        print(f"{name}: method={doc['method']} model={doc['model']} steps={doc['time']['steps']}")
    return 0


def _cmd_experiment(args) -> int:
    config = _load_config(args)
    checks: list[tuple[float, float, float]] = []  # (t, distance, bound) of each record

    def checked(records):
        for record in records:
            bound = config.check_tol if config.check_tol is not None else record.check_bound
            checks.append((record.t, record.check_distance, bound))
            yield record

    emit_report(checked(run_experiment(config)), args.out, config.steps)
    if config.check:
        # the step with the least slack; when every bound is infinite, the largest distance
        t, distance, bound = max(checks, key=lambda check: (check[1] - check[2], check[1]))
        if distance > bound:
            print(
                f"check failed at t={t:.6g}: trace distance {distance:.3e} exceeds bound {bound:.3e}",
                file=sys.stderr,
            )
            return 3
        if bound == np.inf:
            print(
                f"check cannot fail: no finite bound exists for method {config.method}; "
                f"largest trace distance {distance:.3e} at t={t:.6g}"
            )
        else:
            print(f"check passed: least slack at t={t:.6g}, trace distance {distance:.3e} <= bound {bound:.3e}")
    return 0


def _cmd_kraus(args) -> int:
    spec = _build_model(args.model, _model_params(args.param))
    series = kraus.build_series(spec.model, args.time, args.series, args.order)
    if args.out:
        Path(args.out).write_text(json.dumps(to_doc(series), sort_keys=True))
    summary = {
        "terms": len(series.terms),
        "truncation_order": series.truncation_order,
        "tail_bound": series.tail_bound,
    }
    if args.state:
        out = kraus.apply_series(series, _named_state(args.state).density())
        summary["output_trace"] = float(np.trace(out.matrix).real)
        if args.out_state:
            Path(args.out_state).write_text(
                json.dumps(to_doc({"matrix": out.matrix}), sort_keys=True)
            )
    print(json.dumps(summary, sort_keys=True))
    return 0


def _cmd_circuit(args) -> int:
    spec = _build_model(args.model, _model_params(args.param))
    if args.group:
        built = [circuits.build_group_circuit(spec.model, args.time, args.scheme)]
    else:
        prep = kraus.prepare(spec.model)
        series = kraus.build_series(prep, args.time, "auto", args.order)
        built = [circuits.build_kraus_circuit(term, prep, args.time, args.scheme) for term in series.terms]
    payload = json.dumps(to_doc({"circuits": built}), sort_keys=True)
    if args.out:
        Path(args.out).write_text(payload)
    else:
        print(payload)
    return 0


def _cmd_mitigate(args) -> int:
    doc = json.loads(Path(args.pairs).read_text())
    pairs = doc.get("pairs") if isinstance(doc, dict) else None
    if not isinstance(pairs, list) or not all(isinstance(pair, list) and len(pair) == 2 for pair in pairs):
        raise ConfigError(f"{args.pairs} must hold {{'pairs': [[exact, noisy], ...]}}")
    pairs = [(from_doc(np.ndarray, exact), from_doc(np.ndarray, noisy)) for exact, noisy in pairs]
    if args.channel == "pauli":
        channel, report = mitigation.fit_pauli_channel(pairs)
        payload = {"channel": channel, "report": report}
    else:
        lam = mitigation.fit_qdc_lambda(pairs, args.strategy)
        num_qubits = qubit_count(pairs[0][0].shape[0], "density matrix dimension")
        channel = mitigation.DepolarizingChannel(num_qubits, lam)
        payload = {"channel": {"num_qubits": channel.num_qubits, "lambda": lam}}
    if args.apply:
        payload["mitigated"] = [
            mitigation.project_physical(mitigation.invert_channel(channel, noisy)).matrix
            for _exact, noisy in pairs
        ]
    text = json.dumps(to_doc(payload), sort_keys=True)
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kraussim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="condition and group-structure report")
    check.add_argument("--model", required=True, choices=models.MODEL_KEYS)
    check.add_argument("--param", action="append", metavar="KEY=VALUE")
    check.add_argument("--out")
    check.set_defaults(func=_cmd_check)

    presets = sub.add_parser("presets", help="list experiment presets")
    presets.set_defaults(func=_cmd_presets)

    kraus_cmd = sub.add_parser("kraus", help="build and optionally apply a series")
    kraus_cmd.add_argument("--model", required=True, choices=models.MODEL_KEYS)
    kraus_cmd.add_argument("--param", action="append", metavar="KEY=VALUE")
    kraus_cmd.add_argument("--time", type=float, required=True)
    kraus_cmd.add_argument("--order", type=int, default=3)
    kraus_cmd.add_argument("--series", choices=("auto", "reduced", "truncated"), default="auto")
    kraus_cmd.add_argument("--state")
    kraus_cmd.add_argument("--out")
    kraus_cmd.add_argument("--out-state")
    kraus_cmd.set_defaults(func=_cmd_kraus)

    circuit = sub.add_parser("circuit", help="export term or group circuits as JSON")
    circuit.add_argument("--model", required=True, choices=models.MODEL_KEYS)
    circuit.add_argument("--param", action="append", metavar="KEY=VALUE")
    circuit.add_argument("--time", type=float, required=True)
    circuit.add_argument("--order", type=int, default=3)
    circuit.add_argument("--scheme", choices=(circuits.SCHEME_BINARY, circuits.SCHEME_GRAY), default=circuits.SCHEME_BINARY)
    circuit.add_argument("--group", action="store_true")
    circuit.add_argument("--out")
    circuit.set_defaults(func=_cmd_circuit)

    mitigate = sub.add_parser("mitigate", help="fit and invert noise channels")
    mitigate.add_argument("--pairs", required=True, help="JSON file with {'pairs': [[exact, noisy], ...]}")
    mitigate.add_argument("--channel", choices=("qdc", "pauli"), default="qdc")
    mitigate.add_argument(
        "--strategy",
        choices=(mitigation.STRATEGY_FIDELITY, mitigation.STRATEGY_FROBENIUS),
        default=mitigation.STRATEGY_FIDELITY,
    )
    mitigate.add_argument("--apply", action="store_true")
    mitigate.add_argument("--out")
    mitigate.set_defaults(func=_cmd_mitigate)

    experiment = sub.add_parser("experiment", help="run a full configured pipeline")
    experiment.add_argument("--config")
    experiment.add_argument("--preset", choices=tuple(PRESETS))
    experiment.add_argument("--method", choices=METHODS)
    experiment.add_argument("--series", choices=SERIES_VARIANTS)
    experiment.add_argument("--order", type=int)
    experiment.add_argument("--shots", type=int)
    experiment.add_argument("--seed", type=int)
    experiment.add_argument("--steps", type=int)
    experiment.add_argument("--mitigation", choices=MITIGATIONS)
    experiment.add_argument("--check", action="store_true")
    experiment.add_argument("--check-tol", type=float)
    experiment.add_argument("--out", required=True)
    experiment.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConditionError as exc:
        print(f"numerical check failed: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
