"""Batch experiment runner and command-line interface.

One JSON config describes an experiment: model, initial state, time grid,
execution method, mitigation chain and requested outputs.  Records stream
per time step so long grids never hold every density matrix at once.
Exit codes: 0 success, 2 config/validation error, 3 numerical-check failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import analysis, circuits, kraus, mitigation, models
from .kraus import ConditionError
from .lindblad import (
    LindbladModel,
    SPLIT_EFFECTIVE_JUMP,
    SPLIT_HAMILTONIAN_DISSIPATOR,
    check_conditions,
    exact_evolve,
    trotter_evolve,
)
from .matkernel import (
    DensityMatrix,
    QuantumState,
    fidelity,
    from_doc,
    hermiticity_defect,
    project_to_physical,
    pauli_string_matrix,
    to_doc,
    trace_distance,
    von_neumann_entropy,
)

METHODS = ("exact", "trotter", "kraus", "kraus-circuit", "kraus-circuit-shots")
SERIES_VARIANTS = ("auto", "reduced", "truncated", "factored")
CIRCUIT_VARIANTS = ("terms", "group")
MITIGATIONS = ("none", "qdc", "pauli-fit", "twirl-qdc")
FIELD_OUTPUTS = ("position-density", "momentum-density", "wigner")


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
    circuit: str = "terms"
    scheme: str = circuits.SCHEME_BINARY
    trotter_steps: int = 64
    trotter_split: str = SPLIT_HAMILTONIAN_DISSIPATOR
    shots: int | None = None
    seed: int = 0
    mitigation: str = "none"
    qdc_lambda: float | None = None
    noise: dict | None = None
    renormalize: bool = False
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
        if self.circuit not in CIRCUIT_VARIANTS:
            raise ConfigError(f"unknown circuit variant {self.circuit!r}")
        if self.mitigation not in MITIGATIONS:
            raise ConfigError(f"unknown mitigation {self.mitigation!r}")
        if self.t_start < 0 or self.t_stop < self.t_start:
            raise ConfigError("need 0 <= start <= stop")
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")
        if self.method == "kraus-circuit-shots":
            if self.shots is None or self.shots < 1:
                raise ConfigError("shot mode needs shots >= 1")
        if self.order < 0:
            raise ConfigError("order must be >= 0")
        if self.trotter_split not in (SPLIT_HAMILTONIAN_DISSIPATOR, SPLIT_EFFECTIVE_JUMP):
            raise ConfigError(f"unknown trotter split {self.trotter_split!r}")
        if self.scheme not in (circuits.SCHEME_BINARY, circuits.SCHEME_GRAY):
            raise ConfigError(f"unknown diagonal-encoding scheme {self.scheme!r}")

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        doc = dict(doc)
        time = doc.pop("time", None)
        if time is not None:
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


def _resolve_model(config: ExperimentConfig) -> models.ModelSpec:
    if isinstance(config.model, str):
        try:
            return models.build_model(config.model, **config.model_params)
        except (KeyError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
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
    num_qubits = int(round(np.log2(dim)))
    if 2**num_qubits != dim:
        raise ConfigError("noise injection requires a qubit-shaped dimension")
    kind = doc.get("kind")
    if kind == "qdc":
        channel = mitigation.DepolarizingChannel(num_qubits, float(doc["lambda"]))
        return lambda mat: mitigation.apply_qdc(channel, mat).matrix
    if kind == "pauli":
        channel = mitigation.PauliChannel(num_qubits, np.asarray(doc["epsilons"], dtype=float))
        return lambda mat: mitigation.apply_pauli_channel(channel, mat).matrix
    raise ConfigError(f"unknown noise kind {kind!r}")


def _run_method(
    config: ExperimentConfig,
    model: LindbladModel | kraus.PreparedModel,
    psi0: QuantumState,
    rho0: np.ndarray,
    t: float,
    t_index: int,
    oracle: np.ndarray,
) -> tuple[np.ndarray, list, float]:
    if config.method == "exact":
        return oracle, [], 1e-9
    if config.method == "trotter":
        out = trotter_evolve(model, rho0, t, config.trotter_steps, config.trotter_split)
        return out.matrix, [], np.inf
    if config.method == "kraus":
        if config.series == "factored":
            out = kraus.apply_factored_evolution(model, t, rho0)
            return out.matrix, [], 1e-9
        series = kraus.build_series(model, t, config.series, config.order)
        out = kraus.apply_series(series, rho0, renormalize=config.renormalize)
        diags = [
            {"order": term.order, "indices": list(term.indices), "weight": term.weight}
            for term in series.terms
        ]
        return out.matrix, diags, series.tail_bound + 1e-9
    if config.method in ("kraus-circuit", "kraus-circuit-shots"):
        if config.circuit == "group":
            circuit = circuits.build_group_circuit(model, t, config.scheme)
            out = circuits.apply_group_circuit(circuit, psi0)
            return out, [], 1e-9
        series = kraus.build_series(model, t, config.series, config.order)
        shots = config.shots if config.method == "kraus-circuit-shots" else None
        rho, diags = circuits.execute_series_tomography(
            model, series, t, psi0, shots=shots, seed=(config.seed, t_index), scheme=config.scheme
        )
        bound = series.tail_bound + 1e-9 if shots is None else np.inf
        return rho.matrix, diags, bound
    raise ConfigError(f"unknown method {config.method!r}")


class _MitigationChain:
    """twirl -> channel inversion -> physical projection, fit on the first step."""

    def __init__(self, config: ExperimentConfig, dim: int):
        self.kind = config.mitigation
        self.fixed_lambda = config.qdc_lambda
        self.dim = dim
        self.num_qubits = int(round(np.log2(dim)))
        if self.kind != "none" and 2**self.num_qubits != dim:
            raise ConfigError("mitigation requires a qubit-shaped dimension")
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
            lam = (
                self.fixed_lambda
                if self.fixed_lambda is not None
                else mitigation.fit_qdc_lambda([(oracle0, reference)])
            )
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


def _observable_columns(
    config: ExperimentConfig, spec: models.ModelSpec, mat: np.ndarray
) -> dict[str, float]:
    out: dict[str, float] = {}
    for token in config.outputs:
        if token in FIELD_OUTPUTS:
            continue
        if token == "populations":
            for i, val in enumerate(np.diag(mat).real):
                out[f"pop_{i}"] = float(val)
        elif token.startswith("pauli:"):
            label = token.split(":", 1)[1]
            pauli = pauli_string_matrix(label)
            if pauli.shape != mat.shape:
                raise ConfigError(f"Pauli label {label!r} does not match the dimension")
            out[token] = float(np.trace(pauli @ mat).real)
        elif token == "quadratures":
            if not spec.mode_ops:
                raise ConfigError("quadratures need a bosonic model")
            for m, (x0, p0) in enumerate(analysis.quadrature_expectations(mat, spec.mode_ops)):
                out[f"x0_{m}"] = x0
                out[f"p0_{m}"] = p0
        elif token == "parity":
            tau = models.fock_parity_operator(mat.shape[0])
            out[token] = float(np.trace(tau @ mat).real)
        else:
            raise ConfigError(f"unknown output token {token!r}")
    return out


def _field_maps(
    config: ExperimentConfig, spec: models.ModelSpec, mat: np.ndarray, grid: analysis.PhaseSpaceGrid
) -> dict[str, np.ndarray]:
    wanted = [token for token in config.outputs if token in FIELD_OUTPUTS]
    if not wanted:
        return {}
    if len(spec.mode_ops) != 1 or spec.mode_ops[0].shape != mat.shape:
        raise ConfigError("field outputs need a single-mode bosonic model")
    fields: dict[str, np.ndarray] = {}
    for token in wanted:
        if token == "position-density":
            fields[token] = analysis.position_density(mat, grid, analysis.POSITION)
        elif token == "momentum-density":
            fields[token] = analysis.position_density(mat, grid, analysis.MOMENTUM)
        else:
            fields[token] = analysis.wigner(mat, grid)
    return fields


def run_experiment(config: ExperimentConfig) -> Iterator[TrajectoryRecord]:
    """Execute the configured method over the time grid, one record per step."""
    spec = _resolve_model(config)
    model = spec.model
    psi0 = _resolve_state(config, model.dim)
    rho0 = psi0.density().matrix
    work: LindbladModel | kraus.PreparedModel = model
    if config.method in ("kraus", "kraus-circuit", "kraus-circuit-shots"):
        work = kraus.prepare(model)
        if not work.report.all_satisfied:
            raise ConditionError(
                "commutation conditions fail for the Kraus method: "
                + ", ".join(work.report.failing())
            )
    noise = _build_noise(config, model.dim)
    chain = _MitigationChain(config, model.dim)
    grid = analysis.default_grid()
    ts = np.linspace(config.t_start, config.t_stop, config.steps)
    for index, t in enumerate(ts):
        oracle = exact_evolve(model, rho0, float(t)).matrix
        raw, diagnostics, bound = _run_method(config, work, psi0, rho0, float(t), index, oracle)
        noisy = noise(raw) if noise is not None else raw
        chain.fit(oracle, noisy)
        mitigated = chain.apply(noisy)
        final = mitigated if config.mitigation != "none" else noisy
        physical = (
            final
            if hermiticity_defect(final) <= 1e-10 and np.linalg.eigvalsh((final + final.conj().T) / 2).min() >= -1e-10
            else project_to_physical(final)
        )
        yield TrajectoryRecord(
            index=index,
            t=float(t),
            raw=noisy,
            mitigated=final,
            fidelity_vs_oracle=fidelity(oracle, physical),
            entropy=von_neumann_entropy(physical),
            observables=_observable_columns(config, spec, final),
            diagnostics=diagnostics,
            fields=_field_maps(config, spec, physical, grid),
            check_distance=trace_distance(oracle, raw),
            check_bound=bound,
        )


def emit_report(
    records: Iterable[TrajectoryRecord], outdir: str | Path, table_format: str = "csv"
) -> list[Path]:
    """Write trajectory table, state dumps and field grids; deterministic layout."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    grid = analysis.default_grid()
    written: list[Path] = []
    table_rows: list[dict] = []
    states_path = outdir / "states.json"
    with states_path.open("w") as states_file:
        states_file.write("[\n")
        first = True
        for record in records:
            row = {
                "t": record.t,
                "fidelity": record.fidelity_vs_oracle,
                "entropy": record.entropy,
            }
            row.update(record.observables)
            table_rows.append(row)
            doc = {"t": record.t, "raw": record.raw, "mitigated": record.mitigated, "diagnostics": record.diagnostics}
            if not first:
                states_file.write(",\n")
            states_file.write(json.dumps(to_doc(doc), sort_keys=True))
            first = False
            for name, data in record.fields.items():
                fields_dir = outdir / "fields"
                fields_dir.mkdir(exist_ok=True)
                path = fields_dir / f"step{record.index:03d}_{name}.csv"
                with path.open("w", newline="") as handle:
                    writer = csv.writer(handle)
                    if data.ndim == 1:
                        axis = grid.x if name != "momentum-density" else grid.p
                        writer.writerow(["x", "value"])
                        for xv, val in zip(axis, data):
                            writer.writerow([repr(float(xv)), repr(float(val))])
                    else:
                        writer.writerow(["x", "p", "value"])
                        for i, xv in enumerate(grid.x):
                            for j, pv in enumerate(grid.p):
                                writer.writerow(
                                    [repr(float(xv)), repr(float(pv)), repr(float(data[i, j]))]
                                )
                written.append(path)
        states_file.write("\n]\n")
    written.append(states_path)
    columns = list(table_rows[0].keys()) if table_rows else ["t", "fidelity", "entropy"]
    if table_format == "csv":
        table_path = outdir / "trajectory.csv"
        with table_path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(columns)
            for row in table_rows:
                writer.writerow([repr(float(row.get(c, float("nan")))) for c in columns])
    elif table_format == "json":
        table_path = outdir / "trajectory.json"
        table_path.write_text(json.dumps(table_rows, sort_keys=True, indent=1))
    else:
        raise ConfigError(f"unknown table format {table_format!r}")
    written.append(table_path)
    return written


def _load_config(args) -> ExperimentConfig:
    doc: dict = {}
    if getattr(args, "preset", None):
        if args.preset not in PRESETS:
            raise ConfigError(f"unknown preset {args.preset!r}; see 'kraussim presets'")
        doc.update(PRESETS[args.preset])
    if getattr(args, "config", None):
        doc.update(json.loads(Path(args.config).read_text()))
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
    spec = models.build_model(args.model, **_model_params(args.param))
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
    worst = {"distance": 0.0, "bound": np.inf}

    def checked(records):
        for record in records:
            if record.check_distance > worst["distance"]:
                worst["distance"] = record.check_distance
            worst["bound"] = min(worst["bound"], record.check_bound)
            yield record

    emit_report(checked(run_experiment(config)), args.out, args.format)
    if config.check:
        bound = config.check_tol if config.check_tol is not None else worst["bound"]
        if worst["distance"] > bound:
            print(
                f"check failed: max trace distance {worst['distance']:.3e} exceeds bound {bound:.3e}",
                file=sys.stderr,
            )
            return 3
        print(f"check passed: max trace distance {worst['distance']:.3e} <= {bound:.3e}")
    return 0


def _cmd_evolve(args) -> int:
    doc = {
        "model": args.model,
        "model_params": _model_params(args.param),
        "state": args.state,
        "time": {"start": args.start, "stop": args.stop, "steps": args.steps or 11},
        "method": args.method,
        "trotter_steps": args.trotter_steps,
        "trotter_split": args.split,
        "outputs": args.output or [],
    }
    config = ExperimentConfig.from_dict(doc)
    emit_report(run_experiment(config), args.out, args.format)
    return 0


def _cmd_kraus(args) -> int:
    spec = models.build_model(args.model, **_model_params(args.param))
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
    spec = models.build_model(args.model, **_model_params(args.param))
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
    pairs = [
        (from_doc(np.ndarray, exact), from_doc(np.ndarray, noisy)) for exact, noisy in doc["pairs"]
    ]
    if args.channel == "pauli":
        channel, report = mitigation.fit_pauli_channel(pairs)
        payload = {"channel": channel, "report": report}
    else:
        lam = mitigation.fit_qdc_lambda(pairs, args.strategy)
        channel = mitigation.DepolarizingChannel(int(np.log2(pairs[0][0].shape[0])), lam)
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

    evolve = sub.add_parser("evolve", help="oracle or product-formula evolution")
    evolve.add_argument("--model", required=True, choices=models.MODEL_KEYS)
    evolve.add_argument("--param", action="append", metavar="KEY=VALUE")
    evolve.add_argument("--state", required=True)
    evolve.add_argument("--start", type=float, default=0.0)
    evolve.add_argument("--stop", type=float, required=True)
    evolve.add_argument("--steps", type=int, default=11)
    evolve.add_argument("--method", choices=("exact", "trotter"), default="exact")
    evolve.add_argument("--trotter-steps", type=int, default=64)
    evolve.add_argument(
        "--split",
        choices=(SPLIT_HAMILTONIAN_DISSIPATOR, SPLIT_EFFECTIVE_JUMP),
        default=SPLIT_HAMILTONIAN_DISSIPATOR,
    )
    evolve.add_argument("--output", action="append")
    evolve.add_argument("--format", choices=("csv", "json"), default="csv")
    evolve.add_argument("--out", required=True)
    evolve.set_defaults(func=_cmd_evolve)

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
    experiment.add_argument("--format", choices=("csv", "json"), default="csv")
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
    except (ConfigError, ValueError, KeyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
