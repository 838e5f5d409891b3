"""Batch experiment runner and command-line interface.

One JSON config describes an experiment: model, initial state, time grid,
execution method, mitigation chain and requested outputs.  The grid is
evaluated in blocks of consecutive points, as many as ``BLOCK_BYTES`` holds,
each layer once per block and each decision per state, and records stream
one per time step, so long grids never hold every density matrix at once:
the matrices go to one binary ``states.npy``, each phase-space field to one
``fields/<name>.npy`` stacked the same way, the series' term table (once)
and each step's rows and weights over it to ``run.json`` and the scalar
columns to ``trajectory.csv``.  The output directory must be new or empty;
the tree is staged inside it and appears only once every step is written.
Exit codes: 0 success, 2 config/validation error (an output directory that
holds files included), 3 numerical-check failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import shutil
import sys
import tempfile
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator

import numpy as np

from . import analysis, circuits, kraus, mitigation, models
from .kraus import ConditionError
from .lindblad import (
    LindbladModel,
    SPLIT_EFFECTIVE_JUMP,
    SPLIT_HAMILTONIAN_DISSIPATOR,
    exact_trajectory,
    trotter_trajectory,
)
from .matkernel import (
    EIGENVALUE_FLOOR,
    HERMITICITY_TOL,
    QuantumState,
    from_doc,
    hermiticity_defect,
    pauli_string_matrix,
    qubit_count,
    to_doc,
    trace_distance,
    _entropy,
    _hermitian_eigh,
    _integer,
    _numbers,
    _physical,
    _real,
    _root,
    _root_fidelity,
)

METHODS = ("exact", "trotter", "kraus", "kraus-circuit", "kraus-circuit-shots")
SERIES_VARIANTS = ("auto", "reduced", "truncated", "factored")
MITIGATIONS = ("none", "qdc", "pauli-fit", "twirl-qdc")
FIELD_OUTPUTS = ("position-density", "momentum-density", "wigner")
# The one grid the fields are evaluated on and whose axes fields/ holds.
FIELD_GRID = analysis.default_grid()
NOISE_PARAMETERS = {"qdc": "lambda", "pauli": "epsilons"}
# The --check bound of the exact methods, and the rounding slack added to a series tail bound.
CHECK_SLACK = 1e-9
# The most bytes a block of grid points may take: each point's (K, d, d) series operators and its four
# (d, d) states (oracle, raw, mitigated and physical).  A block holds at least one point.
BLOCK_BYTES = 2**17


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
        try:
            for name, least in (("steps", 1), ("order", 0), ("trotter_steps", 1), ("seed", 0)):
                if _integer(getattr(self, name), name) < least:
                    raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
            if self.shots is not None:
                _integer(self.shots, "shots")
            if self.check_tol is not None and _real(self.check_tol, "check_tol") < 0:
                raise ValueError(f"check_tol must be finite and >= 0, got {self.check_tol!r}")
            times = _numbers([self.t_start, self.t_stop], "times")
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}")
        if self.series not in SERIES_VARIANTS:
            raise ConfigError(f"unknown series variant {self.series!r}")
        if self.mitigation not in MITIGATIONS:
            raise ConfigError(f"unknown mitigation {self.mitigation!r}")
        if not 0 <= times[0] <= times[1] < np.inf:
            raise ConfigError("need finite times with 0 <= start <= stop")
        # a given shot count is range-checked whatever the method; shot mode needs one
        if self.shots is not None or self.method == "kraus-circuit-shots":
            if self.shots is None or not 1 <= self.shots <= circuits.MAX_SHOTS:
                raise ConfigError(f"shot mode needs 1 <= shots <= {circuits.MAX_SHOTS}, got {self.shots}")
        if self.method == "kraus-circuit-shots" and self.series == "factored":
            raise ConfigError("the factored circuit traces its ancillas out and cannot be sampled; use kraus-circuit")
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
    """One step's outputs.  ``table`` is the run's term table, the same for every step (empty
    without a series), and ``diagnostics`` the step's ``{"rows", "weights"[, "survivals"]}`` over it."""

    t: float
    raw: np.ndarray
    mitigated: np.ndarray
    fidelity_vs_oracle: float
    entropy: float
    observables: dict[str, float]
    diagnostics: dict
    table: tuple[tuple[int, ...], ...]
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
    return models.ModelSpec("custom", model, ())


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
            amps = np.array(from_doc(list[complex], config.state))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid state amplitudes: {exc}") from exc
        norm = np.linalg.norm(amps)
        if not 0 < norm < np.inf:
            raise ConfigError(f"invalid state amplitudes: their norm {norm} must be finite and nonzero")
        state = QuantumState(amps / norm)
    if state.dim != dim:
        raise ConfigError(f"state dimension {state.dim} does not match model dimension {dim}")
    return state


def block_points(terms: int, dim: int) -> int:
    """The grid points a block holds when each point has ``terms`` series operators of dimension ``dim``."""
    return max(1, BLOCK_BYTES // ((terms + 4) * dim * dim * np.dtype(complex).itemsize))


def _each(func: Callable[[np.ndarray], np.ndarray], mats: np.ndarray) -> np.ndarray:
    """``func`` applied to each ``(d, d)`` matrix of a ``(..., d, d)`` stack, stacked the same way."""
    return np.array([func(mat) for mat in mats.reshape(-1, *mats.shape[-2:])]).reshape(mats.shape)


def _build_noise(config: ExperimentConfig, dim: int) -> Callable[[np.ndarray], np.ndarray]:
    """The configured noise channel as a map on stacks of matrices, one matrix at a time; the identity
    when none is set."""
    if config.noise is None:
        return lambda mats: mats
    doc = config.noise
    num_qubits = qubit_count(dim, "noise injection dimension")
    if doc["kind"] == "qdc":
        channel = mitigation.DepolarizingChannel(num_qubits, doc["lambda"])
        return lambda mats: _each(lambda mat: mitigation.apply_qdc(channel, mat).matrix, mats)
    channel = mitigation.PauliChannel(num_qubits, doc["epsilons"])
    return lambda mats: _each(lambda mat: mitigation.apply_pauli_channel(channel, mat).matrix, mats)


def _run_method(
    config: ExperimentConfig,
    model: LindbladModel | kraus.PreparedModel,
    psi0: QuantumState,
    rho0: np.ndarray,
    ts: Iterable[float],
    points: Callable[[int], int],
) -> Iterator[tuple[np.ndarray | None, tuple, list[dict], list[float]]]:
    """Yield the method's states over ``ts`` in blocks of consecutive points: the block's ``(b, d, d)``
    raw states, the run's term table, and each point's diagnostics over it and check bound.  The
    ``kraus`` series takes blocks of ``points(K)`` points; every other method runs point by point,
    collected into blocks of ``points(0)``.  The exact method yields None: its states are the oracle's."""
    if config.method == "kraus" and config.series != "factored":
        for series in kraus.series_trajectory(model, ts, config.series, config.order, points):
            steps = [{"rows": list(series.rows), "weights": weights} for weights in series.weights.tolist()]
            block = kraus.apply_series(series, rho0), series.table, steps, (series.tail_bound + CHECK_SLACK).tolist()
            del series  # the next block's operators are built once this block's are freed
            yield block
        return
    each = _point_states(config, model, psi0, rho0, ts)
    while block := list(itertools.islice(each, points(0))):
        raws, tables, steps, bounds = zip(*block)
        yield None if raws[0] is None else np.array(raws), tables[0], list(steps), list(bounds)


def _point_states(
    config: ExperimentConfig,
    model: LindbladModel | kraus.PreparedModel,
    psi0: QuantumState,
    rho0: np.ndarray,
    ts: Iterable[float],
) -> Iterator[tuple[np.ndarray | None, tuple, dict, float]]:
    """Yield the raw state, the run's term table, the step's diagnostics over it and the check bound at
    each time of ``ts``, for every method but the ``kraus`` series."""
    if config.method == "exact":
        for _t in ts:
            yield None, (), {}, CHECK_SLACK
    elif config.method == "trotter":
        for out in trotter_trajectory(model, rho0, ts, config.trotter_steps, config.trotter_split):
            yield out, (), {}, np.inf
    elif config.series == "factored":
        for t in ts:
            if config.method == "kraus":
                yield kraus.apply_factored_evolution(model, t, rho0), (), {}, CHECK_SLACK
            else:
                circuit = circuits.build_group_circuit(model, t)
                yield circuits.apply_group_circuit(circuit, psi0), (), {}, CHECK_SLACK
    else:
        shots = config.shots if config.method == "kraus-circuit-shots" else None
        ts, series_ts = itertools.tee(ts)
        trajectory = kraus.series_trajectory(model, series_ts, config.series, config.order)
        for index, (t, series) in enumerate(zip(ts, trajectory)):
            bound = series.tail_bound + CHECK_SLACK
            step = {"rows": list(series.rows), "weights": series.weights.tolist()}
            seed = (config.seed, index)
            rho, diags = circuits.execute_series_tomography(model, series, t, psi0, shots=shots, seed=seed)
            step["survivals"] = [diag["survival"] for diag in diags]
            yield rho, series.table, step, bound if shots is None else np.inf


Spectrum = tuple[np.ndarray, np.ndarray]


def _build_mitigation(
    config: ExperimentConfig, dim: int
) -> Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray, Spectrum]]:
    """The configured chain as a map ``(oracle, noisy) -> (mitigated, physical, (w, u))`` on one state or a
    ``(b, d, d)`` stack, each state's one physicality decision, with ``(w, u)`` the eigenpairs of the physical
    state's Hermitian part from one batched ``eigh``.  A chain twirls (``twirl-qdc``), inverts the channel fit
    on the first call's first pair and projects, state by state, and the projection is both values.  ``none``
    keeps ``noisy``, as the physical state too unless a state's hermiticity defect or lowest eigenvalue is
    out of tolerance (no trace test): only such a state is projected.  Every projection is
    :func:`project_to_physical`'s arithmetic on that ``eigh``."""
    if config.mitigation == "none":

        def keep(_oracle: np.ndarray, noisy: np.ndarray) -> tuple[np.ndarray, np.ndarray, Spectrum]:
            w, u = _hermitian_eigh(noisy)
            kept = (hermiticity_defect(noisy) <= HERMITICITY_TOL) & (w[..., 0] >= EIGENVALUE_FLOOR)
            if kept.all():
                return noisy, noisy, (w, u)
            redo = ~kept
            physical, w, u = noisy.copy(), w.copy(), u.copy()
            physical[redo], (w[redo], u[redo]) = _physical(w[redo], u[redo])
            return noisy, physical, (w, u)

        return keep
    num_qubits = qubit_count(dim, "mitigation dimension")
    parity = models.fock_parity_operator(dim)
    channel = None

    def mitigate(oracle: np.ndarray, noisy: np.ndarray) -> tuple[np.ndarray, np.ndarray, Spectrum]:
        nonlocal channel
        if config.mitigation == "twirl-qdc":
            noisy = _each(lambda mat: mitigation.parity_twirl(mat, parity).matrix, noisy)
        if channel is None:
            pairs = [(oracle.reshape(-1, dim, dim)[0], noisy.reshape(-1, dim, dim)[0])]
            if config.mitigation == "pauli-fit":
                channel, _report = mitigation.fit_pauli_channel(pairs)
            else:
                channel = mitigation.DepolarizingChannel(num_qubits, mitigation.fit_qdc_lambda(pairs))
        inverted = _each(lambda mat: mitigation.invert_channel(channel, mat).matrix, noisy)
        projected, spectrum = _physical(*_hermitian_eigh(inverted))
        return projected, projected, spectrum

    return mitigate


def _step_outputs(
    config: ExperimentConfig, spec: models.ModelSpec, dim: int
) -> tuple[Callable[[np.ndarray], dict[str, np.ndarray]], Callable[[np.ndarray], dict[str, np.ndarray]]]:
    """Check the output tokens and build one reader per distinct token once, with its operator or
    Wigner nodes.  Returns the column reader, which reads each observable column at once from a block's
    ``(b, d, d)`` stack of mitigated states, and the field reader of one physical state."""
    columns: list[Callable[[np.ndarray], dict[str, np.ndarray]]] = []
    fields: dict[str, Callable[[np.ndarray], np.ndarray]] = {}
    for token in dict.fromkeys(config.outputs):
        if token.startswith("pauli:") or token == "parity":
            label = token.split(":", 1)[-1]
            op = models.fock_parity_operator(dim) if token == "parity" else pauli_string_matrix(label)
            if op.shape != (dim, dim):
                raise ConfigError(f"Pauli label {label!r} does not match the dimension")
            columns.append(lambda rhos, token=token, op=op: {token: (op @ rhos).trace(axis1=-2, axis2=-1).real})
        elif token == "populations":
            columns.append(lambda rhos: {f"pop_{i}": pop for i, pop in enumerate(rhos.diagonal(0, -2, -1).real.T)})
        elif token == "quadratures" and spec.mode_ops:
            names = [f"{axis}0_{m}" for m in range(len(spec.mode_ops)) for axis in "xp"]
            columns.append(
                lambda rhos: dict(zip(names, itertools.chain(*analysis.quadrature_expectations(rhos, spec.mode_ops))))
            )
        elif token == "quadratures":
            raise ConfigError("quadratures need a bosonic model")
        elif token not in FIELD_OUTPUTS:
            raise ConfigError(f"unknown output token {token!r}")
        elif len(spec.mode_ops) != 1 or spec.mode_ops[0].shape != (dim, dim):
            raise ConfigError("field outputs need a single-mode bosonic model")
        elif token == "wigner":
            nodes = analysis.WignerNodes(FIELD_GRID, dim)
            fields[token] = lambda rho: analysis.wigner(rho, FIELD_GRID, nodes)
        else:
            which = analysis.POSITION if token == "position-density" else analysis.MOMENTUM
            fields[token] = lambda rho, which=which: analysis.position_density(rho, FIELD_GRID, which)

    def read_columns(mitigated: np.ndarray) -> dict[str, np.ndarray]:
        values: dict[str, np.ndarray] = {}
        for column in columns:
            values.update(column(mitigated))
        return values

    return read_columns, lambda physical: {token: field(physical) for token, field in fields.items()}


def run_experiment(config: ExperimentConfig) -> Iterator[TrajectoryRecord]:
    """Execute the configured method over the time grid, one record per step.

    The grid runs in blocks of consecutive points, as many as ``BLOCK_BYTES`` holds with each point's
    ``(K, d, d)`` series operators and its four ``(d, d)`` states (:func:`block_points`).  The oracle and
    the point-by-point methods fill a block one state at a time; the check distance, the noise, the
    mitigation, the fidelity, the entropy and the observable columns then run once on the block's stack,
    with every decision still made per state, and each field is read as its record is yielded.  The oracle
    takes each time before the method does; an error in a block is raised before any of its records."""
    spec = _resolve_model(config)
    model = spec.model
    psi0 = _resolve_state(config, model.dim)
    rho0 = psi0.density().matrix
    work: LindbladModel | kraus.PreparedModel = model
    if config.method in ("kraus", "kraus-circuit", "kraus-circuit-shots"):
        work = kraus.prepare(model)
        kraus._require_conditions(work.report)
    noise = _build_noise(config, model.dim)
    mitigate = _build_mitigation(config, model.dim)
    read_columns, read_fields = _step_outputs(config, spec, model.dim)
    ts = np.linspace(config.t_start, config.t_stop, config.steps).tolist()
    oracles = exact_trajectory(model, rho0, config.t_start, config.t_stop, config.steps)
    # each point's oracle state, taken before the method takes its time, as a point-by-point run would
    taken = [next(oracles)]

    def take(times: list[float]) -> Iterator[float]:
        for index, t in enumerate(times):
            if index:
                taken.append(next(oracles))
            yield t

    def records(
        raws: np.ndarray | None, table: tuple, steps: list[dict], bounds: list[float]
    ) -> Iterator[TrajectoryRecord]:
        """The records of the method's next block; its arrays are freed once its last record is taken."""
        nonlocal done
        times = ts[done : done + len(steps)]
        done += len(steps)
        oracle = np.array(taken[: len(times)])
        del taken[: len(times)]
        raws = oracle if raws is None else raws
        distances = trace_distance(oracle, raws).tolist()
        if math.inf in distances:
            raise ConditionError(f"non-finite state at t={times[distances.index(math.inf)]:.6g}")
        noisy = noise(raws)
        final, physical, (w, u) = mitigate(oracle, noisy)
        columns = {name: values.tolist() for name, values in read_columns(final).items()}
        fidelities = _root_fidelity(_root(w, u), oracle).tolist()  # through sqrt(physical): one eigh per state
        entropies = _entropy(w).tolist()
        for index, t in enumerate(times):
            yield TrajectoryRecord(
                t=t,
                raw=noisy[index],
                mitigated=final[index],
                fidelity_vs_oracle=fidelities[index],
                entropy=entropies[index],
                observables={name: values[index] for name, values in columns.items()},
                diagnostics=steps[index],
                table=table,
                fields=read_fields(physical[index]),
                check_distance=distances[index],
                check_bound=bounds[index],
            )

    done = 0
    for block in _run_method(config, work, psi0, rho0, take(ts), functools.partial(block_points, dim=model.dim)):
        yield from records(*block)


def emit_report(records: Iterable[TrajectoryRecord], outdir: str | Path, steps: int) -> None:
    """Stream each of the ``steps`` records to the output tree; deterministic layout.

    ``trajectory.csv`` gets one row per record under a header taken from the
    first.  ``run.json`` is one object ``{"steps": [...], "table": [...]}``:
    ``table`` holds the first record's term table once, one ``{"order",
    "indices"}`` row per term, and ``steps`` an entry ``{"t", **diagnostics}``
    per record, so a series step gives the table ``rows`` it used, their
    ``weights`` and, on the circuit path, their ``survivals``.  Every
    per-step array goes to one stacked NPY file of shape ``(steps, *shape)``
    in C order, whose header is written with the first record and to which
    each record appends its row: ``states.npy`` is complex128 ``(steps, 2,
    d, d)``, ``[:, 0]`` the state after the configured noise and ``[:, 1]``
    the mitigated one, and each field is float64 ``fields/<name>.npy``, next
    to the grid axes ``fields/x.npy`` and ``fields/p.npy`` (Wigner rows are
    indexed ``[x, p]``).

    ``outdir`` is created if needed and must hold nothing, or a
    :class:`ConfigError` is raised before the first record is pulled.  The
    tree is written into a ``.partial-*`` stage inside ``outdir`` and moved
    up once all ``steps`` records are in; if a record raises, or the records
    are not ``steps`` in number, the stage is removed, then ``outdir`` too
    if this call created it, and the error raised.
    """
    outdir = Path(outdir)
    created = not outdir.exists()
    outdir.mkdir(parents=True, exist_ok=True)
    if any(outdir.iterdir()):
        raise ConfigError(f"output directory {outdir} already holds files; give a new or empty --out")
    stage = Path(tempfile.mkdtemp(prefix=".partial-", dir=outdir))
    streams: dict[str, BinaryIO] = {}
    try:
        with ExitStack() as files:
            run_file = files.enter_context((stage / "run.json").open("w"))
            table = csv.writer(files.enter_context((stage / "trajectory.csv").open("w", newline="")))
            run_file.write('{"steps": [\n')
            count, terms = 0, []
            for record in records:
                row = {
                    "t": record.t,
                    "fidelity": record.fidelity_vs_oracle,
                    "entropy": record.entropy,
                    **record.observables,
                }
                arrays = {
                    "states.npy": np.stack((record.raw, record.mitigated)).astype(np.complex128, copy=False),
                    **{f"fields/{name}.npy": np.ascontiguousarray(data, np.float64) for name, data in record.fields.items()},
                }
                shapes = {name: data.shape for name, data in arrays.items()}
                if count == 0:
                    table.writerow(row)
                    first_shapes = shapes
                    terms = [{"indices": indices, "order": len(indices)} for indices in record.table]
                    if record.fields:
                        (stage / "fields").mkdir()
                        for name, axis in (("x", FIELD_GRID.x), ("p", FIELD_GRID.p)):
                            np.save(stage / "fields" / f"{name}.npy", axis)
                    for name, data in arrays.items():
                        streams[name] = files.enter_context((stage / name).open("wb"))
                        header = {"descr": np.lib.format.dtype_to_descr(data.dtype), "fortran_order": False}
                        np.lib.format.write_array_header_1_0(streams[name], {**header, "shape": (steps, *data.shape)})
                else:
                    run_file.write(",\n")
                if shapes != first_shapes:
                    raise ValueError(f"record {count} has arrays {shapes}, the first record {first_shapes}")
                for name, data in arrays.items():
                    streams[name].write(data)
                table.writerow([repr(float(value)) for value in row.values()])
                run_file.write(json.dumps({"t": record.t, **record.diagnostics}, sort_keys=True))
                count += 1
            if count != steps:
                raise ValueError(f"expected {steps} records, got {count}")
            run_file.write(f'\n], "table": {json.dumps(terms, sort_keys=True)}}}\n')
        for entry in stage.iterdir():
            entry.rename(outdir / entry.name)
    finally:
        shutil.rmtree(stage)
        if created and not any(outdir.iterdir()):
            outdir.rmdir()


def _read_json(path: str) -> object:
    """The JSON document in the file ``path``; malformed JSON is a :class:`ConfigError` naming the file."""
    try:
        return json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc


def _load_config(args) -> ExperimentConfig:
    doc: dict = {}
    if args.preset:
        doc.update(PRESETS[args.preset])
    if args.config:
        loaded = _read_json(args.config)
        if not isinstance(loaded, dict):
            raise ConfigError(f"config must be a JSON object, got {type(loaded).__name__}")
        doc.update(loaded)
    if not doc:
        raise ConfigError("need --config or --preset")
    for key in ("method", "series", "order", "shots", "seed", "mitigation", "steps", "check", "check_tol"):
        if getattr(args, key) is not None:
            doc[key] = getattr(args, key)
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
    prep = kraus.prepare(spec.model)
    doc = {"model": spec.key, "report": prep.report, "structure": prep.structure}
    text = json.dumps(to_doc(doc), indent=2, sort_keys=True)
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
    if config.check or config.check_tol is not None:  # a tolerance turns the check on
        # the step with the least slack; when every bound is infinite, the largest distance
        t, distance, bound = max(checks, key=lambda check: (check[1] - check[2], check[1]))
        if distance > bound:
            print(
                f"check failed at t={t:.6g}: trace distance {distance:.3e} exceeds bound {bound:.3e}",
                file=sys.stderr,
            )
            return 3
        if config.method == "exact":
            print("check cannot fail: the exact method is the oracle, so it is compared with itself at every step")
        elif bound == np.inf:
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
        "terms": len(series.rows),
        "truncation_order": series.truncation_order,
        "tail_bound": series.tail_bound,
    }
    if args.state:
        summary["output_trace"] = float(np.trace(kraus.apply_series(series, _named_state(args.state).density())).real)
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
    doc = _read_json(args.pairs)
    pairs = doc.get("pairs") if isinstance(doc, dict) else None
    if not isinstance(pairs, list) or not all(isinstance(pair, list) and len(pair) == 2 for pair in pairs):
        raise ConfigError(f"{args.pairs} must hold {{'pairs': [[exact, noisy], ...]}}")
    pairs = [(from_doc(np.ndarray, exact), from_doc(np.ndarray, noisy)) for exact, noisy in pairs]
    if any(mat.ndim != 2 for pair in pairs for mat in pair):
        raise ConfigError(f"{args.pairs}: each matrix must be a list of rows of [re, im] pairs")
    if args.channel == "pauli":
        channel, report = mitigation.fit_pauli_channel(pairs)
        payload = {"channel": channel, "report": report}
    else:
        lam = mitigation.fit_qdc_lambda(pairs, args.strategy)
        channel = mitigation.DepolarizingChannel(qubit_count(len(pairs[0][0]), "density matrix dimension"), lam)
        payload = {"channel": channel}
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

    model_args = argparse.ArgumentParser(add_help=False)
    model_args.add_argument("--model", required=True, choices=models.MODEL_KEYS)
    model_args.add_argument("--param", action="append", metavar="KEY=VALUE")

    check = sub.add_parser("check", parents=[model_args], help="condition and group-structure report")
    check.add_argument("--out")
    check.set_defaults(func=_cmd_check)

    presets = sub.add_parser("presets", help="list experiment presets")
    presets.set_defaults(func=_cmd_presets)

    kraus_cmd = sub.add_parser("kraus", parents=[model_args], help="build and optionally apply a series")
    kraus_cmd.add_argument("--time", type=float, required=True)
    kraus_cmd.add_argument("--order", type=int, default=3)
    kraus_cmd.add_argument("--series", choices=("auto", "reduced", "truncated"), default="auto")
    kraus_cmd.add_argument("--state")
    kraus_cmd.add_argument("--out")
    kraus_cmd.set_defaults(func=_cmd_kraus)

    circuit = sub.add_parser("circuit", parents=[model_args], help="export term or group circuits as JSON")
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
    experiment.add_argument("--check", action="store_true", default=None)
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
