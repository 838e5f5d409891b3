import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import kraussim
from kraussim import analysis, circuits, cli, kraus, lindblad, mitigation as mit, models
from kraussim.matkernel import pauli_string_matrix, to_doc

from conftest import random_density


def run(args):
    return cli.main([str(a) for a in args])


def test_config_validation_errors():
    with pytest.raises(cli.ConfigError):
        cli.ExperimentConfig(model="pauli-xx-zz", state="pauli-xx-zz", method="warp")
    with pytest.raises(cli.ConfigError):
        cli.ExperimentConfig(model="pauli-xx-zz", state="pauli-xx-zz", t_start=2.0, t_stop=1.0)
    for start, stop in ((float("nan"), 1.0), (0.0, float("nan")), (0.0, float("inf"))):
        with pytest.raises(cli.ConfigError, match="finite times"):
            cli.ExperimentConfig(model="pauli-xx-zz", state="pauli-xx-zz", t_start=start, t_stop=stop)
    with pytest.raises(cli.ConfigError, match="trotter_steps must be >= 1"):
        cli.ExperimentConfig(model="pauli-xx-zz", state="pauli-xx-zz", method="trotter", trotter_steps=0)
    with pytest.raises(cli.ConfigError):
        cli.ExperimentConfig(model="pauli-xx-zz", state="pauli-xx-zz", method="kraus-circuit-shots")
    with pytest.raises(cli.ConfigError):
        cli.ExperimentConfig.from_dict({"model": "m", "state": "s", "bogus": 1})
    for tol in (float("nan"), float("inf"), -1.0):
        with pytest.raises(cli.ConfigError):
            cli.ExperimentConfig(model="pauli-xx-zz", state="pauli-xx-zz", check=True, check_tol=tol)
    # the factored circuit traces its ancillas out, so it has nothing to sample
    with pytest.raises(cli.ConfigError):
        cli.ExperimentConfig(
            model="pauli-xx-zz", state="pauli-xx-zz", method="kraus-circuit-shots", shots=16, series="factored"
        )
    with pytest.raises(cli.ConfigError):
        cli.ExperimentConfig.from_dict({"model": "pauli-xx-zz", "state": "pauli-xx-zz", "circuit": "group"})


def test_main_exit_code_on_bad_config(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"model": "no-such-model", "state": "pauli-xx-zz"}))
    assert run(["experiment", "--config", cfg, "--out", tmp_path / "out"]) == 2


BASE_CONFIG = {"model": "pauli-xx-zz", "state": "pauli-xx-zz", "steps": 2}

# (config, the field its error names): typos and gaps inside the time and noise blocks
BLOCK_FIELD_ERRORS = [
    ({**BASE_CONFIG, "time": {"start": 0, "stop": 2, "step": 5}}, "step"),
    ({**BASE_CONFIG, "noise": {"kind": "qdc", "lambda": 0.2, "lamda": 3}}, "lamda"),
    ({**BASE_CONFIG, "noise": {"kind": "qdc"}}, "lambda"),
]


@pytest.mark.parametrize(
    "config",
    [
        [1, 2],
        {**BASE_CONFIG, "time": [0, 1, 3]},
        {**BASE_CONFIG, "noise": "qdc"},
        {**BASE_CONFIG, "model_params": [1]},
        {**BASE_CONFIG, "model_params": {"gammas": 1}},
        {"model": "qho-damped", "state": "qho-oscillating", "steps": 2, "model_params": {"n_max": 2.5}},
        # model_params only parametrize registry models; next to an inline sigma-minus model they are refused
        {
            "model": {
                "hamiltonian": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
                "lindblads": [[[[0, 0], [1, 0]], [[0, 0], [0, 0]]]],
                "gammas": [1.0],
            },
            "state": [[1, 0], [0, 0]],
            "steps": 2,
            "model_params": {"gamma": 5, "n_max": "junk"},
        },
        {**BASE_CONFIG, "outputs": 5},
        {**BASE_CONFIG, "outputs": [5]},
        # a bare string is not read one character at a time
        {**BASE_CONFIG, "outputs": "populations"},
        *(config for config, _field in BLOCK_FIELD_ERRORS),
    ],
)
def test_malformed_config_exits_2(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run(["experiment", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("config, name", BLOCK_FIELD_ERRORS, ids=["time-step", "noise-lamda", "noise-no-lambda"])
def test_block_field_errors_name_the_field(tmp_path, capsys, config, name):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run(["experiment", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert f"'{name}'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["experiment", "--config", "{dir}", "--out", "{dir}/o"],
        ["experiment", "--preset", "pauli-xx-zz", "--out", "{file}"],
        ["mitigate", "--pairs", "{dir}"],
    ],
    ids=["config-is-a-directory", "out-is-a-file", "pairs-is-a-directory"],
)
def test_file_system_errors_exit_2(tmp_path, capsys, argv):
    (tmp_path / "file").write_text("")
    assert run([arg.format(dir=tmp_path, file=tmp_path / "file") for arg in argv]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--model", "qho-damped", "--param", "n_max=2.5"],
        ["kraus", "--model", "qho-damped", "--time", 1.0, "--param", "n_max=2.5"],
        ["circuit", "--model", "pauli-xx-zz", "--time", 0.5, "--param", "gammas=1"],
    ],
)
def test_wrong_typed_model_param_exits_2(capsys, argv):
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_main_exit_code_on_unknown_state(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"model": "pauli-xx-zz", "state": "missing"}))
    assert run(["experiment", "--config", cfg, "--out", tmp_path / "out"]) == 2


@pytest.mark.parametrize(
    "fields",
    [
        {"steps": 2.5},
        {"order": 2.5, "method": "kraus"},
        {"trotter_steps": 4.5, "method": "trotter"},
        {"shots": 10.5},
        {"seed": 7.5},
        {"steps": True},
        {"order": True, "method": "kraus"},
    ],
)
def test_integer_config_fields_are_type_checked(tmp_path, capsys, fields):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "pauli-xx-zz", "state": "pauli-xx-zz", "steps": 2, **fields}))
    assert run(["experiment", "--config", cfg, "--out", tmp_path / "out"]) == 2
    assert "must be an integer" in capsys.readouterr().err


def test_kraus_unknown_state_names_the_key(capsys):
    assert run(["kraus", "--model", "pauli-xx-zz", "--time", 0.5, "--state", "nope"]) == 2
    assert "unknown state key 'nope'" in capsys.readouterr().err


def test_module_entry_point_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(Path(kraussim.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "kraussim.cli", "presets"], capture_output=True, text=True, env=env, check=True
    )
    for name in cli.PRESETS:
        assert name in proc.stdout


def test_check_subcommand(tmp_path, capsys):
    assert run(["check", "--model", "qho-damped", "--out", tmp_path / "report.json"]) == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["conditions"] == {"i": True, "ii": True, "iii": True, "iv": True}
    assert doc["alpha"] == pytest.approx(1.0, abs=1e-10)
    assert doc["f_kind"] == "saturating"
    assert doc["group_structure"]["periods"] == [4]


def test_presets_listing(capsys):
    assert run(["presets"]) == 0
    out = capsys.readouterr().out
    for name in cli.PRESETS:
        assert name in out


def test_experiment_preset_check_passes(tmp_path, capsys):
    assert run([
        "experiment", "--preset", "pauli-xx-zz", "--check", "--out", tmp_path / "out"
    ]) == 0
    assert (tmp_path / "out" / "trajectory.csv").exists()
    assert (tmp_path / "out" / "states.npy").exists()
    rows = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    assert rows[0].split(",")[:3] == ["t", "fidelity", "entropy"]
    assert len(rows) == 22
    header = rows[0].split(",")
    first = dict(zip(header, rows[1].split(",")))
    assert float(first["pauli:IZ"]) == pytest.approx(-1.0, abs=1e-9)
    assert float(first["pauli:ZZ"]) == pytest.approx(0.28, abs=1e-9)


def _row_count(outdir):
    return len((outdir / "trajectory.csv").read_text().splitlines()) - 1


def test_steps_flag_overrides_top_level_config_steps(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"model": "pauli-xx-zz", "state": "pauli-xx-zz", "steps": 5, "method": "exact"})
    )
    assert run(["experiment", "--config", cfg, "--steps", 9, "--out", tmp_path / "out"]) == 0
    assert _row_count(tmp_path / "out") == 9


def test_steps_flag_leaves_presets_untouched(tmp_path):
    assert run(["experiment", "--preset", "pauli-xx-zz", "--steps", 3, "--out", tmp_path / "a"]) == 0
    assert run(["experiment", "--preset", "pauli-xx-zz", "--out", tmp_path / "b"]) == 0
    assert _row_count(tmp_path / "a") == 3
    assert _row_count(tmp_path / "b") == 21


@pytest.mark.parametrize(
    "method, steps", [("exact", 40), ("trotter", 40), ("kraus", 40), ("kraus-circuit", 3)]
)
def test_model_invariant_work_runs_once_per_experiment(tmp_path, monkeypatch, method, steps):
    prepared = ("check_conditions", "detect_group_structure", "normalize_lindblads", "sznagy_dilation")
    builders = ("series_trajectory", "build_series", "build_reduced_series", "build_tp_series")
    calls = dict.fromkeys([*prepared, *builders, "_shifted_generator"], 0)

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)

        return wrapper

    for module in (lindblad, kraus, circuits):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "model": "qho-damped",
                "state": "qho-oscillating",
                "time": {"start": 0.0, "stop": 2.0, "steps": steps},
                "method": method,
            }
        )
    )
    assert run(["experiment", "--config", cfg, "--out", tmp_path / "out"]) == 0
    assert _row_count(tmp_path / "out") == steps
    # the oracle builds its generator once; the Kraus methods prepare (and dilate
    # the model's one jump operator) once and enter the series builder once over
    # the whole grid, the other methods prepare nothing
    kraus_method = method.startswith("kraus")
    want = {**dict.fromkeys(prepared, int(kraus_method)), **dict.fromkeys(builders, 0)}
    want["series_trajectory"] = int(kraus_method)
    # the oracle builds its matrix-free generator once; the trotter method also builds
    # the two parts of its split once
    want["_shifted_generator"] = 3 if method == "trotter" else 1
    assert calls == want


def test_output_operators_are_built_once_per_experiment(tmp_path, monkeypatch):
    labels = []

    def counted(label):
        labels.append(label)
        return pauli_string_matrix(label)

    monkeypatch.setattr(cli, "pauli_string_matrix", counted)
    assert run(["experiment", "--preset", "pauli-xx-zz", "--steps", 40, "--out", tmp_path / "out"]) == 0
    assert _row_count(tmp_path / "out") == 40
    assert labels == ["ZI", "IZ", "ZZ"]


def test_experiment_check_tol_failure(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "model": "qho-damped",
                "state": "qho-oscillating",
                "time": {"start": 0.0, "stop": 1.0, "steps": 3},
                "method": "trotter",
                "trotter_steps": 4,
                "trotter_split": "effective-jump",
            }
        )
    )
    assert run([
        "experiment", "--config", cfg, "--check", "--check-tol", "1e-12", "--out", tmp_path / "o"
    ]) == 3


@pytest.mark.parametrize("method", ["exact", "trotter"])
def test_experiment_refuses_a_time_step_too_long_to_propagate(tmp_path, capsys, method):
    # the oracle, which runs beside every method, refuses the step first; test_lindblad holds
    # each integrator to the same limit on its own
    cfg = tmp_path / "cfg.json"
    doc = {"model": "qho-damped", "state": "qho-oscillating", "time": {"stop": 1e9, "steps": 2}, "method": method}
    cfg.write_text(json.dumps(doc))
    assert run(["experiment", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert "error: evolution time 1e+09 is too long for one step" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["trotter", "kraus-circuit-shots"])
def test_experiment_check_says_when_no_finite_bound_exists(tmp_path, capsys, method):
    argv = [
        "experiment", "--preset", "qho-damped", "--method", method, "--steps", 3, "--check", "--out", tmp_path / "o",
    ]
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert f"check cannot fail: no finite bound exists for method {method}; largest trace distance" in out
    assert "inf" not in out


def test_experiment_check_holds_each_step_to_its_own_bound(tmp_path, capsys):
    # the order-2 tail bound grows from 1e-9 at t=0 and is clipped at 1 from
    # t~0.74 on; the 0.21 distance at t=3 is inside its own bound, not inside the t=0 one
    argv = [
        "experiment", "--preset", "qho-damped", "--method", "kraus", "--series", "truncated",
        "--order", 2, "--check", "--out", tmp_path / "o",
    ]
    assert run(argv) == 0
    assert "check passed: least slack at t=0," in capsys.readouterr().out
    assert run([*argv, "--check-tol", "1e-3"]) == 3
    assert "check failed at t=3: trace distance 2.145e-01 exceeds bound 1.000e-03" in capsys.readouterr().err


def test_kraus_check_fails_on_a_corrupted_weight(tmp_path, capsys, monkeypatch):
    real = kraus.series_trajectory

    def corrupted(model, ts, variant, order):
        for index, series in enumerate(real(model, ts, variant, order)):
            if index == 5:
                term = series.terms[0]
                terms = (dataclasses.replace(term, weight=1.001 * term.weight), *series.terms[1:])
                series = dataclasses.replace(series, terms=terms)
            yield series

    monkeypatch.setattr(kraus, "series_trajectory", corrupted)
    assert run(["experiment", "--preset", "pauli-xx-zz", "--check", "--out", tmp_path / "o"]) == 3
    assert "check failed at t=0.5:" in capsys.readouterr().err


@pytest.mark.parametrize("entry", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
def test_non_finite_oracle_state_fails_the_check(tmp_path, capsys, monkeypatch, entry):
    real = cli.exact_trajectory

    def corrupted(*args):
        for index, state in enumerate(real(*args)):
            if index == 5:
                matrix = state.matrix.copy()
                matrix[entry] = np.nan
                state = SimpleNamespace(matrix=matrix)  # a DensityMatrix refuses NaN
            yield state

    monkeypatch.setattr(cli, "exact_trajectory", corrupted)
    assert run(["experiment", "--preset", "pauli-xx-zz", "--check", "--out", tmp_path / "o"]) == 3
    assert "non-finite state at t=0.5" in capsys.readouterr().err
    assert not (tmp_path / "o" / "states.npy").exists()
    assert not (tmp_path / "o" / "run.json").exists()


def test_cli_import_leaves_scipy_out():
    env = dict(os.environ, PYTHONPATH=str(Path(kraussim.__file__).parents[1]))
    code = "import sys, kraussim.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "[]"


def test_kraus_circuit_factored_series_runs_the_group_circuit(tmp_path, capsys):
    argv = [
        "experiment", "--preset", "pauli-xx-zz", "--method", "kraus-circuit", "--series", "factored",
        "--steps", 5, "--check", "--out", tmp_path / "o",
    ]
    assert run(argv) == 0
    assert "check passed" in capsys.readouterr().out
    assert _row_count(tmp_path / "o") == 5


def test_experiment_condition_failure_exit_code(tmp_path):
    # transverse Hamiltonian with a lowering jump operator violates (i)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "model": {
                    "hamiltonian": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]],
                    "lindblads": [[[[0, 0], [1, 0]], [[0, 0], [0, 0]]]],
                    "gammas": [1.0],
                },
                "state": [[1, 0], [0, 0]],
                "time": {"start": 0.0, "stop": 1.0, "steps": 2},
                "method": "kraus",
            }
        )
    )
    assert run(["experiment", "--config", cfg, "--out", tmp_path / "o"]) == 3
    assert not (tmp_path / "o" / "states.npy").exists()
    assert not (tmp_path / "o" / "run.json").exists()
    assert not (tmp_path / "o" / "trajectory.csv").exists()


def _one_qubit_record():
    mat = np.eye(2) / 2
    return cli.TrajectoryRecord(0, 0.0, mat, mat, 1.0, 0.0, {}, [], {"wigner": np.zeros((3, 3))}, 0.0, 0.0)


def test_emit_report_removes_partial_outputs(tmp_path):
    def records():
        yield _one_qubit_record()
        raise RuntimeError("step 1 failed")

    with pytest.raises(RuntimeError, match="step 1 failed"):
        cli.emit_report(records(), tmp_path / "out", 2)
    assert not (tmp_path / "out" / "states.npy").exists()
    assert not (tmp_path / "out" / "run.json").exists()
    assert not [path for path in (tmp_path / "out").rglob("*") if path.is_file()]


def test_emit_report_refuses_fewer_records_than_steps(tmp_path):
    # the states.npy header announces `steps` records, so a short stream must leave no file
    with pytest.raises(ValueError, match="expected 3 records, got 1"):
        cli.emit_report(iter([_one_qubit_record()]), tmp_path / "out", 3)
    assert not [path for path in (tmp_path / "out").rglob("*") if path.is_file()]


@pytest.mark.parametrize(
    "model_doc",
    [
        # the codec rejects keys that are not LindbladModel fields
        {"dim": 2, "hamiltonian": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]], "lindblads": [], "gammas": []},
        # matrices must be given as [re, im] pairs
        {"hamiltonian": [[0, 1], [1, 0]], "lindblads": [], "gammas": []},
    ],
)
def test_invalid_inline_model_exits_2(tmp_path, model_doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": model_doc, "state": [[1, 0], [0, 0]], "steps": 2}))
    assert run(["experiment", "--config", cfg, "--out", tmp_path / "o"]) == 2


def test_experiment_rerun_is_byte_identical(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "model": "qho-damped",
                "state": "qho-oscillating",
                "time": {"start": 0.0, "stop": 1.0, "steps": 3},
                "method": "kraus-circuit-shots",
                "order": 3,
                "shots": 64,
                "seed": 11,
                "outputs": ["quadratures", "wigner"],
            }
        )
    )
    assert run(["experiment", "--config", cfg, "--out", tmp_path / "a"]) == 0
    assert run(["experiment", "--config", cfg, "--out", tmp_path / "b"]) == 0

    def tree(root):
        return sorted(path.relative_to(root) for path in root.rglob("*") if path.is_file())

    files = tree(tmp_path / "a")
    assert len(files) == 8 and tree(tmp_path / "b") == files
    for name in files:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_experiment_single_step_degenerate(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "model": "pauli-xx-zz",
                "state": "pauli-xx-zz",
                "time": {"start": 0.0, "stop": 0.0, "steps": 1},
                "method": "kraus",
            }
        )
    )
    assert run(["experiment", "--config", cfg, "--out", tmp_path / "out"]) == 0
    rows = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    assert len(rows) == 2
    record = dict(zip(rows[0].split(","), rows[1].split(",")))
    assert float(record["fidelity"]) == pytest.approx(1.0, abs=1e-12)


def test_experiment_field_outputs(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "model": "qho-damped",
                "state": "qho-oscillating",
                "time": {"start": 0.0, "stop": 0.5, "steps": 2},
                "method": "exact",
                "outputs": ["position-density", "momentum-density", "wigner"],
            }
        )
    )
    assert run(["experiment", "--config", cfg, "--out", tmp_path / "out"]) == 0
    fields_dir = tmp_path / "out" / "fields"
    names = ("position-density", "momentum-density", "wigner")
    expected = {"x.npy", "p.npy"} | {f"step{i:03d}_{name}.npy" for i in range(2) for name in names}
    assert {path.name for path in fields_dir.iterdir()} == expected
    grid = analysis.default_grid()
    x, p = np.load(fields_dir / "x.npy"), np.load(fields_dir / "p.npy")
    assert x.dtype == p.dtype == np.float64
    assert np.array_equal(x, grid.x) and np.array_equal(p, grid.p)
    for i in range(2):
        position = np.load(fields_dir / f"step{i:03d}_position-density.npy")
        momentum = np.load(fields_dir / f"step{i:03d}_momentum-density.npy")
        wigner = np.load(fields_dir / f"step{i:03d}_wigner.npy")
        assert position.dtype == momentum.dtype == wigner.dtype == np.float64
        assert position.shape == momentum.shape == (x.size,)
        assert wigner.shape == (x.size, p.size)
        assert np.trapezoid(position, x) == pytest.approx(1.0, abs=1e-6)
        assert np.trapezoid(momentum, p) == pytest.approx(1.0, abs=1e-6)
        assert np.trapezoid(np.trapezoid(wigner, p, axis=1), x) == pytest.approx(1.0, abs=1e-6)


def _write_config(tmp_path, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    return cfg


NOISY_KRAUS_CONFIG = {
    "model": "pauli-xx-zz",
    "state": "pauli-xx-zz",
    "time": {"start": 0.0, "stop": 1.0, "steps": 4},
    "method": "kraus",
    "noise": {"kind": "qdc", "lambda": 0.1},
    "mitigation": "qdc",
    "outputs": ["populations"],
}


def test_states_npy_holds_each_records_raw_and_mitigated_matrix(tmp_path):
    records = list(cli.run_experiment(cli.ExperimentConfig.from_dict(NOISY_KRAUS_CONFIG)))
    assert run(["experiment", "--config", _write_config(tmp_path, NOISY_KRAUS_CONFIG), "--out", tmp_path / "o"]) == 0
    states = np.load(tmp_path / "o" / "states.npy")
    assert states.dtype == np.complex128 and states.shape == (4, 2, 4, 4)
    want = np.stack([np.stack([record.raw, record.mitigated]) for record in records]).astype(np.complex128)
    assert states.tobytes() == want.tobytes()
    assert not np.array_equal(states[:, 0], states[:, 1])  # the noise and its inversion both show


@pytest.mark.parametrize(
    "method, extra",
    [("kraus", {}), ("kraus-circuit-shots", {"shots": 64, "seed": 3})],
    ids=["kraus", "kraus-circuit-shots"],
)
def test_run_json_has_one_entry_per_trajectory_row(tmp_path, method, extra):
    doc = {
        "model": "qho-damped",
        "state": "qho-oscillating",
        "time": {"start": 0.0, "stop": 1.0, "steps": 3},
        "method": method,
        "order": 3,
        **extra,
    }
    records = list(cli.run_experiment(cli.ExperimentConfig.from_dict(doc)))
    assert run(["experiment", "--config", _write_config(tmp_path, doc), "--out", tmp_path / "o"]) == 0
    steps = json.loads((tmp_path / "o" / "run.json").read_text())["steps"]
    rows = (tmp_path / "o" / "trajectory.csv").read_text().splitlines()[1:]
    assert len(steps) == len(rows) == 3
    keys = {"order", "indices", "weight"} | ({"survival"} if method == "kraus-circuit-shots" else set())
    for entry, row, record in zip(steps, rows, records):
        assert set(entry) == {"t", "diagnostics"}
        assert entry["t"] == float(row.split(",")[0]) == record.t
        assert entry["diagnostics"] == record.diagnostics and entry["diagnostics"]
        for term in entry["diagnostics"]:
            assert set(term) == keys


def test_kraus_rerun_is_byte_identical(tmp_path):
    cfg = _write_config(tmp_path, NOISY_KRAUS_CONFIG)
    assert run(["experiment", "--config", cfg, "--out", tmp_path / "a"]) == 0
    assert run(["experiment", "--config", cfg, "--out", tmp_path / "b"]) == 0
    names = sorted(path.name for path in (tmp_path / "a").iterdir())
    assert names == ["run.json", "states.npy", "trajectory.csv"]
    assert sorted(path.name for path in (tmp_path / "b").iterdir()) == names
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("series, method", [("reduced", "kraus"), ("factored", "kraus"), ("factored", "kraus-circuit")])
def test_series_weight_overflow_exits_3(tmp_path, capsys, series, method):
    # gamma*f(t) = 800 at the last point: exp(800) is beyond the float range
    doc = {
        "model": "pauli-xx-zz",
        "state": "pauli-xx-zz",
        "time": {"stop": 800, "steps": 3},
        "method": method,
        "series": series,
    }
    assert run(["experiment", "--config", _write_config(tmp_path, doc), "--out", tmp_path / "o"]) == 3
    assert "Kraus weights overflow at t=800: gamma*f(t) = 800" in capsys.readouterr().err
    assert not [path for path in (tmp_path / "o").rglob("*") if path.is_file()]


def test_kraus_subcommand(tmp_path, capsys):
    out_file = tmp_path / "series.json"
    assert run([
        "kraus", "--model", "qho-damped", "--time", 1.0, "--order", 3,
        "--state", "qho-oscillating", "--out", out_file,
    ]) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["terms"] == 4
    assert summary["tail_bound"] == 0.0
    assert summary["output_trace"] == pytest.approx(1.0, abs=1e-9)
    doc = json.loads(out_file.read_text())
    assert len(doc["terms"]) == 4


def test_circuit_subcommand(tmp_path):
    out_file = tmp_path / "circuits.json"
    assert run([
        "circuit", "--model", "pauli-xx-zz", "--time", 0.5, "--group", "--out", out_file
    ]) == 0
    doc = json.loads(out_file.read_text())
    assert len(doc["circuits"]) == 1
    assert doc["circuits"][0]["num_ancilla_qubits"] == 4
    assert run([
        "circuit", "--model", "qho-damped", "--time", 0.5, "--out", out_file
    ]) == 0
    doc = json.loads(out_file.read_text())
    assert len(doc["circuits"]) == 4


def test_mitigate_subcommand(tmp_path, rng, capsys):
    channel = mit.DepolarizingChannel(2, 0.3)
    pairs = []
    for _ in range(4):
        rho = random_density(rng, 4)
        noisy = mit.apply_qdc(channel, rho).matrix
        pairs.append([to_doc(rho), to_doc(noisy)])
    pairs_file = tmp_path / "pairs.json"
    pairs_file.write_text(json.dumps({"pairs": pairs}))
    out_file = tmp_path / "fit.json"
    assert run([
        "mitigate", "--pairs", pairs_file, "--channel", "qdc", "--apply", "--out", out_file
    ]) == 0
    doc = json.loads(out_file.read_text())
    assert doc["channel"]["lambda"] == pytest.approx(0.3, abs=1e-3)
    assert len(doc["mitigated"]) == 4
    assert run(["mitigate", "--pairs", pairs_file, "--channel", "pauli"]) == 0
    fit = json.loads(capsys.readouterr().out)
    eps = np.array(fit["channel"]["epsilons"])
    assert eps[0] == pytest.approx(1 - 0.3 + 0.3 / 16, abs=1e-4)


def test_mitigate_rejects_unpaired_matrices(tmp_path, capsys):
    pairs_file = tmp_path / "pairs.json"
    pairs_file.write_text(json.dumps({"pairs": [[[[1, 0], [0, 0]], [[1, 0], [0, 0]]]]}))
    assert run(["mitigate", "--pairs", pairs_file]) == 2
    assert "[re, im] pairs" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [[1, 2], {"pairs": 5}])
def test_mitigate_rejects_malformed_pairs_file(tmp_path, capsys, doc):
    pairs_file = tmp_path / "pairs.json"
    pairs_file.write_text(json.dumps(doc))
    assert run(["mitigate", "--pairs", pairs_file]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "state, unidentified",
    [
        # |0> (x) real qubit state: Tr(Q rho) vanishes on the 10 strings with X or Y on qubit 0 or Y on qubit 1
        (models.benchmark_initial_states()["pauli-xx-zz"].density().matrix, 10),
        (random_density(np.random.default_rng(3), 4), 0),
    ],
)
def test_mitigate_pauli_reports_unidentified_strings(tmp_path, capsys, state, unidentified):
    pairs_file = tmp_path / "pairs.json"
    pairs_file.write_text(json.dumps({"pairs": [[to_doc(state), to_doc(state)]]}))
    assert run(["mitigate", "--pairs", pairs_file, "--channel", "pauli"]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["unidentified"] == unidentified


@pytest.mark.parametrize("channel", ["qdc", "pauli"])
def test_mitigate_rejects_non_qubit_dimension(tmp_path, capsys, channel):
    rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
    pairs_file = tmp_path / "pairs.json"
    pairs_file.write_text(json.dumps({"pairs": [[to_doc(rho), to_doc(rho)]]}))
    assert run(["mitigate", "--pairs", pairs_file, "--channel", channel]) == 2
    assert "must be a power of two, got 3" in capsys.readouterr().err


def test_kraus_reduced_without_structure_exits_3(tmp_path):
    assert run([
        "kraus", "--model", "schwinger-jz", "--time", 1.0, "--series", "reduced"
    ]) == 3


def test_noise_injection_and_mitigation_round_trip(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "model": "qho-damped",
                "model_params": {"gamma": 0.6},
                "state": "qho-cat",
                "time": {"start": 0.0, "stop": 2.0, "steps": 5},
                "method": "kraus",
                "order": 3,
                "noise": {"kind": "qdc", "lambda": 0.35},
                "mitigation": "twirl-qdc",
                "outputs": ["parity"],
            }
        )
    )
    assert run(["experiment", "--config", cfg, "--out", tmp_path / "out"]) == 0
    rows = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    header = rows[0].split(",")
    for line in rows[1:]:
        record = dict(zip(header, line.split(",")))
        assert float(record["fidelity"]) > 0.99
