import dataclasses
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import kraussim
from kraussim import analysis, circuits, cli, kraus, lindblad, matkernel as mk, mitigation as mit, models
from kraussim.matkernel import DensityMatrix, from_doc, pauli_string_matrix, to_doc

from conftest import haar_rotated, haar_unitary, random_density


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
    # out-of-range integers are refused up front, naming their field
    for name, value in (("seed", -1), ("steps", 0), ("order", -1)):
        with pytest.raises(cli.ConfigError, match=f"^{name} must be >= "):
            cli.ExperimentConfig(model="pauli-xx-zz", state="pauli-xx-zz", **{name: value})


def test_main_exit_code_on_bad_config(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"model": "no-such-model", "state": "pauli-xx-zz"}))
    assert run(["experiment", "--config", cfg, "--out", tmp_path / "out"]) == 2


BASE_CONFIG = {"model": "pauli-xx-zz", "state": "pauli-xx-zz", "steps": 2}

QHO_CONFIG = {"model": "qho-damped", "state": "qho-oscillating", "steps": 2}

SCHWINGER_CONFIG = {"model": "schwinger-jz", "state": "schwinger-jz", "steps": 2}

KRAUS_CONFIG = {**BASE_CONFIG, "method": "kraus"}


def _sigma_minus_config(rate):
    """An inline one-qubit model with the one jump operator |0><1| at ``rate``."""
    return {
        "model": {
            "hamiltonian": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
            "lindblads": [[[[0, 0], [1, 0]], [[0, 0], [0, 0]]]],
            "gammas": [rate],
        },
        "state": [[1, 0], [0, 0]],
        "steps": 2,
    }


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
        {**QHO_CONFIG, "model_params": {"n_max": 2.5}},
        # model_params only parametrize registry models; next to an inline sigma-minus model they are refused
        {**_sigma_minus_config(1.0), "model_params": {"gamma": 5, "n_max": "junk"}},
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


# id -> (config, the error it exits 2 with)
REFUSED_CONFIGS = {
    "unknown-series": ({**BASE_CONFIG, "series": "nope"}, "unknown series variant 'nope'"),
    "unknown-mitigation": ({**BASE_CONFIG, "mitigation": "nope"}, "unknown mitigation 'nope'"),
    "unknown-trotter-split": ({**BASE_CONFIG, "trotter_split": "nope"}, "unknown trotter split 'nope'"),
    "no-state": ({"model": "pauli-xx-zz", "steps": 2}, "missing 1 required positional argument: 'state'"),
    "non-numeric-amplitudes": (
        {**BASE_CONFIG, "state": [["a", 0], [0, 0], [0, 0], [1, 0]]},
        "invalid state amplitudes: complex() can't take second arg if first is a string",
    ),
    "amplitudes-not-pairs": (
        {**BASE_CONFIG, "state": [1, 0, 0, 0]},
        "invalid state amplitudes: a complex number must be an [re, im] pair, got 1",
    ),
    "amplitude-of-three-numbers": (
        {**BASE_CONFIG, "state": [[1, 0, 0], [0, 0], [0, 0], [0, 0]]},
        "invalid state amplitudes: a complex number must be an [re, im] pair, got [1, 0, 0]",
    ),
    "zero-state": (
        {**BASE_CONFIG, "state": [[0, 0], [0, 0], [0, 0], [0, 0]]},
        "invalid state amplitudes: their norm 0.0 must be finite and nonzero",
    ),
    "non-finite-state": (
        {**BASE_CONFIG, "state": [[float("nan"), 0], [0, 0], [0, 0], [1, 0]]},
        "invalid state amplitudes: their norm nan must be finite and nonzero",
    ),
    "empty-state": ({**BASE_CONFIG, "state": []}, "invalid state amplitudes: their norm 0.0 must be finite and nonzero"),
    "state-of-wrong-dimension": (
        {**BASE_CONFIG, "state": [[1, 0], [0, 0]]},
        "state dimension 2 does not match model dimension 4",
    ),
    "pauli-label-of-wrong-length": (
        {**BASE_CONFIG, "outputs": ["pauli:ZZZ"]},
        "Pauli label 'ZZZ' does not match the dimension",
    ),
    "quadratures-of-a-qubit-model": ({**BASE_CONFIG, "outputs": ["quadratures"]}, "quadratures need a bosonic model"),
    "wigner-of-a-two-mode-model": (
        {**SCHWINGER_CONFIG, "outputs": ["wigner"]},
        "field outputs need a single-mode bosonic model",
    ),
    "unknown-output-token": ({**BASE_CONFIG, "outputs": ["bogus"]}, "unknown output token 'bogus'"),
    "nan-pauli-noise": (
        {**BASE_CONFIG, "noise": {"kind": "pauli", "epsilons": [float("nan")] + [1 / 15] * 15}},
        "coefficients must be finite",
    ),
    "nan-rate": (_sigma_minus_config(float("nan")), "invalid inline model: damping rate must be a finite real number, got nan"),
    "string-rate": (_sigma_minus_config("0.5"), "invalid inline model: damping rate must be a finite real number, got '0.5'"),
    "boolean-rate": (
        {**QHO_CONFIG, "model_params": {"gamma": True}},
        "damping rate must be a finite real number, got True",
    ),
    "boolean-n-max": ({**QHO_CONFIG, "model_params": {"gamma": True, "n_max": True}}, "n_max must be an integer, got True"),
    "fractional-n-max": ({**QHO_CONFIG, "model_params": {"n_max": 2.5}}, "n_max must be an integer, got 2.5"),
    # an integer past the float range is refused, not overflowed
    "huge-rate": (
        {**BASE_CONFIG, "model_params": {"gammas": [1, 1, 1, 10**400]}},
        f"damping rate must be a finite real number, got {10**400}",
    ),
    "boolean-omega": ({**QHO_CONFIG, "model_params": {"omega": True}}, "omega must be a finite real number, got True"),
    "string-omega": ({**SCHWINGER_CONFIG, "model_params": {"omega": "1"}}, "omega must be a finite real number, got '1'"),
    "integer-axis": ({**SCHWINGER_CONFIG, "model_params": {"axis": 1}}, "invalid axis 1"),
    # numbers are never parsed: a string or a bool is refused wherever a number enters
    "boolean-stop": ({**KRAUS_CONFIG, "time": {"stop": True}}, "times must hold numbers, got True"),
    "boolean-start": ({**KRAUS_CONFIG, "time": {"start": False}}, "times must hold numbers, got False"),
    "boolean-check-tol": ({**KRAUS_CONFIG, "check_tol": True}, "check_tol must be a finite real number, got True"),
    "string-lambda": (
        {**KRAUS_CONFIG, "noise": {"kind": "qdc", "lambda": "0.1"}},
        "lambda must be a finite real number, got '0.1'",
    ),
    "boolean-lambda": (
        {**KRAUS_CONFIG, "noise": {"kind": "qdc", "lambda": True}},
        "lambda must be a finite real number, got True",
    ),
    "string-epsilons": (
        {**KRAUS_CONFIG, "noise": {"kind": "pauli", "epsilons": ["1"] + ["0"] * 15}},
        "Pauli channel coefficients must hold numbers, got '1'",
    ),
    "boolean-epsilons": (
        {**KRAUS_CONFIG, "noise": {"kind": "pauli", "epsilons": [True] + [0] * 15}},
        "Pauli channel coefficients must hold numbers, got True",
    ),
    "nested-epsilons": (
        {**KRAUS_CONFIG, "noise": {"kind": "pauli", "epsilons": [[1.0] + [0.0] * 15]}},
        "need a vector of one coefficient per Pauli string, got shape (1, 16)",
    ),
    "boolean-amplitude": (
        {**KRAUS_CONFIG, "state": [[True, 0], [0, 0], [0, 0], [0, 0]]},
        "invalid state amplitudes: a complex number must hold numbers, got True",
    ),
    # past numpy's int64 counts, refused before any step runs rather than overflowed in the draw
    "shots-past-int64": (
        {**QHO_CONFIG, "method": "kraus-circuit-shots", "shots": 10**20},
        f"shot mode needs 1 <= shots <= {2**63 - 1}, got {10**20}",
    ),
    "huge-amplitude": (
        {**BASE_CONFIG, "state": [[10**400, 0], [0, 0], [0, 0], [0, 0]]},
        "invalid state amplitudes: a complex number must hold numbers within the float range",
    ),
    "string-matrix-entry": (
        {**_sigma_minus_config(1.0), "model": {**_sigma_minus_config(1.0)["model"], "hamiltonian": [[["0", 0], [0, 0]], [[0, 0], [0, 0]]]}},
        "invalid inline model: an array must hold numbers, got '0'",
    ),
}


@pytest.mark.parametrize("config, message", REFUSED_CONFIGS.values(), ids=REFUSED_CONFIGS)
def test_refused_config_exits_2_with_its_message(tmp_path, capsys, config, message):
    # refused before any warning, and without leaving the --out the run made
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["experiment", "--config", cfg, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--preset", "pauli-xx-zz", "--steps", 2, "--shots", 0], 2),
        # the preset's shots (1024) are in range, and the exact method leaves them unused
        (["--preset", "qho-damped", "--method", "exact", "--steps", 2], 0),
    ],
    ids=["kraus-with-zero-shots", "exact-with-the-presets-shots"],
)
def test_shots_are_range_checked_whatever_the_method(tmp_path, capsys, argv, code):
    assert run(["experiment", *argv, "--out", tmp_path / "o"]) == code
    if code == 2:
        assert capsys.readouterr().err == f"error: shot mode needs 1 <= shots <= {circuits.MAX_SHOTS}, got 0\n"


def test_failed_run_keeps_the_out_it_did_not_make(tmp_path, monkeypatch):
    # an existing empty --out, `.` and the parents of a new --out stay; only the --out the run made goes
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**BASE_CONFIG, "outputs": ["bogus"]}))
    (tmp_path / "empty").mkdir()
    assert run(["experiment", "--config", cfg, "--out", tmp_path / "empty"]) == 2
    assert list((tmp_path / "empty").iterdir()) == []
    assert run(["experiment", "--config", cfg, "--out", tmp_path / "new" / "o"]) == 2
    assert (tmp_path / "new").is_dir() and not (tmp_path / "new" / "o").exists()
    monkeypatch.chdir(tmp_path / "empty")
    assert run(["experiment", "--config", cfg, "--out", "."]) == 2
    assert list((tmp_path / "empty").iterdir()) == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (["experiment", "--out", "{dir}/o"], "need --config or --preset"),
        (["check", "--model", "pauli-xx-zz", "--param", "foo"], "--param expects key=value, got 'foo'"),
        # a negative order is refused whatever the series variant, here the reduced one that auto picks
        (["kraus", "--model", "qho-damped", "--time", "1", "--order", "-1"], "order must be nonnegative"),
        (["circuit", "--model", "qho-damped", "--time", "1", "--order", "-2"], "order must be nonnegative"),
    ],
    ids=[
        "experiment-without-config-or-preset",
        "check-param-without-value",
        "kraus-negative-order",
        "circuit-negative-order",
    ],
)
def test_refused_arguments_exit_2_with_their_message(tmp_path, capsys, argv, message):
    assert run([arg.format(dir=tmp_path) for arg in argv]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("config, name", BLOCK_FIELD_ERRORS, ids=["time-step", "noise-lamda", "noise-no-lambda"])
def test_block_field_errors_name_the_field(tmp_path, capsys, config, name):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run(["experiment", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert f"'{name}'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["experiment", "--config", "{dir}", "--out", "{dir}/o"], "{dir}"),
        (["experiment", "--preset", "pauli-xx-zz", "--out", "{file}"], "{file}"),
        (["mitigate", "--pairs", "{dir}"], "{dir}"),
        (["experiment", "--config", "{json}", "--out", "{dir}/o"], "{json} is not valid JSON: Expecting value"),
        (["mitigate", "--pairs", "{json}"], "{json} is not valid JSON: Expecting value"),
    ],
    ids=["config-is-a-directory", "out-is-a-file", "pairs-is-a-directory", "config-is-malformed", "pairs-is-malformed"],
)
def test_file_system_errors_exit_2(tmp_path, capsys, argv, named):
    # the error names the path it could not use
    (tmp_path / "file").write_text("")
    (tmp_path / "truncated.json").write_text('{"model": ')
    paths = {"dir": tmp_path, "file": tmp_path / "file", "json": tmp_path / "truncated.json"}
    assert run([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert named.format(**paths) in err


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


@pytest.mark.parametrize("time", ["inf", "nan"])
@pytest.mark.parametrize(
    "argv",
    [
        ["kraus", "--model", "qho-damped", "--series", "truncated"],
        ["kraus", "--model", "qho-damped", "--series", "truncated", "--state", "qho-oscillating"],
        ["circuit", "--model", "qho-damped"],
        ["circuit", "--model", "pauli-xx-zz", "--group"],
    ],
    ids=["kraus", "kraus-state", "circuit", "circuit-group"],
)
def test_non_finite_time_exits_2(capsys, argv, time):
    # an evolution time is a finite real number: no NaN series or pruned-away gates are printed
    assert run([*argv, "--time", time]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: evolution time must be a finite real number, got {time}\n"


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


# the ConditionReport fields of conditions i-iv
CONDITIONS = ("hamiltonian_commutes", "dissipators_commute", "ladder_constant_found", "damping_constant_found")


def test_check_subcommand(tmp_path, capsys):
    assert run(["check", "--model", "qho-damped", "--out", tmp_path / "report.json"]) == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert {name: doc["report"][name] for name in CONDITIONS} == dict.fromkeys(CONDITIONS, True)
    assert doc["report"]["alpha"] == pytest.approx(1.0, abs=1e-10)
    assert doc["report"]["f_kind"] == "saturating"
    assert doc["structure"]["periods"] == [4]


@pytest.mark.parametrize("axis", ["X", "Y"])
def test_check_schwinger_transverse_axes_meet_the_conditions(tmp_path, axis):
    for cutoff in (1, 2, 3):
        out = tmp_path / f"report-{cutoff}.json"
        argv = ["check", "--model", "schwinger-jz", "--param", f"axis={axis}", "--param", f"per_mode_cutoff={cutoff}"]
        assert run(argv + ["--out", out]) == 0
        report = json.loads(out.read_text())["report"]
        assert {name: report[name] for name in CONDITIONS} == dict.fromkeys(CONDITIONS, True)
        assert max(report["nu_residual"], report["lambda_residual"]) < 1e-14


@pytest.mark.parametrize("key", models.MODEL_KEYS)
def test_check_reports_the_prepared_models_decision(tmp_path, key):
    # every Kraus method of `experiment` acts on kraus.prepare's report and structure
    assert run(["check", "--model", key, "--out", tmp_path / "report.json"]) == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    prep = kraus.prepare(models.build_model(key).model)
    assert doc == to_doc({"model": key, "report": prep.report, "structure": prep.structure})
    assert sorted(doc["report"]) == sorted(f.name for f in dataclasses.fields(lindblad.ConditionReport))
    assert from_doc(lindblad.ConditionReport, doc["report"]) == prep.report


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


@pytest.mark.parametrize("outputs, builds", [(["quadratures", "wigner"], 1), (["quadratures"], 0)])
def test_wigner_grid_work_runs_once_per_experiment(tmp_path, monkeypatch, outputs, builds):
    built = []

    class CountedNodes(analysis.WignerNodes):
        def __init__(self, grid, dim):
            built.append(dim)
            super().__init__(grid, dim)

    monkeypatch.setattr(analysis, "WignerNodes", CountedNodes)
    doc = {
        "model": "qho-damped",
        "state": "qho-oscillating",
        "time": {"start": 0.0, "stop": 3.0, "steps": 19},
        "method": "exact",
        "outputs": outputs,
    }
    assert run(["experiment", "--config", _write_config(tmp_path, doc), "--out", tmp_path / "out"]) == 0
    assert _row_count(tmp_path / "out") == 19
    assert len(built) == builds


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


def test_experiment_check_says_the_exact_method_cannot_fail(tmp_path, capsys):
    # the exact method's state is the oracle, so its distance to the oracle is 0 by construction
    argv = ["experiment", "--preset", "pauli-xx-zz", "--method", "exact", "--steps", 3, "--check"]
    assert run([*argv, "--out", tmp_path / "o"]) == 0
    out = capsys.readouterr().out
    assert "check cannot fail: the exact method is the oracle, so it is compared with itself at every step" in out
    assert "check passed" not in out


def test_experiment_check_holds_each_step_to_its_own_bound(tmp_path, capsys):
    # the order-2 tail bound grows from 1e-9 at t=0 and is clipped at 1 from
    # t~0.74 on; the 0.21 distance at t=3 is inside its own bound, not inside the t=0 one
    argv = ["experiment", "--preset", "qho-damped", "--method", "kraus", "--series", "truncated", "--order", 2]
    assert run([*argv, "--check", "--out", tmp_path / "o"]) == 0
    assert "check passed: least slack at t=0," in capsys.readouterr().out
    failed = "check failed at t=3: trace distance 2.145e-01 exceeds bound 1.000e-03"
    assert run([*argv, "--check", "--check-tol", "1e-3", "--out", tmp_path / "tol"]) == 3
    assert failed in capsys.readouterr().err
    # a tolerance turns the check on by itself, from the flag or from the config
    assert run([*argv, "--check-tol", "1e-3", "--out", tmp_path / "tol-flag"]) == 3
    assert failed in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**cli.PRESETS["qho-damped"], "check_tol": 1e-3}))
    assert run([*argv[:1], "--config", cfg, *argv[3:], "--out", tmp_path / "tol-config"]) == 3
    assert failed in capsys.readouterr().err


def test_kraus_check_fails_on_a_corrupted_weight(tmp_path, capsys, monkeypatch):
    real = kraus.series_trajectory

    def corrupted(*args):
        index = 0  # of the first point of each series, one time or a block of them
        for series in real(*args):
            weights = series.weights.copy()
            points = weights.reshape(-1, weights.shape[-1])
            if index <= 5 < index + len(points):
                points[5 - index, 0] *= 1.001
            index += len(points)
            yield dataclasses.replace(series, weights=weights)

    monkeypatch.setattr(kraus, "series_trajectory", corrupted)
    assert run(["experiment", "--preset", "pauli-xx-zz", "--check", "--out", tmp_path / "o"]) == 3
    assert "check failed at t=0.5:" in capsys.readouterr().err


@pytest.mark.parametrize("entry", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
def test_non_finite_oracle_state_fails_the_check(tmp_path, capsys, monkeypatch, entry):
    real = cli.exact_trajectory

    def corrupted(*args):
        for index, state in enumerate(real(*args)):
            if index == 5:
                state[entry] = np.nan
            yield state

    monkeypatch.setattr(cli, "exact_trajectory", corrupted)
    assert run(["experiment", "--preset", "pauli-xx-zz", "--check", "--out", tmp_path / "o"]) == 3
    assert "non-finite state at t=0.5" in capsys.readouterr().err
    assert not (tmp_path / "o" / "states.npy").exists()
    assert not (tmp_path / "o" / "run.json").exists()


def test_non_finite_method_state_fails_the_check(tmp_path, capsys, monkeypatch):
    real = kraus.apply_series
    calls = []

    def corrupted(series, rho0):
        out = real(series, rho0)
        states = out.reshape(-1, *out.shape[-2:])  # one state or a block of them
        if len(calls) <= 5 < len(calls) + len(states):
            states[5 - len(calls), 0, 1] = np.nan
        calls.extend(states)
        return out

    monkeypatch.setattr(kraus, "apply_series", corrupted)
    assert run(["experiment", "--preset", "pauli-xx-zz", "--check", "--out", tmp_path / "o"]) == 3
    assert "non-finite state at t=0.5" in capsys.readouterr().err
    assert not (tmp_path / "o" / "states.npy").exists()
    assert not (tmp_path / "o" / "run.json").exists()


PAULI_NOISE = {"kind": "pauli", "epsilons": [0.9] + [0.1 / 15] * 15}
QDC_NOISE = {"kind": "qdc", "lambda": 0.3}
# id -> what the case changes in a 5-step pauli-xx-zz run
STEP_LOOP_CASES = {
    "exact-auto": {"method": "exact", "series": "auto"},
    **{
        f"trotter-{split}": {"method": "trotter", "trotter_split": split, "trotter_steps": 4}
        for split in (lindblad.SPLIT_HAMILTONIAN_DISSIPATOR, lindblad.SPLIT_EFFECTIVE_JUMP)
    },
    **{f"kraus-{series}": {"method": "kraus", "series": series} for series in ("reduced", "truncated", "factored")},
    "kraus-circuit-reduced": {"method": "kraus-circuit", "series": "reduced"},
    "pauli-noise-pauli-fit": {"noise": PAULI_NOISE, "mitigation": "pauli-fit"},
    "qdc-noise-qdc": {"noise": QDC_NOISE, "mitigation": "qdc"},
    "qho-cat-qdc-noise-twirl-qdc": {**cli.PRESETS["qho-cat"], "noise": QDC_NOISE, "mitigation": "twirl-qdc"},
}


@pytest.mark.filterwarnings("ignore:Pauli channel is rank deficient")  # one pair leaves strings unconstrained
@pytest.mark.parametrize("case", STEP_LOOP_CASES.values(), ids=STEP_LOOP_CASES)
def test_experiment_validates_only_the_initial_state(monkeypatch, case):
    # the mitigation step's physicality check is the loop's one decision: neither the oracle, a
    # method, the noise channel, the mitigation chain nor a depolarizing fit validates a state,
    # so the one validated DensityMatrix is the initial state
    validated = []
    post_init = DensityMatrix.__post_init__

    def counted(self):
        validated.append(not self.raw)
        post_init(self)

    monkeypatch.setattr(DensityMatrix, "__post_init__", counted)
    doc = {**cli.PRESETS["pauli-xx-zz"], **case, "time": {"start": 0.0, "stop": 1.0, "steps": 5}}
    per_record = []
    for _record in cli.run_experiment(cli.ExperimentConfig.from_dict(doc)):
        per_record.append(sum(validated))
        validated.clear()
    assert per_record == [1, 0, 0, 0, 0]


def _decompositions_per_record(monkeypatch, doc):
    """The matrices that ``np.linalg.eigh`` and ``eigvalsh`` decompose while each record of a run of ``doc``
    is produced: the leading size of each call's input, 1 for one matrix.  A block's calls land on its
    first record."""
    calls = []
    for name in ("eigh", "eigvalsh"):

        def counted(matrices, *args, _func=getattr(np.linalg, name), **kwargs):
            calls.append(math.prod(np.shape(matrices)[:-2]))
            return _func(matrices, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    per_record = []
    for _record in cli.run_experiment(cli.ExperimentConfig.from_dict(doc)):
        per_record.append(sum(calls))
        calls.clear()
    return per_record


@pytest.mark.filterwarnings("ignore:Pauli channel is rank deficient")  # one pair leaves strings unconstrained
@pytest.mark.parametrize(
    "case", [{"mitigation": "none"}, {"noise": PAULI_NOISE, "mitigation": "pauli-fit"}], ids=["none", "pauli-fit"]
)
def test_each_step_decomposes_three_matrices(monkeypatch, case):
    # one eigh of the state that becomes the physical one serves the physicality decision, the
    # projection, the entropy and the fidelity's root; the fidelity product and the check difference
    # take one eigvalsh each.  The first record also carries the run's setup and the channel fit.
    doc = {**cli.PRESETS["pauli-xx-zz"], **case, "time": {"start": 0.0, "stop": 1.0, "steps": 6}}
    # t = 0 keeps only the identity term, so the other five points make one block
    assert _decompositions_per_record(monkeypatch, doc)[1:] == [3 * 5, 0, 0, 0, 0]
    monkeypatch.setattr(cli, "BLOCK_BYTES", 1)  # one point per block
    assert _decompositions_per_record(monkeypatch, doc)[1:] == [3] * 5


def _ramped_pauli_noise(strength):
    """Pauli noise weighing the 15 non-identity strings 1 : 2 : ... : 15."""
    ramp = np.arange(1.0, 16.0)
    return {"kind": "pauli", "epsilons": [1.0 - strength, *(strength * ramp / ramp.sum())]}


# id -> (what the case changes in a 60-step pauli-xx-zz run); each has a block in which some states are
# projected and others kept: the shot path's tomography estimates, the series' under strong noise
BLOCK_CASES = {
    "none": {"method": "kraus-circuit-shots", "shots": 64, "seed": 5, "noise": _ramped_pauli_noise(0.05)},
    "qdc": {"noise": _ramped_pauli_noise(0.5), "mitigation": "qdc"},
    "pauli-fit": {
        "method": "kraus-circuit-shots",
        "shots": 64,
        "seed": 5,
        "noise": _ramped_pauli_noise(0.3),
        "mitigation": "pauli-fit",
    },
}


@pytest.mark.filterwarnings("ignore:Pauli channel is rank deficient")
@pytest.mark.parametrize("case", BLOCK_CASES.values(), ids=BLOCK_CASES)
def test_blocks_give_the_records_of_one_point_at_a_time(monkeypatch, case):
    doc = {**cli.PRESETS["pauli-xx-zz"], **case, "time": {"start": 0.0, "stop": 2.0, "steps": 60}}
    blocks = []  # [states, projected states] of each block's physicality decision
    eigh, physical = cli._hermitian_eigh, cli._physical

    def counted_eigh(mats):
        blocks.append([math.prod(np.shape(mats)[:-2]), 0])
        return eigh(mats)

    def counted_physical(w, u):
        blocks[-1][1] += int((w.min(axis=-1) < 0.0).sum())
        return physical(w, u)

    monkeypatch.setattr(cli, "_hermitian_eigh", counted_eigh)
    monkeypatch.setattr(cli, "_physical", counted_physical)
    records = list(cli.run_experiment(cli.ExperimentConfig.from_dict(doc)))
    assert any(0 < projected < states for states, projected in blocks)
    monkeypatch.setattr(cli, "BLOCK_BYTES", 1)  # one point per block
    blocks.clear()
    alone = list(cli.run_experiment(cli.ExperimentConfig.from_dict(doc)))
    assert [states for states, _ in blocks] == [1] * 60
    assert len(records) == len(alone) == 60
    for record, want in zip(records, alone):
        for name in (f.name for f in dataclasses.fields(cli.TrajectoryRecord)):
            got, expected = getattr(record, name), getattr(want, name)
            assert type(got) is type(expected), name
            if isinstance(got, np.ndarray):
                assert got.dtype == expected.dtype and np.array_equal(got, expected), name
            else:
                assert got == expected, name


@pytest.mark.parametrize("budget", [None, 1], ids=["blocks", "one-point-blocks"])
def test_series_weight_overflow_inside_a_block_exits_3_at_its_first_point(tmp_path, capsys, monkeypatch, budget):
    # the weights leave the float range between t = 600 and 650, inside the one block of all 17 points
    if budget is not None:
        monkeypatch.setattr(cli, "BLOCK_BYTES", budget)
    doc = {
        "model": "pauli-xx-zz",
        "state": "pauli-xx-zz",
        "time": {"stop": 800, "steps": 17},
        "method": "kraus",
        "series": "reduced",
    }
    assert run(["experiment", "--config", _write_config(tmp_path, doc), "--out", tmp_path / "o"]) == 3
    refusal = "Kraus weights overflow at t=650: gamma*f(t) = 650 puts exp(gamma*f(t)) beyond the float range"
    assert capsys.readouterr().err == f"numerical check failed: {refusal}\n"


def _non_physical(rng, dim):
    """A unit-trace Hermitian matrix with one clearly negative eigenvalue."""
    u = haar_unitary(rng, dim)
    w = np.linspace(-0.05, 1.0, dim)
    return (u * (w / w.sum())) @ u.conj().T


@pytest.mark.filterwarnings("ignore:Pauli channel is rank deficient")
@pytest.mark.parametrize("chain", ["none", "pauli-fit"])
def test_mitigation_projects_with_project_to_physicals_arithmetic(rng, chain):
    oracle, noisy = random_density(rng, 4), _non_physical(rng, 4)
    config = cli.ExperimentConfig(model="pauli-xx-zz", state="pauli-xx-zz", mitigation=chain)
    mitigated, physical, (w, u) = cli._build_mitigation(config, 4)(oracle, noisy)
    projected = noisy
    if chain == "pauli-fit":
        channel, _report = mit.fit_pauli_channel([(oracle, noisy)])
        projected = mit.invert_channel(channel, noisy).matrix
        assert mitigated is physical
    else:
        assert mitigated is noisy
    assert np.array_equal(physical, mk.project_to_physical(projected))
    # the eigenpairs handed on are the physical state's own
    assert w.min() >= 0.0 and w.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.allclose((u * w) @ u.conj().T, physical, atol=1e-14)


def test_none_mitigation_keeps_a_physical_state_with_its_hermitian_parts_eigenpairs(rng):
    noisy = random_density(rng, 4)
    config = cli.ExperimentConfig(model="pauli-xx-zz", state="pauli-xx-zz")
    mitigated, physical, (w, u) = cli._build_mitigation(config, 4)(random_density(rng, 4), noisy)
    assert mitigated is noisy and physical is noisy
    w_ref, u_ref = np.linalg.eigh((noisy + noisy.conj().T) / 2)
    assert np.array_equal(w, w_ref) and np.array_equal(u, u_ref)


def _drawn_state(seed: int, dim: int, rank: int) -> np.ndarray:
    """A state of the given rank (capped at ``dim``), with a dense eigenbasis."""
    rng = np.random.default_rng(seed)
    w = np.zeros(dim)
    w[: min(rank, dim)] = rng.uniform(0.05, 1.0, min(rank, dim))
    u = haar_unitary(rng, dim)
    return (u * (w / w.sum())) @ u.conj().T


STATE_DRAWS = {"dim": st.integers(2, 16), "seed": st.integers(0, 2**32 - 1), "rank": st.integers(1, 16)}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(**STATE_DRAWS, oracle_rank=st.integers(1, 16))
def test_shared_spectrum_fidelity_and_entropy_match_the_separate_helpers(dim, seed, rank, oracle_rank):
    # full-rank and rank-deficient states on both sides: the step's one eigh of the physical state
    # gives the fidelity through sqrt(physical) and the entropy that the module-level helpers give
    oracle, noisy = _drawn_state(seed, dim, oracle_rank), _drawn_state(seed + 1, dim, rank)
    config = cli.ExperimentConfig(model="pauli-xx-zz", state="pauli-xx-zz")
    _mitigated, physical, (w, u) = cli._build_mitigation(config, dim)(oracle, noisy)
    assert physical is noisy
    assert mk._root_fidelity(mk._root(w, u), oracle) == pytest.approx(mk.fidelity(oracle, physical), abs=1e-12)
    assert mk._entropy(w) == pytest.approx(mk.von_neumann_entropy(physical), abs=1e-12)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    **STATE_DRAWS,
    lowest=st.floats(-3e-10, 1e-10),
    defect=st.sampled_from([0.0, 0.5 * mk.HERMITICITY_TOL, 2 * mk.HERMITICITY_TOL]),
)
def test_none_mitigation_decides_as_the_separate_predicate(dim, seed, rank, lowest, defect):
    # a state whose lowest eigenvalue is moved near EIGENVALUE_FLOOR, with a hermiticity defect on
    # either side of HERMITICITY_TOL: the shared eigh keeps or projects as the separate eigvalsh did
    noisy = _drawn_state(seed, dim, rank)
    w, u = np.linalg.eigh(noisy)
    noisy = noisy + (lowest - w[0]) * np.outer(u[:, 0], u[:, 0].conj())
    noisy[0, 1] += defect
    hermitian = (noisy + noisy.conj().T) / 2
    assume(abs(np.linalg.eigvalsh(hermitian).min() - mk.EIGENVALUE_FLOOR) >= 1e-12)
    keeps = (
        mk.hermiticity_defect(noisy) <= mk.HERMITICITY_TOL
        and np.linalg.eigvalsh(hermitian).min() >= mk.EIGENVALUE_FLOOR
    )
    config = cli.ExperimentConfig(model="pauli-xx-zz", state="pauli-xx-zz")
    _mitigated, physical, _spectrum = cli._build_mitigation(config, dim)(noisy, noisy)
    assert (physical is noisy) == keeps
    if not keeps:
        assert np.array_equal(physical, mk.project_to_physical(noisy))


def test_cli_import_leaves_scipy_out():
    env = dict(os.environ, PYTHONPATH=str(Path(kraussim.__file__).parents[1]))
    code = "import sys, kraussim.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "[]"


def test_package_import_loads_no_submodule():
    # the package namespace re-exports nothing; each name is imported from its module
    env = dict(os.environ, PYTHONPATH=str(Path(kraussim.__file__).parents[1]))
    code = "import sys, kraussim; print(sorted(m for m in sys.modules if m.startswith('kraussim.')))"
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


def _inline_pauli_config(tmp_path, name, model):
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps({"model": to_doc(model), "state": [[1, 0], [0, 0], [0, 0], [1, 0]], "steps": 3}))
    return cfg


def _rotated_pauli_config(tmp_path):
    # ["XZ", "ZY"] conjugated by one Haar unitary: unitary, dense jump operators
    model = haar_rotated(models.pauli_channel_model(["XZ", "ZY"], [0.3, 0.7]), np.random.default_rng(7))
    return _inline_pauli_config(tmp_path, "rotated", model)


def _phased_pauli_config(tmp_path):
    # the jump i XZ: its eigenvalues are +-i, so the factored circuit needs a phase gate
    model = lindblad.LindbladModel(np.zeros((4, 4), complex), (1j * pauli_string_matrix("XZ"),), (0.7,))
    return _inline_pauli_config(tmp_path, "phased", model)


@pytest.mark.parametrize("series", [None, "factored"])
@pytest.mark.parametrize("method", ["kraus", "kraus-circuit"])
def test_rotated_inline_pauli_model_passes_its_check(tmp_path, capsys, method, series):
    for config in (_rotated_pauli_config, _phased_pauli_config):
        argv = ["experiment", "--config", config(tmp_path), "--method", method, "--check"]
        assert run(argv + (["--series", series] if series else []) + ["--out", tmp_path / config.__name__]) == 0
        assert "check passed" in capsys.readouterr().out


def test_truncated_series_past_the_term_cap_exits_2(tmp_path, capsys):
    # no product of pauli-xx-zz's four jumps vanishes: order 12 would hold sum_k 4^k ~ 2.2e7 terms
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**BASE_CONFIG, "method": "kraus", "series": "truncated", "order": 12}))
    started = time.perf_counter()
    assert run(["experiment", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert time.perf_counter() - started < 30
    assert f"order 12 over 4 operators would exceed {kraus.MAX_SERIES_TERMS} terms" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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
    assert not list((tmp_path / "o").glob(".partial-*"))


def _one_qubit_record(wigner_shape=(3, 3)):
    mat = np.eye(2) / 2
    return cli.TrajectoryRecord(0.0, mat, mat, 1.0, 0.0, {}, {}, (), {"wigner": np.zeros(wigner_shape)}, 0.0, 0.0)


def test_emit_report_removes_partial_outputs(tmp_path):
    def records():
        yield _one_qubit_record()
        raise RuntimeError("step 1 failed")

    with pytest.raises(RuntimeError, match="step 1 failed"):
        cli.emit_report(records(), tmp_path / "out", 2)
    assert not (tmp_path / "out" / "states.npy").exists()
    assert not (tmp_path / "out" / "run.json").exists()
    assert not [path for path in (tmp_path / "out").rglob("*") if path.is_file()]
    assert not (tmp_path / "out" / "fields").exists()


def test_emit_report_refuses_fewer_records_than_steps(tmp_path):
    # the states.npy header announces `steps` records, so a short stream must leave no file
    with pytest.raises(ValueError, match="expected 3 records, got 1"):
        cli.emit_report(iter([_one_qubit_record()]), tmp_path / "out", 3)
    assert not [path for path in (tmp_path / "out").rglob("*") if path.is_file()]
    assert not (tmp_path / "out" / "fields").exists()


def test_emit_report_refuses_a_record_unlike_the_first(tmp_path):
    # each stacked .npy header fixes the shape of every later row
    records = [_one_qubit_record(), _one_qubit_record((3, 4))]
    with pytest.raises(ValueError, match="record 1 has arrays"):
        cli.emit_report(iter(records), tmp_path / "out", 2)
    assert not [path for path in (tmp_path / "out").rglob("*") if path.is_file()]
    assert not (tmp_path / "out" / "fields").exists()


def test_emit_report_keeps_a_fields_directory_it_did_not_make(tmp_path):
    # an --out that holds anything, even an empty fields/, is refused before a record is pulled
    (tmp_path / "out" / "fields").mkdir(parents=True)
    with pytest.raises(cli.ConfigError, match="already holds files"):
        cli.emit_report(iter([_one_qubit_record()]), tmp_path / "out", 3)
    assert (tmp_path / "out" / "fields").is_dir()
    assert not [path for path in (tmp_path / "out").rglob("*") if path.is_file()]


def test_experiment_refuses_an_out_that_holds_files(tmp_path, capsys, monkeypatch):
    # a 3-step run with a Wigner field, then a 5-step run without field outputs into the
    # same --out: the second is refused before any model is built and the first tree stays
    built = []
    resolve = cli._resolve_model
    monkeypatch.setattr(cli, "_resolve_model", lambda config: built.append(config.steps) or resolve(config))
    out = tmp_path / "o"
    doc = {**cli.PRESETS["qho-damped"], "method": "kraus", "outputs": ["quadratures", "wigner"]}
    assert run(["experiment", "--config", _write_config(tmp_path, doc), "--steps", 3, "--out", out]) == 0
    first = {path: path.read_bytes() for path in out.rglob("*") if path.is_file()}
    assert out / "fields" / "wigner.npy" in first
    doc["outputs"] = ["quadratures"]
    assert run(["experiment", "--config", _write_config(tmp_path, doc), "--steps", 5, "--out", out]) == 2
    assert f"error: output directory {out} already holds files" in capsys.readouterr().err
    assert built == [3]
    assert {path: path.read_bytes() for path in out.rglob("*") if path.is_file()} == first


def test_experiment_writes_into_an_empty_current_directory(tmp_path, monkeypatch):
    # the stage sits inside --out, so "." works: nothing has to be renamed onto the directory itself
    (tmp_path / "run").mkdir()
    monkeypatch.chdir(tmp_path / "run")
    assert run(["experiment", "--preset", "pauli-xx-zz", "--steps", 3, "--out", "."]) == 0
    assert sorted(path.name for path in (tmp_path / "run").iterdir()) == ["run.json", "states.npy", "trajectory.csv"]
    assert _row_count(tmp_path / "run") == 3


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
    assert len(files) == 6 and tree(tmp_path / "b") == files
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
    expected = {"x.npy", "p.npy", "position-density.npy", "momentum-density.npy", "wigner.npy"}
    assert {path.name for path in fields_dir.iterdir()} == expected
    grid = analysis.default_grid()
    x, p = np.load(fields_dir / "x.npy"), np.load(fields_dir / "p.npy")
    assert x.dtype == p.dtype == np.float64
    assert np.array_equal(x, grid.x) and np.array_equal(p, grid.p)
    position = np.load(fields_dir / "position-density.npy")
    momentum = np.load(fields_dir / "momentum-density.npy")
    wigner = np.load(fields_dir / "wigner.npy")
    assert position.dtype == momentum.dtype == wigner.dtype == np.float64
    assert position.shape == momentum.shape == (2, x.size)
    assert wigner.shape == (2, x.size, p.size)
    for step in range(2):
        assert np.trapezoid(position[step], x) == pytest.approx(1.0, abs=1e-6)
        assert np.trapezoid(momentum[step], p) == pytest.approx(1.0, abs=1e-6)
        assert np.trapezoid(np.trapezoid(wigner[step], p, axis=1), x) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("steps", [2, 5])
def test_fields_npy_stacks_each_records_field(tmp_path, steps):
    # the fields/ tree does not grow with the step count
    doc = {
        "model": "qho-damped",
        "state": "qho-oscillating",
        "time": {"start": 0.0, "stop": 1.0, "steps": steps},
        "method": "kraus",
        "outputs": ["quadratures", "wigner", "position-density"],
    }
    records = list(cli.run_experiment(cli.ExperimentConfig.from_dict(doc)))
    assert run(["experiment", "--config", _write_config(tmp_path, doc), "--out", tmp_path / "o"]) == 0
    fields_dir = tmp_path / "o" / "fields"
    assert sorted(path.name for path in fields_dir.iterdir()) == [
        "p.npy",
        "position-density.npy",
        "wigner.npy",
        "x.npy",
    ]
    for name in ("wigner", "position-density"):
        got = np.load(fields_dir / f"{name}.npy")
        want = np.stack([record.fields[name] for record in records])
        assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


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
def test_run_json_rebuilds_each_steps_terms_from_the_table(tmp_path, method, extra):
    # run.json holds the term table once; each step's rows, weights and survivals rebuild the
    # {order, indices, weight[, survival]} of every term that the series and the circuits gave
    doc = {
        "model": "qho-damped",
        "state": "qho-oscillating",
        "time": {"start": 0.0, "stop": 1.0, "steps": 3},
        "method": method,
        "order": 3,
        **extra,
    }
    assert run(["experiment", "--config", _write_config(tmp_path, doc), "--out", tmp_path / "o"]) == 0
    written = json.loads((tmp_path / "o" / "run.json").read_text())
    rows = (tmp_path / "o" / "trajectory.csv").read_text().splitlines()[1:]
    assert set(written) == {"steps", "table"} and len(written["steps"]) == len(rows) == 3
    prep = kraus.prepare(models.build_model("qho-damped").model)
    psi0 = models.benchmark_initial_states()["qho-oscillating"]
    ts = [0.0, 0.5, 1.0]
    keys = {"t", "rows", "weights"} | ({"survivals"} if "shots" in extra else set())
    trajectory = kraus.series_trajectory(prep, ts, "auto", 3)
    for index, (entry, row, series) in enumerate(zip(written["steps"], rows, trajectory)):
        assert written["table"] == [{"order": len(indices), "indices": list(indices)} for indices in series.table]
        assert set(entry) == keys and entry["t"] == float(row.split(",")[0]) == ts[index]
        if "shots" in extra:
            seed = (extra["seed"], index)
            _, want = circuits.execute_series_tomography(prep, series, ts[index], psi0, extra["shots"], seed)
        else:
            want = [
                {"order": term.order, "indices": list(term.indices), "weight": term.weight} for term in series.terms
            ]
        rebuilt = [{**written["table"][r], "weight": w} for r, w in zip(entry["rows"], entry["weights"], strict=True)]
        for term, survival in zip(rebuilt, entry.get("survivals", [])):
            term["survival"] = survival
        assert rebuilt == want and want


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
    assert len(doc["table"]) == len(doc["rows"]) == len(doc["weights"]) == 4
    assert np.shape(doc["operators"]) == (4, 4, 4, 2)  # (terms, d, d, [re, im])


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
    assert doc["channel"]["lam"] == pytest.approx(0.3, abs=1e-3)
    assert from_doc(mit.DepolarizingChannel, doc["channel"]) == mit.DepolarizingChannel(2, doc["channel"]["lam"])
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


@pytest.mark.parametrize("entry", ["0.5", True], ids=["string", "boolean"])
def test_mitigate_refuses_an_entry_that_is_not_a_number(tmp_path, capsys, entry):
    noisy = [[[entry, 0], [0, 0]], [[0, 0], [0.5, 0]]]
    pairs_file = tmp_path / "pairs.json"
    pairs_file.write_text(json.dumps({"pairs": [[to_doc(np.diag([1.0, 0.0]).astype(complex)), noisy]]}))
    assert run(["mitigate", "--pairs", pairs_file]) == 2
    assert capsys.readouterr().err == f"error: an array must hold numbers, got {entry!r}\n"


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


@pytest.mark.parametrize(
    "argv",
    [["--channel", "qdc"], ["--channel", "qdc", "--strategy", "frobenius-min"], ["--channel", "pauli"]],
    ids=["qdc-fidelity-max", "qdc-frobenius-min", "pauli"],
)
def test_mitigate_refuses_a_non_hermitian_pair(tmp_path, capsys, rng, argv):
    # both fits check their pairs once, with project_physical's tolerance, whatever the strategy
    channel = mit.DepolarizingChannel(2, 0.3)
    pairs = []
    for _ in range(2):
        rho = random_density(rng, 4)
        pairs.append([rho, mit.apply_qdc(channel, rho).matrix])
    pairs[1][1][0, 1] += 1e-3
    pairs_file = tmp_path / "pairs.json"
    pairs_file.write_text(json.dumps({"pairs": to_doc(pairs)}))
    assert run(["mitigate", "--pairs", pairs_file, *argv]) == 2
    assert capsys.readouterr().err == "error: pair 1: noisy is too far from Hermitian to project\n"


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
