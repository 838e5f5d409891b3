import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kraussim
from kraussim import cli, kraus, lindblad, mitigation as mit
from kraussim.matkernel import to_doc

from conftest import random_density


def run(args):
    return cli.main([str(a) for a in args])


def test_config_validation_errors():
    with pytest.raises(cli.ConfigError):
        cli.ExperimentConfig(model="pauli-xx-zz", state="pauli-xx-zz", method="warp")
    with pytest.raises(cli.ConfigError):
        cli.ExperimentConfig(model="pauli-xx-zz", state="pauli-xx-zz", t_start=2.0, t_stop=1.0)
    with pytest.raises(cli.ConfigError):
        cli.ExperimentConfig(model="pauli-xx-zz", state="pauli-xx-zz", method="kraus-circuit-shots")
    with pytest.raises(cli.ConfigError):
        cli.ExperimentConfig.from_dict({"model": "m", "state": "s", "bogus": 1})


def test_main_exit_code_on_bad_config(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"model": "no-such-model", "state": "pauli-xx-zz"}))
    assert run(["experiment", "--config", cfg, "--out", tmp_path / "out"]) == 2


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
    assert (tmp_path / "out" / "states.json").exists()
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


@pytest.mark.parametrize("method, steps", [("kraus", 40), ("kraus-circuit", 3)])
def test_model_invariant_work_runs_once_per_experiment(tmp_path, monkeypatch, method, steps):
    calls = {"check_conditions": 0, "detect_group_structure": 0}

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)

        return wrapper

    for module in (lindblad, kraus):
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
    assert calls == {"check_conditions": 1, "detect_group_structure": 1}


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
                "outputs": ["quadratures"],
            }
        )
    )
    assert run(["experiment", "--config", cfg, "--out", tmp_path / "a"]) == 0
    assert run(["experiment", "--config", cfg, "--out", tmp_path / "b"]) == 0
    for name in ("trajectory.csv", "states.json"):
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
                "outputs": ["position-density", "wigner"],
            }
        )
    )
    assert run(["experiment", "--config", cfg, "--out", tmp_path / "out"]) == 0
    fields = sorted(p.name for p in (tmp_path / "out" / "fields").iterdir())
    assert "step000_position-density.csv" in fields
    assert "step001_wigner.csv" in fields


def test_evolve_subcommand(tmp_path):
    assert run([
        "evolve",
        "--model", "pauli-xx-zz",
        "--state", "pauli-xx-zz",
        "--stop", 1.0,
        "--steps", 5,
        "--output", "pauli:ZZ",
        "--out", tmp_path / "out",
    ]) == 0
    rows = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    assert len(rows) == 6


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


def test_kraus_reduced_without_structure_exits_3(tmp_path):
    assert run([
        "kraus", "--model", "schwinger-jz", "--time", 1.0, "--series", "reduced"
    ]) == 3


def test_experiment_json_table_format(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "model": "pauli-xx-zz",
                "state": "pauli-xx-zz",
                "time": {"start": 0.0, "stop": 0.5, "steps": 2},
                "method": "kraus",
                "outputs": ["pauli:ZZ"],
            }
        )
    )
    assert run([
        "experiment", "--config", cfg, "--format", "json", "--out", tmp_path / "out"
    ]) == 0
    rows = json.loads((tmp_path / "out" / "trajectory.json").read_text())
    assert len(rows) == 2
    assert rows[0]["pauli:ZZ"] == pytest.approx(0.28, abs=1e-9)


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
