"""Command-line behavior: outputs, exit codes, determinism."""

import importlib.metadata
import inspect
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import qrsim.bell
import qrsim.cli
import qrsim.qrs
from qrsim import SWEEP_HEADER, CompositeSystem, PureState, chsh, joint_probability
from qrsim.cli import main

INV_SQRT2 = 0.7071067811865476
HUGE = 10 ** 400  # a JSON integer literal that no float can hold

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run_python(*args, **kwargs):
    """``python *args`` importing the same ``qrsim`` as this process does."""
    search = [str(Path(qrsim.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, search))}
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, **kwargs)


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def declared_console_script():
    """The ``module:attr`` that ``pyproject.toml`` declares as ``qrsim``."""
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["qrsim"]


def installed_distribution():
    """The installed ``qrsim`` distribution, or None when running uninstalled."""
    try:
        return importlib.metadata.distribution("qrsim")
    except importlib.metadata.PackageNotFoundError:
        return None


def replace_bell_engine(monkeypatch, replacement):
    """Rebind every ``qrsim`` module name bound to the batched Bell engine, as a call tracer does."""
    original = qrsim.bell._run_batch
    for name, module in list(sys.modules.items()):
        if name == "qrsim" or name.startswith("qrsim."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)
    return original


@pytest.fixture
def counted_runs(monkeypatch):
    """Every setting the Bell engine receives."""
    settings = []

    def counting(scenario, thetas1, thetas2):
        settings.extend((t1, t2, scenario.include_m3) for t1, t2 in zip(thetas1, thetas2))
        return original(scenario, thetas1, thetas2)

    original = replace_bell_engine(monkeypatch, counting)
    return settings


@pytest.fixture
def refused_runs(monkeypatch):
    def refuse(scenario, thetas1, thetas2):
        raise AssertionError("the Bell engine was called before validation finished")

    replace_bell_engine(monkeypatch, refuse)


@pytest.fixture
def pair_file(tmp_path):
    data = {
        "subsystems": [
            {"label": "P1", "dim": 2},
            {"label": "P2", "dim": 2},
        ],
        "state": {"name": "bell", "a": 0.6, "b": 0.8},
        "queries": [["P1", "P2"], ["P1"]],
    }
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def measured_file(tmp_path):
    data = {
        "subsystems": [
            {"label": "P1", "dim": 2},
            {"label": "M1", "dim": 3},
            {"label": "P2", "dim": 2},
            {"label": "M2", "dim": 3},
        ],
        "devices": [
            {"label": "M1", "target": "P1", "theta": math.pi / 2},
            {"label": "M2", "target": "P2", "theta": math.pi / 4},
        ],
        "state": {"name": "bell", "a": 0.6, "b": 0.8},
    }
    path = tmp_path / "measured.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def mixed_file(tmp_path):
    """A seeded amplitude-list state on A(3), B(2), C(3), D(2), and its vector."""
    rng = np.random.default_rng(3232)
    psi = rng.normal(size=36) + 1j * rng.normal(size=36)
    psi /= np.linalg.norm(psi)
    data = {
        "subsystems": [
            {"label": "A", "dim": 3},
            {"label": "B", "dim": 2},
            {"label": "C", "dim": 3},
            {"label": "D", "dim": 2},
        ],
        "state": [[float(z.real), float(z.imag)] for z in psi],
    }
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(data))
    return str(path), psi


@pytest.fixture
def parity_file(tmp_path):
    # even-parity three-qubit state: any two qubits are jointly maximally mixed
    amps = [[0.0, 0.0]] * 8
    for idx in (0, 3, 5, 6):
        amps[idx] = [0.5, 0.0]
    data = {
        "subsystems": [
            {"label": "S1", "dim": 2},
            {"label": "S2", "dim": 2},
            {"label": "S3", "dim": 2},
        ],
        "state": amps,
    }
    path = tmp_path / "parity.json"
    path.write_text(json.dumps(data))
    return str(path)


# ---------------------------------------------------------------------------


class TestSchmidtCommand:
    def test_pair_decomposition(self, capsys, pair_file):
        rc, out, _ = run_cli(capsys, "schmidt", pair_file, "--cut", "P1")
        assert rc == 0
        data = json.loads(out)
        assert data["cut"] == "P1" and data["complement"] == "P2"
        assert_allclose(data["coefficients"], [0.8, 0.6], atol=1e-12)
        assert data["rank"] == 2
        assert_allclose(data["left_spectrum"], [0.64, 0.36], atol=1e-12)
        assert_allclose(data["right_spectrum"], [0.64, 0.36], atol=1e-12)

    def test_balanced_pair(self, capsys, tmp_path):
        data = {
            "subsystems": [{"label": "P1", "dim": 2}, {"label": "P2", "dim": 2}],
            "state": {"name": "bell", "a": 0.70710678, "b": 0.70710678},
        }
        path = tmp_path / "singlet.json"
        path.write_text(json.dumps(data))
        rc, out, _ = run_cli(capsys, "schmidt", str(path), "--cut", "P2")
        assert rc == 0
        coeffs = json.loads(out)["coefficients"]
        assert_allclose(coeffs, [INV_SQRT2, INV_SQRT2], atol=1e-10)

    def test_product_state_rank_one(self, capsys, tmp_path):
        data = {
            "subsystems": [{"label": "A", "dim": 2}, {"label": "B", "dim": 2}],
            "state": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
        }
        path = tmp_path / "product.json"
        path.write_text(json.dumps(data))
        rc, out, _ = run_cli(capsys, "schmidt", str(path), "--cut", "A")
        assert rc == 0
        assert json.loads(out)["rank"] == 1

    def test_multi_label_cut(self, capsys, parity_file):
        rc, out, _ = run_cli(capsys, "schmidt", parity_file, "--cut", "S3+S1")
        assert rc == 0
        data = json.loads(out)
        assert data["cut"] == "S1+S3" and data["complement"] == "S2"
        assert sum(c ** 2 for c in data["coefficients"]) == pytest.approx(1.0, abs=1e-9)

    def test_missing_file(self, capsys):
        rc, out, err = run_cli(capsys, "schmidt", "/nonexistent.json", "--cut", "P1")
        assert rc == 2 and out == ""
        assert "no such file" in err

    def test_invalid_json_reports_the_line(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "subsystems": [,]\n}\n')
        rc, _, err = run_cli(capsys, "schmidt", str(path), "--cut", "P1")
        assert rc == 2
        assert f"{path}:2:" in err and "invalid JSON" in err

    def test_amplitude_length_mismatch_names_both(self, capsys, tmp_path):
        data = {
            "subsystems": [{"label": "A", "dim": 2}, {"label": "B", "dim": 2}],
            "state": [[1.0, 0.0], [0.0, 0.0]],
        }
        path = tmp_path / "short.json"
        path.write_text(json.dumps(data))
        rc, _, err = run_cli(capsys, "schmidt", str(path), "--cut", "A")
        assert rc == 2
        assert "length 2" in err and "expected 4" in err

    def test_unknown_cut_label(self, capsys, pair_file):
        rc, _, err = run_cli(capsys, "schmidt", pair_file, "--cut", "P1+X")
        assert rc == 2 and "'P1+X'" in err

    def test_labels_with_a_plus_are_rejected(self, capsys, tmp_path):
        data = {
            "subsystems": [{"label": "P+Q", "dim": 2}, {"label": "R", "dim": 2}],
            "state": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
        }
        path = tmp_path / "plus.json"
        path.write_text(json.dumps(data))
        for argv in (("schmidt", str(path), "--cut", "R"), ("joint", str(path), "P+Q", "R")):
            rc, out, err = run_cli(capsys, *argv)
            assert rc == 2 and out == ""
            assert err == (
                f"error: {path}: subsystem label 'P+Q' contains '+', which joins labels\n"
            )

    def test_whole_system_cut_rejected(self, capsys, pair_file):
        rc, _, err = run_cli(capsys, "schmidt", pair_file, "--cut", "P1+P2")
        assert rc == 2 and "complement" in err

    @pytest.mark.parametrize(
        "field, scenario",
        [
            ("state[2]", {"state": [[1.0, 0.0], [0.0, 0.0], [HUGE, 0.0], [0.0, 0.0]]}),
            ("'theta'", {"devices": [{"label": "M1", "target": "P1", "theta": HUGE}]}),
            ("state.a", {"state": {"name": "bell", "a": HUGE, "b": 0.8}}),
            ("state.b", {"state": {"name": "bell", "a": 0.6, "b": [0.8, HUGE]}}),
        ],
    )
    def test_huge_integer_literal_names_the_field(self, capsys, tmp_path, field, scenario):
        data = {
            "subsystems": [{"label": "P1", "dim": 2}, {"label": "P2", "dim": 2}],
            "state": {"name": "bell", "a": 0.6, "b": 0.8},
            **scenario,
        }
        if "devices" in scenario:
            data["subsystems"].append({"label": "M1", "dim": 3})
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))
        rc, out, err = run_cli(capsys, "schmidt", str(path), "--cut", "P1")
        assert rc == 2 and out == ""
        assert field in err and "too large" in err

    def test_spectra_are_the_padded_squared_coefficients(self, capsys, mixed_file):
        # the cut A+C (dimension 9) is larger than its complement B+D (4)
        path, psi = mixed_file
        rc, out, _ = run_cli(capsys, "schmidt", path, "--cut", "A+C")
        assert rc == 0
        data = json.loads(out)
        left, right = data["left_spectrum"], data["right_spectrum"]
        assert (len(left), len(right)) == (9, 4)

        t = psi.reshape(3, 2, 3, 2)
        rho_ac = np.einsum("abcd,ebfd->acef", t, t.conj()).reshape(9, 9)
        rho_bd = np.einsum("abcd,aecf->bdef", t, t.conj()).reshape(4, 4)
        assert_allclose(left, np.sort(np.linalg.eigvalsh(rho_ac))[::-1], atol=1e-12)
        assert_allclose(right, np.sort(np.linalg.eigvalsh(rho_bd))[::-1], atol=1e-12)

        squares = (np.asarray(data["coefficients"]) ** 2).tolist()
        assert len(squares) == 4
        assert left == squares + [0.0] * 5
        assert right == squares
        assert all(math.copysign(1.0, v) == 1.0 for v in left[4:])

    def test_no_eigendecomposition_is_needed(self, capsys, monkeypatch, mixed_file):
        def refuse(*args, **kwargs):
            raise AssertionError("schmidt eigendecomposed a matrix")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        rc, out, _ = run_cli(capsys, "schmidt", mixed_file[0], "--cut", "B")
        assert rc == 0
        assert len(json.loads(out)["right_spectrum"]) == 18

    def test_one_qubit_cut_of_twelve_qubits_builds_no_reduction(self, capsys, tmp_path):
        # the complement's reduced matrix alone would be 2048^2 complex = 64 MiB
        rng = np.random.default_rng(1212)
        psi = rng.normal(size=4096) + 1j * rng.normal(size=4096)
        psi /= np.linalg.norm(psi)
        data = {
            "subsystems": [{"label": f"q{i}", "dim": 2} for i in range(12)],
            "state": [[float(z.real), float(z.imag)] for z in psi],
        }
        path = tmp_path / "twelve.json"
        path.write_text(json.dumps(data))
        tracemalloc.start()
        try:
            rc = main(["schmidt", str(path), "--cut", "q0"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out = json.loads(capsys.readouterr().out)
        assert rc == 0 and len(out["right_spectrum"]) == 2048
        assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestJointCommand:
    def test_disjoint_pair_table(self, capsys, pair_file):
        rc, out, err = run_cli(capsys, "joint", pair_file, "P1", "P2")
        assert rc == 0 and err == ""
        data = json.loads(out)
        assert data["comparable"] is True
        assert data["route"] == "pairwise-disjoint"
        table = np.array(data["distribution"]["values"]).reshape(2, 2)
        assert_allclose(table, np.diag([0.64, 0.36]), atol=1e-9)

    def test_single_system_spectrum(self, capsys, pair_file):
        rc, out, _ = run_cli(capsys, "joint", pair_file, "P1")
        assert rc == 0
        data = json.loads(out)
        assert_allclose(data["distribution"]["values"], [0.64, 0.36], atol=1e-9)

    def test_complement_reduction_is_reported(self, capsys, parity_file):
        rc, out, err = run_cli(capsys, "joint", parity_file, "S1+S2", "S2+S3")
        assert rc == 0 and err == ""
        data = json.loads(out)
        assert data["comparable"] is True
        assert data["route"] == "complement-reduction"
        assert data["substitutions"] == [
            {"original": "S1+S2", "replacement": "S3"},
            {"original": "S2+S3", "replacement": "S1"},
        ]
        assert data["systems"] == ["S3", "S1"]
        assert_allclose(data["distribution"]["values"], [0.25] * 4, atol=1e-9)

    def test_not_comparable_banner_and_quasi(self, capsys, measured_file):
        rc, out, err = run_cli(capsys, "joint", measured_file, "P1+M1", "M1", "M2")
        assert rc == 0
        assert err.startswith("NOT COMPARABLE: P1+M1 M1 M2")
        data = json.loads(out)
        assert data["comparable"] is False and data["route"] == "none"
        assert data["quasi"]["shape"] == [6, 3, 3]
        assert data["quasi"]["min_real"] < -1e-3

    def test_repeated_system_is_replaced_at_one_position(self, capsys, tmp_path):
        rng = np.random.default_rng(808)
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        amps /= np.linalg.norm(amps)
        data = {
            "subsystems": [{"label": "A", "dim": 2}, {"label": "B", "dim": 2}],
            "state": [[float(z.real), float(z.imag)] for z in amps],
        }
        path = tmp_path / "ab.json"
        path.write_text(json.dumps(data))
        rc, out, err = run_cli(capsys, "joint", str(path), "A", "A")
        assert rc == 0 and err == ""
        data = json.loads(out)
        assert data["route"] == "complement-reduction"
        assert data["substitutions"] == [{"original": "A", "replacement": "B"}]
        assert data["systems"] == ["B", "A"]
        want = joint_probability(
            ["B", "A"], PureState(CompositeSystem([("A", 2), ("B", 2)]), amps)
        )
        assert data["distribution"]["shape"] == [2, 2]
        assert_allclose(data["distribution"]["values"], want.table.reshape(-1), atol=1e-12)

    def test_query_beyond_the_label_budget_exits_2(self, capsys, measured_file):
        # 4 state axes + 13 x (3 axes + 1 index) = 56 einsum labels > 52;
        # the table would have 12**13 entries
        rc, out, err = run_cli(capsys, "joint", measured_file, *["P1+M1+P2"] * 13)
        assert rc == 2 and out == ""
        assert "labels" in err

    def test_queries_from_the_scenario_file(self, capsys, pair_file):
        rc, out, _ = run_cli(capsys, "joint", pair_file)
        assert rc == 0
        data = json.loads(out)
        assert len(data["queries"]) == 2
        assert data["queries"][0]["query"] == ["P1", "P2"]
        assert data["queries"][1]["query"] == ["P1"]

    def test_no_systems_anywhere(self, capsys, parity_file):
        rc, _, err = run_cli(capsys, "joint", parity_file)
        assert rc == 2 and "queries" in err

    @pytest.mark.parametrize(
        "subsystems, devices, message",
        [
            (
                [("P1", 2), ("P2", 2), ("X", 2)],
                [],
                "cannot initialize subsystem 'X'",
            ),
            (
                [("P1", 2), ("M1", 3), ("P2", 2)],
                [{"label": "M1", "target": "P1", "theta": 1.0,
                  "pointer_dim": 5, "ready_index": 4}],
                "ready index 4 out of range",
            ),
        ],
    )
    def test_bell_constructor_rejects_what_it_cannot_prepare(
        self, capsys, tmp_path, subsystems, devices, message
    ):
        data = {
            "subsystems": [{"label": l, "dim": d} for l, d in subsystems],
            "devices": devices,
            "state": {"name": "bell", "a": 0.6, "b": 0.8},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        rc, _, err = run_cli(capsys, "joint", str(path), "P1", "P2")
        assert rc == 2 and message in err

    def test_unknown_label(self, capsys, pair_file):
        rc, _, err = run_cli(capsys, "joint", pair_file, "P1+X")
        assert rc == 2 and "'P1+X'" in err


class TestBellCommand:
    def test_single_point_anticorrelation(self, capsys):
        rc, out, _ = run_cli(capsys, "bell", "--model", "quantum")
        assert rc == 0
        data = json.loads(out)
        table = np.array(data["quantum_joint"])
        assert_allclose(np.diag(table), [0.0, 0.0], atol=1e-12)
        assert_allclose(table.sum(), 1.0, atol=1e-9)
        assert data["E_quantum"] == pytest.approx(-1.0, abs=1e-10)
        assert data["S_quantum"] == pytest.approx(-2.0, abs=1e-9)
        assert "hidden_joint" not in data and "quasi" not in data

    def test_model_all_carries_every_section(self, capsys):
        rc, out, _ = run_cli(
            capsys, "bell", "--theta1", "0.7", "--theta2", "1.9"
        )
        assert rc == 0
        data = json.loads(out)
        for key in ("marginal1", "quantum_joint", "E_quantum", "S_quantum",
                    "hidden_joint", "E_hidden", "S_hidden", "quasi"):
            assert key in data
        assert data["E_quantum"] == pytest.approx(-math.cos(0.7 - 1.9), abs=1e-10)
        assert data["E_hidden"] == pytest.approx(-math.cos(0.7) * math.cos(1.9), abs=1e-10)
        assert data["quasi"]["max_imag"] >= 0.0

    def test_hidden_model_only(self, capsys):
        rc, out, _ = run_cli(capsys, "bell", "--model", "hidden", "--theta1", "1.0")
        assert rc == 0
        data = json.loads(out)
        assert "E_hidden" in data and "E_quantum" not in data

    def test_chsh_standard_angles(self, capsys):
        rc, out, _ = run_cli(
            capsys, "bell", "--chsh-angles", "0,1.5707963,0.7853982,2.3561945",
            "--model", "quantum",
        )
        assert rc == 0
        data = json.loads(out)
        assert abs(data["S_quantum"]) == pytest.approx(2.8284271, abs=1e-6)

    def test_chsh_hidden_is_bounded(self, capsys):
        rc, out, _ = run_cli(
            capsys, "bell", "--chsh-angles", "0,1.5707963,0.7853982,2.3561945",
            "--model", "hidden",
        )
        assert rc == 0
        assert abs(json.loads(out)["S_hidden"]) <= 2.0 + 1e-9

    def test_chsh_rejects_the_quasi_model(self, capsys):
        rc, _, err = run_cli(
            capsys, "bell", "--chsh-angles", "0,1,2,3", "--model", "quasi"
        )
        assert rc == 2 and "quasi" in err

    def test_chsh_angle_parsing(self, capsys):
        rc, _, err = run_cli(capsys, "bell", "--chsh-angles", "0,1,2")
        assert rc == 2 and "four" in err
        rc, _, err = run_cli(capsys, "bell", "--chsh-angles", "0,1,2,x")
        assert rc == 2 and "could not parse" in err

    def test_mode_exclusivity(self, capsys):
        rc, _, err = run_cli(capsys, "bell", "--sweep", "4", "--chsh-angles", "0,1,2,3")
        assert rc == 2 and "one of" in err
        rc, _, err = run_cli(capsys, "bell", "--sweep", "4", "--samples", "10")
        assert rc == 2 and "single-point" in err

    def test_sweep_csv_shape(self, capsys):
        rc, out, _ = run_cli(capsys, "bell", "--sweep", "4")
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0] == ",".join(SWEEP_HEADER)
        assert len(lines) == 17
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 0.0 and first[1] == 0.0
        assert first[4] == pytest.approx(-2.0, abs=1e-9)  # S_quantum at the origin
        for line in lines[1:]:
            assert len(line.split(",")) == 8

    def test_sampling_block(self, capsys):
        rc, out, _ = run_cli(
            capsys, "bell", "--model", "quantum", "--theta1", "0.7853981633974483",
            "--samples", "2000", "--seed", "3",
        )
        assert rc == 0
        data = json.loads(out)
        s = data["sampling"]
        assert s["n"] == 2000 and s["seed"] == 3
        assert s["algorithm"] == "numpy.random.PCG64"
        counts = np.array(s["counts"])
        assert counts.sum() == 2000
        table = np.array(data["quantum_joint"])
        assert_allclose(np.array(s["frequencies"]), table, atol=0.05)

    def test_sampling_is_seed_deterministic(self, capsys):
        args = ("bell", "--model", "quantum", "--samples", "500", "--seed", "11",
                "--theta1", "0.3")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
        _, out3, _ = run_cli(capsys, *args[:-1] + ("12",))
        assert out3 != out1

    def test_quasi_model_cannot_be_sampled(self, capsys, refused_runs):
        rc, _, err = run_cli(capsys, "bell", "--model", "quasi", "--samples", "10")
        assert rc == 2 and "sampled" in err

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_sample_count_is_checked_before_any_run(self, capsys, refused_runs, count):
        rc, _, err = run_cli(capsys, "bell", "--samples", count)
        assert rc == 2 and "positive" in err

    @pytest.mark.parametrize("count", ["10000001", "1000000000000"])
    def test_sample_count_is_capped_before_any_run(self, capsys, refused_runs, count):
        rc, out, err = run_cli(capsys, "bell", "--model", "quantum", "--samples", count)
        assert rc == 2 and out == ""
        assert err == f"error: sample count is capped at 10000000, got {count}\n"

    @pytest.mark.parametrize("points", ["257", "100000"])
    def test_sweep_points_are_capped_before_any_run(self, capsys, refused_runs, points):
        rc, out, err = run_cli(capsys, "bell", "--sweep", points)
        assert rc == 2 and out == ""
        assert err == f"error: sweep is capped at 256 points per axis, got {points}\n"

    def test_help_states_the_bounds(self, capsys):
        with pytest.raises(SystemExit):
            main(["bell", "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert "at most 256 points per axis" in out
        assert "draw N outcomes (at most 10000000)" in out

    @pytest.mark.parametrize(
        "argv, runs",
        [
            (("--theta1", "0.7", "--theta2", "1.9"), 4),
            (("--theta1", "0.7", "--theta2", "1.9", "--model", "quantum"), 4),
            (("--theta1", "0.7", "--theta2", "1.9", "--model", "quasi"), 1),
            (("--chsh-angles", "0,1.5707963,0.7853982,2.3561945"), 4),
            # (0, 0) and (1.3, 0) repeat in the (0, 1.3) x (0, 0) grid
            (("--theta1", "1.3", "--theta2", "0", "--model", "hidden"), 2),
        ],
    )
    def test_each_distinct_setting_runs_once(self, capsys, counted_runs, argv, runs):
        rc, _, _ = run_cli(capsys, "bell", *argv)
        assert rc == 0
        assert len(counted_runs) == runs == len(set(counted_runs))

    def test_a_repeated_op_searches_no_contraction_path(self, capsys, monkeypatch):
        searches = []
        original = np.einsum_path

        def counting(*operands, optimize="greedy", **kwargs):
            # einsum passes an explicit path, which needs no search, on to here too
            if optimize[0] != "einsum_path":
                searches.append(operands[0])
            return original(*operands, optimize=optimize, **kwargs)

        monkeypatch.setattr(np, "einsum_path", counting)
        monkeypatch.setitem(inspect.unwrap(np.einsum).__globals__, "einsum_path", counting)
        monkeypatch.setattr(qrsim.qrs, "_PATHS", {})
        argv = ("bell", "--theta1", "0.7", "--theta2", "1.9")
        first = run_cli(capsys, *argv)
        # one search each for the proper, formal and recorded networks
        assert len(searches) == 3
        searches.clear()
        assert run_cli(capsys, *argv) == first
        assert searches == []

    @pytest.mark.parametrize("a, b", [(INV_SQRT2, INV_SQRT2), (0.6, 0.8)])
    def test_chsh_values_match_the_library(self, capsys, a, b):
        coeffs = ("--a", repr(a), "--b", repr(b))
        _, out, _ = run_cli(capsys, "bell", *coeffs, "--theta1", "2.1", "--theta2", "4.4")
        point = json.loads(out)
        for model in ("quantum", "hidden"):
            want = chsh(a, b, (0.0, 2.1, 0.0, 4.4), model)
            assert point[f"S_{model}"] == pytest.approx(want, abs=1e-12)
        angles = (0.0, 1.5707963, 0.7853982, 2.3561945)
        _, out, _ = run_cli(
            capsys, "bell", *coeffs, "--chsh-angles", ",".join(map(repr, angles))
        )
        grid = json.loads(out)
        for model in ("quantum", "hidden"):
            want = chsh(a, b, angles, model)
            assert grid[f"S_{model}"] == pytest.approx(want, abs=1e-12)

    def test_degrees_flag(self, capsys):
        _, out_rad, _ = run_cli(
            capsys, "bell", "--model", "quantum",
            "--theta1", str(math.pi / 2), "--theta2", str(math.pi / 4),
        )
        _, out_deg, _ = run_cli(
            capsys, "bell", "--model", "quantum",
            "--theta1", "90", "--theta2", "45", "--degrees",
        )
        e_rad = json.loads(out_rad)["E_quantum"]
        e_deg = json.loads(out_deg)["E_quantum"]
        assert e_deg == pytest.approx(e_rad, abs=1e-12)

    def test_invalid_model_choice(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bell", "--model", "classical"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


def write_amplitude_scenario(tmp_path, where, bad=None):
    """A valid scenario whose ``state`` or device ``basis`` has ``bad`` deep inside.

    Returns the path and the field the exit-2 message must name; ``bad=None``
    leaves the scenario valid.
    """
    eye = [[[1.0 if i == j else 0.0, 0.0] for j in range(16)] for i in range(16)]
    data = {
        "subsystems": [{"label": "A", "dim": 16}, {"label": "M", "dim": 17}],
        "devices": [{"label": "M", "target": "A", "basis": eye}],
        "state": [[0.0, 0.0]] * (16 * 17),
    }
    data["state"][0] = [1.0, 0.0]
    if where == "state":
        field, row, k = "state[201]", data["state"], 201
    else:
        field, row, k = "devices[0]: basis[7][13]", eye[7], 13
    if bad is not None:
        row[k] = bad
    path = tmp_path / "amplitudes.json"
    path.write_text(json.dumps(data))
    return str(path), field


class TestAmplitudeParsing:
    """Amplitude lists are converted in bulk; a bad entry is still named exactly."""

    @pytest.mark.parametrize("where", ["state", "basis"])
    @pytest.mark.parametrize(
        "bad, problem",
        [
            ([True, 0], "must be a [re, im] pair"),
            ([0.0, False], "must be a [re, im] pair"),
            (["1", 0], "must be a [re, im] pair"),
            ([None, 0], "must be a [re, im] pair"),
            ([0.1, 0.2, 0.3], "must be a [re, im] pair"),
            (0.5, "must be a [re, im] pair"),
            ([HUGE, 0], "is too large for a float"),
        ],
        ids=["true", "false-imag", "string", "null", "three", "bare-number", "huge-int"],
    )
    def test_bad_entry_is_named(self, capsys, tmp_path, where, bad, problem):
        path, field = write_amplitude_scenario(tmp_path, where, bad)
        rc, out, err = run_cli(capsys, "joint", path, "A")
        assert rc == 2 and out == ""
        assert err == f"error: {path}: {field} {problem}\n"

    @pytest.mark.parametrize("where", ["state", "basis"])
    def test_valid_scenario_parses(self, capsys, tmp_path, where):
        path, _ = write_amplitude_scenario(tmp_path, where)
        rc, _, err = run_cli(capsys, "joint", path, "A")
        assert rc == 0, err

    def test_bulk_conversion_equals_the_entrywise_one(self):
        rng = np.random.default_rng(909)
        value = [[float(x), float(y)] for x, y in rng.normal(size=(500, 2))]
        value[:8] = [[-0.0, 0.0], [0.0, -0.0], [5e-324, -5e-324], [1, -1],
                     [2**53 + 1, 0], [-(2**70) - 1, 3], [1e308, 1e-300], [0, 0.0]]
        want = np.array([complex(float(re), float(im)) for re, im in value])
        got = qrsim.cli._complex_vector(value, "state")
        assert got.dtype == complex and got.tobytes() == want.tobytes()


SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, 1e-300, 1.5e16, math.nan, math.inf, -math.inf]
any_floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
finite_floats = st.one_of(
    st.sampled_from(SPECIAL_FLOATS[:5]), st.floats(allow_nan=False, allow_infinity=False)
)
json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), any_floats, st.text(),
    st.lists(finite_floats), st.lists(any_floats),
    st.lists(st.lists(finite_floats, min_size=2, max_size=2)),
    st.lists(st.lists(any_floats, min_size=2, max_size=2)),
)
json_trees = st.recursive(
    json_leaves,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=12,
)


@pytest.fixture
def emitted(monkeypatch):
    """Every object the CLI hands to its JSON emitter."""
    objects = []
    original = qrsim.cli._emit_json

    def recording(obj):
        objects.append(obj)
        original(obj)

    monkeypatch.setattr(qrsim.cli, "_emit_json", recording)
    return objects


class TestJsonEmitter:
    """stdout is exactly ``json.dumps(obj, indent=2)`` plus a newline."""

    @settings(max_examples=300, deadline=None)
    @given(json_trees)
    def test_matches_json_dumps_on_json_trees(self, tree):
        assert qrsim.cli._indented_json(tree) == json.dumps(tree, indent=2)

    def test_non_ascii_labels_are_escaped(self):
        obj = {"\u03b1": ["\u03b2+\u03b3", [0.5, -0.0]], "q": [[1e-300, 1.5e16]]}
        assert qrsim.cli._indented_json(obj) == json.dumps(obj, indent=2)
        assert "\\u03b1" in qrsim.cli._indented_json(obj)

    @pytest.mark.parametrize(
        "argv",
        [
            ("schmidt", "{mixed}", "--cut", "A+C"),
            ("schmidt", "{pair}", "--cut", "P1"),
            ("joint", "{mixed}", "A", "B+D"),
            ("joint", "{parity}", "S1+S2", "S2+S3"),
            ("joint", "{measured}", "P1+M1", "M1", "M2"),
            ("joint", "{pair}"),
            ("bell", "--model", "all", "--theta1", "0.7", "--theta2", "1.9"),
            ("bell", "--model", "quasi", "--theta1", "-0"),
            ("bell", "--model", "quantum", "--samples", "20", "--seed", "3"),
            ("bell", "--chsh-angles", "0,1.5707963,0.7853982,2.3561945"),
            ("bell", "--chsh-angles", "0,90,45,135", "--degrees", "--model", "hidden"),
        ],
    )
    def test_cli_outputs_match_json_dumps(
        self, capsys, emitted, argv, pair_file, measured_file, mixed_file, parity_file
    ):
        files = {"pair": pair_file, "measured": measured_file,
                 "mixed": mixed_file[0], "parity": parity_file}
        rc, out, _ = run_cli(capsys, *(a.format(**files) for a in argv))
        assert rc == 0 and len(emitted) == 1
        assert out == json.dumps(emitted[0], indent=2) + "\n"


class TestDeterminism:
    def test_repeated_runs_are_byte_identical_in_process(self, capsys, measured_file):
        args = ("joint", measured_file, "P1+M1", "M1", "M2")
        _, out1, err1 = run_cli(capsys, *args)
        _, out2, err2 = run_cli(capsys, *args)
        assert out1 == out2 and err1 == err2

    def test_module_invocation_is_byte_identical(self):
        cmd = ["-m", "qrsim.cli", "bell", "--sweep", "4"]
        r1 = run_python(*cmd)
        r2 = run_python(*cmd)
        assert r1.returncode == 0
        assert r1.stdout == r2.stdout
        assert r1.stdout.startswith(b"theta1,theta2,")

    def test_console_script_is_installed(self):
        """The console script that ``pyproject.toml`` declares starts the CLI.

        Installing the script is pip's step, and the suite runs uninstalled
        from the source tree, so this runs the declared entry point exactly
        as an installer's ``qrsim`` wrapper does: ``sys.argv[0]`` set to the
        script name and the callable invoked with no arguments.
        ``test_module_invocation_is_byte_identical`` covers
        ``python -m qrsim.cli``; this adds the ``pyproject.toml``
        declaration and the no-argument call of ``main``.
        """
        module, _, attr = declared_console_script().partition(":")
        wrapper = (
            'import sys; sys.argv[0] = "qrsim"; '
            f"from {module} import {attr}; sys.exit({attr}())"
        )
        result = run_python("-c", wrapper, "--help", text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("usage: qrsim")
        listed = re.search(r"\{([^}]*)\}", result.stdout).group(1).split(",")
        assert {"schmidt", "joint", "bell"} <= set(listed)

    @pytest.mark.skipif(
        installed_distribution() is None,
        reason="qrsim is not installed: importlib.metadata finds no distribution",
    )
    def test_installed_console_script_matches_the_declaration(self):
        scripts = [
            ep
            for ep in installed_distribution().entry_points
            if ep.group == "console_scripts" and ep.name == "qrsim"
        ]
        assert [ep.value for ep in scripts] == [declared_console_script()]
        exe = shutil.which("qrsim")
        assert exe is not None
        result = subprocess.run([exe, "--help"], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
