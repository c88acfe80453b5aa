import json
from pathlib import Path

import pytest

from jobfit.cli import SWEEP_COLUMNS, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_estimate_fixture_human(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, stdout, _ = run(capsys, "estimate", "--worker", "human",
                          "--trials", "3000", "--out", str(out))
    assert code == 0
    assert "P = 0.5" in stdout
    doc = json.loads(out.read_text())
    assert doc["kind"] == "estimate"
    assert 0.45 <= doc["estimate"]["value"] <= 0.62
    manifest = json.loads((tmp_path / "report.json.manifest.json").read_text())
    assert manifest["tool"] == "jobfit" and str(out) in manifest["outputs"]


def test_estimate_single_trial(capsys):
    code, stdout, _ = run(capsys, "estimate", "--worker", "ai", "--trials", "1")
    assert code == 0
    assert "P = 0.0000" in stdout or "P = 1.0000" in stdout


def test_validation_exit_code(capsys):
    code, _, err = run(capsys, "estimate", "--job", "/nonexistent/job.json")
    assert code == 2 and err
    code, _, err = run(capsys, "estimate", "--a1", "0.5", "--a2", "0.5", "--c2", "0.3")
    assert code == 2


def test_bad_seed_and_balanced_descriptor_exit_2(capsys):
    code, _, err = run(capsys, "estimate", "--seed", "-1", "--trials", "10")
    assert code == 2 and "seed" in err
    for job in ("balanced:n=5,m", "balanced:n=five", "balanced:q=1", "balanced:n=5,seed=-3"):
        code, _, err = run(capsys, "estimate", "--job", job, "--trials", "10")
        assert code == 2 and "balanced" in err, job


def test_numerical_exit_code(capsys):
    # tau far above anything attainable: no root for the critical ability
    code, _, err = run(capsys, "phase", "--job", "balanced:n=6,m=6,k=2,seed=1,tau=0.99",
                       "--a1", "0.5", "--a2", "0.5", "--sigma", "0.1", "--trials", "500")
    assert code == 3 and "numerical" in err


def test_sweep_csv_columns(capsys, tmp_path):
    out = tmp_path / "curve.csv"
    code, _, _ = run(capsys, "sweep", "--param", "a1", "--grid", "0.2:0.8:4",
                     "--trials", "500", "--out", str(out),
                     "--job", "balanced:n=6,m=6,k=2,seed=3,tau=0.3",
                     "--a1", "0.5", "--a2", "0.5", "--sigma", "0.2")
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "a1" and float(first[1]) == 0.2
    assert int(first[6]) == 500 and int(first[7]) == 1234


def test_sweep_heatmap_json(capsys, tmp_path):
    out = tmp_path / "heat.json"
    code, _, _ = run(capsys, "sweep", "--param", "a1", "--grid", "0.3:0.7:3",
                     "--param2", "sigma", "--grid2", "0.1:0.5:2",
                     "--trials", "400", "--out", str(out),
                     "--job", "balanced:n=6,m=6,k=2,seed=3,tau=0.3",
                     "--a1", "0.5", "--a2", "0.5")
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "heatmap"
    assert len(doc["grid1"]) == 3 and len(doc["grid2"]) == 2
    assert len(doc["values"]) == 6  # row-major over (grid1, grid2)


def test_divide_subcommand(capsys):
    code, stdout, _ = run(capsys, "divide", "--s", "0.7", "--decision-degree", "0.4")
    assert code == 0
    assert "s1 = 0.28" in stdout and "s2 = 0.42" in stdout


def test_bias_trivial(capsys):
    code, stdout, _ = run(capsys, "bias", "--beta", "1.0",
                          "--curve-grid", "0:0.6:25", "--curve-trials", "2000")
    assert code == 0
    assert "rate = 0.0000" in stdout


def test_fit_subcommand(capsys):
    code, stdout, _ = run(capsys, "fit")
    assert code == 0
    assert "human: a = 0.2" in stdout and "llm: a = 0.0" in stdout


def test_merge_and_phase_reports(capsys, tmp_path):
    out = tmp_path / "merge.json"
    code, stdout, _ = run(capsys, "merge", "--b-a1", "0.1", "--b-c2", "0.8",
                          "--b-noise", "trunc", "--b-var1", "0.0145", "--b-var2", "0.0145",
                          "--trials", "2000", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["plan"]["strategy"] == "per_subskill"
    assert doc["delta"] > 0.2
    out2 = tmp_path / "phase.json"
    code, stdout, _ = run(capsys, "phase", "--job", "balanced:n=20,m=20,k=4,seed=111225,tau=0.25",
                          "--a1", "0.6", "--a2", "0.4", "--sigma", "0.1",
                          "--theta", "0.2", "--trials", "2000", "--out", str(out2))
    assert code == 0
    doc = json.loads(out2.read_text())
    assert doc["report"]["verified"] is True
    assert doc["report"]["mu1_c"] == pytest.approx(0.5124, abs=1e-3)


def test_manifest_rerun_reproduces_bytes(capsys, tmp_path):
    out = tmp_path / "curve.csv"
    args = ("sweep", "--param", "a1", "--grid", "0.2:0.8:5", "--trials", "600",
            "--job", "balanced:n=8,m=8,k=2,seed=9,tau=0.3",
            "--a1", "0.5", "--a2", "0.5", "--sigma", "0.3", "--out", str(out))
    assert run(capsys, *args)[0] == 0
    first = out.read_bytes()
    out.unlink()
    assert run(capsys, "rerun", str(tmp_path / "curve.csv.manifest.json"))[0] == 0
    assert out.read_bytes() == first


def test_seed_default_is_fixed(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        assert run(capsys, "estimate", "--worker", "ai", "--trials", "800",
                   "--out", str(path))[0] == 0
    assert a.read_text() == b.read_text()
