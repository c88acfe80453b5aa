import json
from pathlib import Path

import numpy as np
import pytest

from jobfit.ability import linear_profile, uniform_noise
from jobfit import simulate
from jobfit.cli import SWEEP_COLUMNS, main
from jobfit.job import ErrorModel, balanced_job
from jobfit.simulate import SimConfig, Worker, apply_knob, estimate_many, estimate_success_probability


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


@pytest.mark.parametrize("flags", [("--sigma", "-1"), ("--noise", "uniform", "--sigma", "2"),
                                   ("--noise", "trunc"), ("--sigma1", "0.2"), ("--sigma2", "0.2"),
                                   ("--var1", "0.01"), ("--var2", "0.01")])
def test_preset_rejects_noise_flags(capsys, flags):
    # A preset fixes its own noise; a noise flag beside it used to be ignored.
    code, stdout, err = run(capsys, "estimate", "--worker", "human", "--trials", "10", *flags)
    assert code == 2 and not stdout
    assert err.startswith("error: ") and flags[-2] in err and "'human'" in err


@pytest.mark.parametrize("flags", [("--b-sigma", "0.3"), ("--b-noise", "trunc"), ("--b-var2", "0.01")])
def test_second_preset_rejects_noise_flags(capsys, flags):
    code, _, err = run(capsys, "merge", "--trials", "10", *flags)
    assert code == 2 and flags[0] in err and "'ai'" in err


def test_preset_keeps_dependency_flag(capsys):
    code, stdout, _ = run(capsys, "estimate", "--worker", "human", "--p", "0.3", "--trials", "10")
    assert code == 0 and stdout.startswith("P = ")


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


@pytest.mark.parametrize("axes", [("a1", "0:0.6:2", "a2", "0:0.6:3"), ("a1", "0:0.6:3", "sigma", "0.1:0.4:2"),
                                  ("tau", "0.1:0.3:3", "a2", "0:0.6:2"), ("a1", "0:0.6:2", "tau", "0.1:0.3:3")])
def test_sweep_heatmap_cells_equal_single_estimates(capsys, tmp_path, axes, monkeypatch):
    # Row-major cells, each equal to its own estimate on the same seed.
    p1, g1, p2, g2 = axes
    out = tmp_path / "heat.json"
    assert run(capsys, "sweep", "--param", p1, "--grid", g1, "--param2", p2, "--grid2", g2,
               "--trials", "300", "--out", str(out), "--job", "balanced:n=6,m=6,k=2,seed=3,tau=0.2",
               "--a1", "0.3", "--a2", "0.3", "--sigma", "0.3", "--p", "0.4")[0] == 0
    doc = json.loads(out.read_text())
    rng = np.random.default_rng(3)
    spec = balanced_job(6, 6, 2, rng.uniform(size=6), rng.uniform(size=6), 0.2)
    base = Worker(linear_profile(0.3, uniform_noise(0.3)), linear_profile(0.3, uniform_noise(0.3)), 0.4)
    assert len(set(doc["values"])) > 2
    expect = []
    for v1 in doc["grid1"]:
        for v2 in doc["grid2"]:
            w, tau = base, None
            for name, v in ((p1, v1), (p2, v2)):
                if name == "tau":
                    tau = v
                else:
                    w = apply_knob(w, name, v)
            # Cleared so that no cell is served the counts or columns of the CLI's own call.
            monkeypatch.setattr(simulate, "_carry", simulate._Carry())
            expect.append(estimate_success_probability(w, spec, ErrorModel(), SimConfig(300, 1234), tau).value)
    assert doc["values"] == expect


@pytest.mark.parametrize("axes", [("a1", "0:0.6:2", "a2", "0:0.6:3"), ("tau", "0.1:0.3:3", "a2", "0:0.6:2"),
                                  ("a1", "0:0.6:2", "tau", "0.1:0.3:3")])
def test_no_crn_heatmap_cells_draw_their_own_streams(capsys, tmp_path, axes):
    # Row-major cell k draws from tag 1 + k; rows used to repeat the tags of row 0.
    p1, g1, p2, g2 = axes
    out = tmp_path / "heat.json"
    assert run(capsys, "sweep", "--param", p1, "--grid", g1, "--param2", p2, "--grid2", g2, "--no-crn",
               "--trials", "300", "--out", str(out), "--job", "balanced:n=6,m=6,k=2,seed=3,tau=0.2",
               "--a1", "0.3", "--a2", "0.3", "--sigma", "0.3", "--p", "0.4")[0] == 0
    doc = json.loads(out.read_text())
    rng = np.random.default_rng(3)
    spec = balanced_job(6, 6, 2, rng.uniform(size=6), rng.uniform(size=6), 0.2)
    base = Worker(linear_profile(0.3, uniform_noise(0.3)), linear_profile(0.3, uniform_noise(0.3)), 0.4)
    expect = []
    for v1 in doc["grid1"]:
        for v2 in doc["grid2"]:
            w, tau = base, None
            for name, v in ((p1, v1), (p2, v2)):
                if name == "tau":
                    tau = v
                else:
                    w = apply_knob(w, name, v)
            expect.append(estimate_many([w], spec, ErrorModel(), SimConfig(300, 1234), [tau], 1 + len(expect))[0].value)
    assert doc["values"] == expect


def test_sweep_heatmap_rejects_same_knob_twice(capsys, tmp_path):
    out = tmp_path / "heat.json"
    code, _, err = run(capsys, "sweep", "--param", "a1", "--grid", "0:1:3",
                       "--param2", "a1", "--grid2", "0:1:2", "--trials", "200", "--out", str(out))
    assert code == 2 and "--param2 must differ from --param" in err
    assert not out.exists()


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
    code, stdout, err = run(capsys, "phase", "--job", "balanced:n=20,m=20,k=4,seed=111225,tau=0.25",
                            "--a1", "0.6", "--a2", "0.4", "--sigma", "0.1",
                            "--theta", "0.2", "--trials", "2000", "--out", str(out2))
    assert code == 0 and "clipped" not in err
    doc = json.loads(out2.read_text())
    assert doc["report"]["verified"] is True
    assert doc["report"]["mu1_c"] == pytest.approx(0.5124, abs=1e-3)


def test_phase_warns_when_window_is_clipped(capsys):
    # Fixture human at theta = 0.2: mu_c - gamma < 0, so the low check runs at a1 = 0.
    code, stdout, err = run(capsys, "phase", "--theta", "0.2", "--trials", "2000")
    assert code == 0 and "verified = True" in stdout
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("warning: low side of the window clipped: mu_c - gamma = -0.4")
    assert lines[0].endswith("checked at the lower bracket end a1 = 0.0000")


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


def test_rerun_replays_several_manifests_in_order(capsys, tmp_path):
    outs = [tmp_path / "a.json", tmp_path / "b.csv"]
    runs = [("estimate", "--worker", "ai", "--trials", "500", "--out", str(outs[0])),
            ("sweep", "--param", "a1", "--grid", "0.2:0.8:3", "--trials", "400", "--out", str(outs[1]))]
    for args in runs:
        assert run(capsys, *args)[0] == 0
    first = [out.read_bytes() for out in outs]
    for out in outs:
        out.unlink()
    code, stdout, _ = run(capsys, "rerun", *(f"{out}.manifest.json" for out in outs))
    assert code == 0 and stdout.index("P = ") < stdout.index("sweep a1")
    assert [out.read_bytes() for out in outs] == first


@pytest.mark.parametrize("manifest, message", [
    ('["estimate"]', "JSON object"),
    ('{"argv": "estimate"}', "list of strings"),
    ('{"argv": ["estimate", 3]}', "list of strings"),
    ('{"tool": "jobfit"}', "list of strings"),
    ("{not json", "cannot read manifest"),
    ('{"argv": ["rerun", "SELF"]}', "recurse"),
])
def test_rerun_rejects_malformed_manifests(capsys, tmp_path, manifest, message):
    path = tmp_path / "m.json"
    path.write_text(manifest.replace("SELF", str(path)))
    code, stdout, err = run(capsys, "rerun", str(path))
    assert code == 2 and not stdout
    assert err.startswith("error: ") and message in err and str(path) in err


def test_rerun_checks_every_manifest_before_replaying(capsys, tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"argv": ["estimate", "--trials", "10", "--out", str(tmp_path / "e.json")]}))
    bad = tmp_path / "bad.json"
    bad.write_text("[]")
    code, stdout, err = run(capsys, "rerun", str(good), str(bad))
    assert code == 2 and not stdout and "bad.json" in err
    assert not (tmp_path / "e.json").exists()


def test_rerun_keeps_the_replayed_exit_code(capsys, tmp_path):
    # tau = 0.99 lies above every Err_avg the job attains: a numerical failure.
    phase = ["phase", "--job", "balanced:n=6,m=6,k=2,seed=1,tau=0.99", "--trials", "500"]
    code, _, alone = run(capsys, *phase)
    assert code == 3 and alone.startswith("numerical failure: ")
    cases = [(phase, 3, "numerical failure: "),
             (["estimate", "--job", str(tmp_path / "missing.json")], 2, "error: ")]
    for argv, want, prefix in cases:
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"argv": argv}))
        code, stdout, err = run(capsys, "rerun", str(manifest))
        assert code == want and not stdout
        assert err.startswith(prefix) and str(manifest) in err


def test_phase_rejects_a_knob_that_is_no_ability_parameter(capsys):
    for vary in ("p", "tau", "a", "sigma1"):
        code, stdout, err = run(capsys, "phase", "--vary", vary, "--trials", "200")
        assert code == 2 and not stdout and f"cannot vary {vary!r}" in err


def test_seed_default_is_fixed(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        assert run(capsys, "estimate", "--worker", "ai", "--trials", "800",
                   "--out", str(path))[0] == 0
    assert a.read_text() == b.read_text()
