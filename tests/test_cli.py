import argparse
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from jobfit.ability import constant_profile, linear_profile, truncnorm_var, uniform_noise
from jobfit import simulate
from jobfit.cli import SWEEP_COLUMNS, _build_parser, main
from jobfit.dataio import AI_SLOPE, AI_VARIANCE, load_fixture_job, named_worker
from jobfit.job import FIXTURE_MODEL, ErrorModel, balanced_job
from jobfit.simulate import SimConfig, Worker, apply_knob, estimate_many, estimate_success_probability, sweep
from jobfit.theory import compression_bound

JOB_FLAGS = "--job --no-divide --psi --h --g --f --tau --seed --trials --out"
WORKER_FLAGS = "--worker --a1 --c1 --beta1 --var1 --a2 --c2 --beta2 --var2 --noise --sigma --p"
CLI_OPTIONS = {
    "estimate": f"{JOB_FLAGS} {WORKER_FLAGS}",
    "sweep": f"{JOB_FLAGS} {WORKER_FLAGS} --param --grid --param2 --grid2 --format --no-crn",
    "phase": f"{JOB_FLAGS} {WORKER_FLAGS} --vary --theta --convention",
    "merge": f"{JOB_FLAGS} {WORKER_FLAGS} {WORKER_FLAGS.replace('--', '--b-')} --strategy --pick --trust",
    "compress": f"{JOB_FLAGS} --a-low --a-high --ai-a --ai-c --theta",
    "bias": f"{JOB_FLAGS} --beta --qualify-p --reject-p --curve-grid",
    "divide": "--s --decision-degree --psi --out",
    "fit": "--table --out",
    "rerun": "",
}


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


EXPLICIT = ("--a1", "0.5", "--c2", "0.5", "--trials", "10")
B_EXPLICIT = ("--b-a1", "0.5", "--b-c2", "0.5")


@pytest.mark.parametrize("argv, named", [
    (("estimate", *EXPLICIT, "--var1", "-1"), "--var1"),
    (("merge", *EXPLICIT, *B_EXPLICIT, "--b-var1", "-1"), "--b-var1"),
    (("merge", *EXPLICIT, *B_EXPLICIT, "--b-var2", "-0.5"), "--b-var2"),
    (("estimate", *EXPLICIT, "--noise", "trunc", "--sigma", "inf"), "sigma"),
    (("estimate", *EXPLICIT, "--noise", "trunc", "--var1", "inf"), "sigma"),
    (("merge", "--trials", "10", "--strategy", "trust", "--trust", "nan"), "scale"),
    (("merge", "--trials", "10", "--strategy", "trust", "--trust", "inf"), "scale"),
    (("merge", "--trials", "10", "--strategy", "trust", "--trust", "-1"), "scale"),
], ids=["var1", "b-var1", "b-var2", "sigma-inf", "var1-inf", "trust-nan", "trust-inf", "trust-negative"])
def test_invalid_noise_and_trust_exit_2_with_a_message(capsys, argv, named):
    code, stdout, err = run(capsys, *argv)
    assert code == 2 and not stdout and err.startswith("error: ") and named in err


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
                                   ("--noise", "trunc"), ("--sigma", "0.2", "--var1", "0.01"),
                                   ("--noise", "trunc", "--var2", "0.01"), ("--var1", "0.01"), ("--var2", "0.01")])
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
            w, at = base, spec
            for name, v in ((p1, v1), (p2, v2)):
                if name == "tau":
                    at = spec.with_tau(v)
                else:
                    w = apply_knob(w, name, v)
            # Cleared so that no cell reads the columns of the CLI's own call.
            monkeypatch.setattr(simulate, "_carry", simulate._Carry())
            expect.append(estimate_success_probability(w, at, ErrorModel(), SimConfig(300, 1234)).value)
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


@pytest.mark.parametrize("axes, bad", [
    (("--param", "tau", "--grid=-1:0:2"), "-1.0"),
    (("--param", "a1", "--grid", "0:0.5:2", "--param2", "tau", "--grid2", "nan:0.5:2"), "nan"),
])
def test_sweep_rejects_a_tau_axis_outside_its_range(capsys, tmp_path, axes, bad):
    # The tau axis goes through the same check as --tau: finite and >= 0.
    for crn in ((), ("--no-crn",)):
        out = tmp_path / "sweep.json"
        code, stdout, err = run(capsys, "sweep", *axes, *crn, "--trials", "100", "--out", str(out))
        assert code == 2 and not stdout
        assert err.startswith("error: ") and f"tau must be finite and >= 0, got {bad}" in err
        assert not out.exists()


def test_divide_subcommand(capsys):
    code, stdout, _ = run(capsys, "divide", "--s", "0.7", "--decision-degree", "0.4")
    assert code == 0
    assert "s1 = 0.28" in stdout and "s2 = 0.42" in stdout


def test_bias_trivial(capsys):
    code, stdout, _ = run(capsys, "bias", "--beta", "1.0",
                          "--curve-grid", "0:0.6:25", "--trials", "2000")
    assert code == 0
    assert "rate = 0.0000" in stdout


def test_bias_thresholds_outside_the_unit_interval_exit_2(capsys):
    for flags in (["--qualify-p", "1.5"], ["--reject-p", "-0.1"], ["--qualify-p", "0.5", "--reject-p", "0.6"]):
        code, stdout, err = run(capsys, "bias", *flags, "--curve-grid", "0:0.6:4", "--trials", "300")
        assert code == 2 and not stdout and "reject_p < qualify_p" in err, flags


def test_bias_curve_runs_at_trials(capsys, tmp_path, monkeypatch):
    # --trials sets the curve's trials, 20,000 by default.
    assert _build_parser().parse_args(["bias"]).trials == 20_000
    out = tmp_path / "bias.json"
    assert run(capsys, "bias", "--curve-grid", "0:0.6:4", "--trials", "300", "--out", str(out))[0] == 0
    doc = json.loads(out.read_text())
    monkeypatch.setattr(simulate, "_carry", simulate._Carry())
    points = sweep(named_worker("human"), load_fixture_job(), FIXTURE_MODEL, "a1", doc["curve_a"],
                   SimConfig(300, 1234), crn=True)
    assert doc["curve_p"] == [pt.estimate.value for pt in points]


def test_bias_and_compress_no_divide_take_the_skill_level_presets(capsys, tmp_path, monkeypatch):
    # --no-divide evaluates the undivided job, so the human is the unsplit
    # human-skill preset and the compression assistant has the whole AI variance.
    spec, model = load_fixture_job(divide=False), ErrorModel(h="average", g="weighted", f="weighted")
    config = SimConfig(300, 1234)
    out = tmp_path / "bias.json"
    assert run(capsys, "bias", "--no-divide", "--curve-grid", "0:0.6:4", "--trials", "300", "--out", str(out))[0] == 0
    monkeypatch.setattr(simulate, "_carry", simulate._Carry())
    points = sweep(named_worker("human-skill"), spec, model, "a1", json.loads(out.read_text())["curve_a"], config)
    assert json.loads(out.read_text())["curve_p"] == [pt.estimate.value for pt in points]
    assert run(capsys, "compress", "--no-divide", "--trials", "300", "--out", str(out))[0] == 0
    human, noise = named_worker("human-skill"), truncnorm_var(AI_VARIANCE)
    ai = Worker(linear_profile(AI_SLOPE, noise), constant_profile(0.8, noise))
    monkeypatch.setattr(simulate, "_carry", simulate._Carry())
    report = compression_bound(apply_knob(human, "a2", 0.1), apply_knob(human, "a2", 0.8), ai,
                               spec, model, 0.1, config=config)
    assert json.loads(out.read_text())["report"]["pc"] == report.pc


def test_cli_surface_is_pinned():
    """Each subcommand takes only the options its handler reads: 147 in all."""
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    surface = {name: " ".join("/".join(a.option_strings) for a in p._actions
                              if a.option_strings and not isinstance(a, argparse._HelpAction))
               for name, p in sub.choices.items()}
    assert surface == CLI_OPTIONS
    assert sum(len(flags.split()) for flags in surface.values()) == 147


def _readme_commands() -> list[list[str]]:
    """The argv of every ``jobfit`` command in README's shell code blocks,
    with ``\\`` continuations joined and ``#`` comments dropped."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"^```(?:sh|bash|shell)?\n(.*?)^```", text, re.S | re.M):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["jobfit"]:
                commands.append(words[1:])
    return commands


def test_every_readme_command_parses(capsys):
    # A flag the parser dropped must not stay in the docs.
    commands, refused = _readme_commands(), []
    assert len(commands) > 10
    for argv in commands:
        try:
            _build_parser().parse_args(argv)
        except SystemExit:
            refused.append(" ".join(argv))
    assert refused == [], capsys.readouterr().err


@pytest.mark.parametrize("argv", [("divide", "--s", "0.7", "--decision-degree", "0.4", "--trials", "5"),
                                  ("fit", "--seed", "1"),
                                  ("estimate", "--format", "csv"),
                                  ("sweep", "--param", "a1", "--grid", "0:1:2", "--crn"),
                                  ("bias", "--curve-trials", "2000"),
                                  ("estimate", "--a1", "0.5", "--a2", "0.5", "--sigma1", "0.2"),
                                  ("merge", "--b-a1", "0.5", "--b-a2", "0.5", "--b-sigma2", "0.2"),
                                  ("divide", "--s", "0.7", "--decision-degree", "0.4", "--lambda", "0.4")],
                         ids=["divide-trials", "fit-seed", "estimate-format", "sweep-crn", "bias-curve-trials",
                              "sigma1", "b-sigma2", "lambda"])
def test_removed_flags_exit_2(capsys, argv):
    flag = next(a for a in reversed(argv) if a.startswith("--"))
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2 and f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (("estimate", "--job", "balanced:n=6,m=6,k=2", "--psi", "square"), "--psi"),
    (("estimate", "--job", "balanced:n=6,m=6,k=2", "--no-divide"), "--no-divide"),
    (("estimate", "--no-divide", "--psi", "exp_ratio"), "--psi"),
    (("sweep", "--param", "a1", "--grid", "0:1:2", "--param2", "a2", "--grid2", "0:1:2", "--format", "csv"),
     "--format csv"),
    (("sweep", "--param", "a1", "--grid", "0:1:2", "--grid2", "0:1:2"), "--grid2"),
    (("merge", "--pick", "BA"), "--pick"),
    (("merge", "--strategy", "uniform", "--trust", "1.5"), "--trust"),
    (("merge", "--strategy", "trust", "--pick", "AB"), "--pick"),
], ids=["balanced-psi", "balanced-no-divide", "no-divide-psi", "heatmap-format-csv", "grid2-without-param2",
        "merge-pick-per-subskill", "merge-trust-uniform", "merge-pick-trust"])
def test_flags_that_would_change_nothing_exit_2(capsys, tmp_path, argv, flag):
    # Each flag would change nothing here, so it is refused rather than ignored.
    out = tmp_path / "out"
    code, stdout, err = run(capsys, *argv, "--trials", "10", "--out", str(out))
    assert code == 2 and not stdout and err.startswith("error: ") and flag in err
    assert not out.exists()


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


@pytest.mark.parametrize("argv, plan", [((), {"strategy": "uniform", "pick": "AB"}),
                                        (("--pick", "BA"), {"strategy": "uniform", "pick": "BA"})])
def test_merge_uniform_pick_defaults_to_ab(capsys, tmp_path, argv, plan):
    out = tmp_path / "merge.json"
    assert run(capsys, "merge", "--strategy", "uniform", *argv, "--trials", "200", "--out", str(out))[0] == 0
    assert json.loads(out.read_text())["plan"] == plan


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


def test_phase_warns_when_both_ends_have_stderr_zero(capsys):
    # The balanced job's window ends read P = 0 and P = 1 exactly, so the
    # check passes whatever the window's width; the report stays as it is.
    argv = ["phase", "--job", "balanced:n=20,m=20,k=4,seed=111225,tau=0.25", "--a1", "0.6", "--a2", "0.4",
            "--sigma", "0.1", "--theta", "0.2", "--trials", "2000"]
    code, stdout, err = run(capsys, *argv)
    assert code == 0 and "verified = True" in stdout
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("warning: P = 0 at a1 = 0.")
    assert lines[0].endswith("both with stderr 0: the check cannot tell whether the window is narrower "
                             "than predicted")
