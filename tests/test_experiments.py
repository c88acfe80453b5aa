"""The committed paper experiments (experiments/*.json) replay through `jobfit rerun`.

Each manifest is what its own argv writes, and a replay at 2,000 trials gives
the numbers the experiment scripts that these manifests replace wrote at
2,000 trials (the bias curve: `jobfit bias` with the same argv).
"""

import csv
import json
import math
from pathlib import Path

from jobfit.cli import main

EXPERIMENTS = Path(__file__).resolve().parents[1] / "experiments"
CUT = {"--trials": "2000", "--curve-trials": "2000"}

# (first, last, fsum) of the numbers each command prints, by float.hex().
GOLDEN = {
    "bias_rates": ("0x1.fbf20c391eea7p-1", "0x0.0p+0", "0x1.a71c1db99581ap+2"),
    "case_study_ai": ("0x1.53f7ced916873p-5", "0x1.24454202f850fp-8", "0x1.7880771975915p-5"),
    "case_study_ai_undivided": ("0x1.c49ba5e353f7dp-4", "0x1.cb6dff82a5c4ep-8", "0x1.e15285db7e542p-4"),
    "case_study_human": ("0x1.0f9db22d0e560p-1", "0x1.6dacd599b911cp-7", "0x1.15546583753a4p-1"),
    "case_study_human_undivided": ("0x1.aa7ef9db22d0ep-1", "0x1.1148f0bfed33cp-7", "0x1.aec41d9e2285bp-1"),
    "compression_point": ("0x1.8a3d70a3d70a4p-3", "0x1.8f9db22d0e560p-1", "0x1.f916872b020c4p+1"),
    "dependency_ability_p0": ("0x1.810624dd2f1aap-4", "0x1.0000000000000p+0", "0x1.3b94fdf3b645ap+6"),
    "dependency_ability_p0.2": ("0x1.199999999999ap-3", "0x1.ff7ced916872bp-1", "0x1.37a978d4fdf3bp+6"),
    "dependency_ability_p0.4": ("0x1.c6a7ef9db22d1p-3", "0x1.f810624dd2f1bp-1", "0x1.2f3be76c8b439p+6"),
    "dependency_ability_p0.8": ("0x1.5eb851eb851ecp-2", "0x1.d0624dd2f1aa0p-1", "0x1.17bbe76c8b439p+6"),
    "dependency_coupling_a0.1": ("0x1.028f5c28f5c29p-2", "0x1.d0e5604189375p-2", "0x1.28b4395810625p+4"),
    "dependency_coupling_a0.22": ("0x1.0f9db22d0e560p-1", "0x1.10624dd2f1aa0p-1", "0x1.b204189374bc7p+4"),
    "dependency_coupling_a0.34": ("0x1.93b645a1cac08p-1", "0x1.347ae147ae148p-1", "0x1.189999999999ap+5"),
    "phase_curve_sigma0.05": ("0x0.0p+0", "0x1.0000000000000p+0", "0x1.bc4ac083126e9p+5"),
    "phase_curve_sigma0.1": ("0x0.0p+0", "0x1.0000000000000p+0", "0x1.bc83126e978d5p+5"),
    "phase_curve_sigma0.2": ("0x0.0p+0", "0x1.0000000000000p+0", "0x1.bd80000000000p+5"),
    "phase_report_sigma0.05": ("0x1.065f700000000p-1", "0x1.6787aa5b7512cp-5", "0x1.1cd7eaa5b7513p-1"),
    "phase_report_sigma0.1": ("0x1.065f700000000p-1", "0x1.6787aa5b7512cp-4", "0x1.3350654b6ea26p-1"),
    "phase_report_sigma0.2": ("0x1.065f700000000p-1", "0x1.6787aa5b7512cp-3", "0x1.60415a96dd44bp-1"),
}


def _cut(argv: list[str]) -> list[str]:
    return [CUT.get(flag, value) for flag, value in zip([""] + argv, argv)]


def _printed(path: Path) -> list[float]:
    """The numbers the command prints: a sweep's P column, an estimate's P
    and stderr, a phase report's critical value and width, the four
    compression estimates and PC, the bias rates."""
    if path.suffix == ".csv":
        return [float(row["p_hat"]) for row in csv.DictReader(path.open())]
    doc = json.loads(path.read_text())
    if doc["kind"] == "estimate":
        return [doc["estimate"]["value"], doc["estimate"]["stderr"]]
    if doc["kind"] == "phase":
        return [doc["report"]["mu1_c"], doc["report"]["gamma1"]]
    if doc["kind"] == "compress":
        r = doc["report"]
        return [r[k]["value"] for k in ("p1", "p2", "p1_merged", "p2_merged")] + [r["pc"]]
    assert doc["kind"] == "bias"
    return list(doc["rates"].values())


def _text(manifest: dict) -> str:
    return json.dumps(manifest, indent=2, sort_keys=True) + "\n"


def test_experiments_replay_to_the_script_numbers(tmp_path, monkeypatch):
    committed = {p.stem: p.read_text() for p in sorted(EXPERIMENTS.glob("*.json"))}
    assert sorted(committed) == sorted(GOLDEN)
    manifests = {name: json.loads(text) for name, text in committed.items()}
    for name, manifest in manifests.items():
        argv = manifest["argv"]
        assert committed[name] == _text(manifest)
        assert argv[argv.index("--seed") + 1] == "1234" and "--trials" in argv
        assert manifest["outputs"] == [argv[argv.index("--out") + 1]]
        assert Path(manifest["outputs"][0]).stem == name
    monkeypatch.chdir(tmp_path)
    cut = {name: dict(m, argv=_cut(m["argv"])) for name, m in manifests.items()}
    for name, manifest in cut.items():
        (tmp_path / f"{name}.json").write_text(_text(manifest))
    assert main(["rerun", *(f"{name}.json" for name in cut)]) == 0
    for name, manifest in cut.items():
        out = Path(manifest["outputs"][0])
        # The manifest a replay writes differs from the committed one only in the cut argv.
        assert Path(f"{out}.manifest.json").read_text() == _text(manifest)
        values = _printed(out)
        assert (values[0].hex(), values[-1].hex(), math.fsum(values).hex()) == GOLDEN[name], name
