"""The experiment scripts run as programs and write what the library computes."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from jobfit import simulate
from jobfit.ability import constant_profile, linear_profile, truncnorm_var
from jobfit.cli import parse_grid
from jobfit.dataio import AI_VARIANCE, load_fixture_job, named_worker
from jobfit.job import FIXTURE_MODEL
from jobfit.merging import evaluate_merge_gain, merge_per_subskill, merge_with_trust
from jobfit.simulate import SimConfig, Worker

ROOT = Path(__file__).resolve().parents[1]


def _rows(path: Path) -> list[list[str]]:
    with path.open(newline="") as f:
        return list(csv.reader(f))


def test_merging_maps_script_equals_cells_computed_one_by_one(tmp_path, monkeypatch):
    # The script runs its cells back to back on one seed, so later cells
    # read counts and level columns that earlier cells left; each cell here
    # starts from an empty carry.
    grids = {"--a-grid": "0:0.4:3", "--c-grid": "0.6:1.0:3"}
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, str(ROOT / "scripts" / "merging_maps.py"), "--trials", "500",
                    *[v for kv in grids.items() for v in kv], "--outdir", str(tmp_path)],
                   check=True, env=env, capture_output=True, timeout=300)

    spec, human = load_fixture_job(), named_worker("human")
    config = SimConfig(trials=500, seed=1234)
    noise = truncnorm_var(AI_VARIANCE / 2)

    def gain(other, merged):
        monkeypatch.setattr(simulate, "_carry", simulate._Carry())
        return evaluate_merge_gain({"p1": human, "p2": other}, {"merge": merged}, spec, FIXTURE_MODEL, config)

    want = [["a", "c", "p_merge", "p1", "p2", "delta"]]
    for a in parse_grid(grids["--a-grid"]):
        for c in parse_grid(grids["--c-grid"]):
            other = Worker(linear_profile(a, noise), constant_profile(c, noise))
            res = gain(other, merge_per_subskill(human, other, spec)[0])
            want.append([str(v) for v in (a, c, res.table["merge"].value, res.table["p1"].value,
                                          res.table["p2"].value, res.delta)])
    assert _rows(tmp_path / "merge_gain_map.csv") == want

    want = [["trust", "delta", "p_merge"]]
    other = Worker(linear_profile(0.2, noise), constant_profile(0.2, noise))
    for trust in np.linspace(0.8, 2.0, 25):
        res = gain(other, merge_with_trust(human, other, spec, float(trust))[0])
        want.append([str(trust), str(res.delta), str(res.table["merge"].value)])
    assert _rows(tmp_path / "trust_slice.csv") == want
