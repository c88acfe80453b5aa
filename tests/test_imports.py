import json
import os
import subprocess
import sys

# Run in a fresh interpreter: records after each step whether scipy.special
# is loaded, and whether the peer that the split estimate forked maps it.
SCRIPT = """
import contextlib, io, json, sys
loaded = {}
def note(step):
    loaded[step] = "scipy.special" in sys.modules
import jobfit.cli
note("import jobfit.cli")
with contextlib.redirect_stdout(io.StringIO()):
    try:
        jobfit.cli.main(["--help"])
    except SystemExit:
        pass
note("--help")
import numpy as np
from jobfit import ability, simulate
from jobfit.job import AGG_MAX, H_MAX, ErrorModel, balanced_job
simulate._PROCESSES = 2
spec = balanced_job(6, 6, 2, np.linspace(0.1, 0.9, 6), np.linspace(0.2, 0.8, 6), 0.3)
profile = ability.linear_profile(0.6, ability.uniform_noise(0.5))
worker = simulate.Worker(profile, profile)
# Large enough to pass the bracket path's size gate on the call's trials,
# a gate that only truncated-normal noise opens, and to split in two shares.
trials = 2 * simulate._BRACKET_TRIALS + simulate.BLOCK_TRIALS
assert trials >= simulate._BRACKET_TRIALS and len(simulate._call_blocks(trials)) > 1
simulate.estimate_success_probability(worker, spec, ErrorModel(), simulate.SimConfig(trials, seed=1))
note("uniform linear estimate")
peers = [process.pid for process, _ in simulate._peers.peers]
maps = []
for pid in peers:
    try:
        with open(f"/proc/{pid}/maps") as fh:
            maps.append("scipy/special" in fh.read())
    except OSError:
        pass
all_max = ErrorModel(H_MAX, AGG_MAX, AGG_MAX)
assert simulate._thresholds_apply([worker], spec, all_max)
simulate.estimate_success_probability(worker, spec, all_max, simulate.SimConfig(2 * simulate.BLOCK_TRIALS, seed=2))
note("uniform all-max estimate")
ability.truncnorm_noise(0.0)
note("truncnorm_noise(0.0)")
ability.truncnorm_var(0.01)
note("truncnorm_var(0.01)")
print(json.dumps({"loaded": loaded, "peers": len(peers), "peer_maps_special": maps}))
"""


def test_scipy_special_loads_only_with_a_truncated_normal_law():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    assert got["loaded"] == {
        "import jobfit.cli": False,
        "--help": False,
        "uniform linear estimate": False,
        "uniform all-max estimate": False,
        "truncnorm_noise(0.0)": False,
        "truncnorm_var(0.01)": True,
    }
    assert got["peers"] == 1
    assert not any(got["peer_maps_special"])
