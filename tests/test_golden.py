"""Sweep outputs pinned byte for byte against recorded files.

The files in tests/golden/ are the outputs of the runs below, with the
summary's version line blanked.  hm_sweep.csv and outage.csv are as
version 0.4.0 wrote them.  lm_sweep.csv and the three summaries were
recorded again at 0.12.0, when the LM gains began to be read off the LM
spectrum: only the se_lm_* fields moved, by at most 1.33e-15 relative.
Nine trials per point reach numpy's unrolled pairwise summation (eight
partial sums from eight values up), so a reduction that sums in another
order shows in the last bits.  Mode "real" pins the null fields of an absent member.
"""

import json
import re
from pathlib import Path

import pytest

from ddlink_sim import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIG = {
    "N": 8,
    "M": 8,
    "N_p": 3,
    "l_max": 4,
    "L_0": 4,
    "U": 4,
    "trials": 9,
    "rho_T_grid": [0.0, 10.0],
}
RUNS = [
    ("hm-sweep", "both", 1),
    ("hm-sweep", "both", 2),
    ("lm-sweep", "real", 1),
    ("outage", "both", 1),
]


def unversioned(text: str) -> str:
    return re.sub(r'^  "version": "[^"]*",$', '  "version": "",', text, count=1, flags=re.M)


@pytest.mark.parametrize("command, mode, workers", RUNS)
def test_sweep_outputs_match_recorded(tmp_path, command, mode, workers):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(CONFIG, mode=mode)), encoding="utf-8")
    out = tmp_path / "out"
    argv = [command, "--config", str(config), "--out", str(out), "--workers", str(workers)]
    assert cli.main(argv) == 0
    stem = command.replace("-", "_")
    assert (out / f"{stem}.csv").read_bytes() == (GOLDEN / f"{stem}.csv").read_bytes()
    summary = (out / f"{stem}_summary.json").read_text(encoding="utf-8")
    assert unversioned(summary) == (GOLDEN / f"{stem}_summary.json").read_text(encoding="utf-8")
