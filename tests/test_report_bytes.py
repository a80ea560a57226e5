"""Every file the four commands write keeps its bytes.

solve --refine 2, mesh, deform --t0 1, deform --t0 -0.7 (the branch where
cot(tau) starts negative) and verify --refine 2 run in-process
on the 17 x 17 config of test_cli, and solve and verify --refine 2 again
with psi marched from its corner value instead of read from its closed
form, and solve --refine 2 and deform --t0 1 on a 17 x 17 sign -1
hyper_appendix config, whose psi is the derived mirror branch; the sha256
of each file they write is compared with tests/data/report_sha256.json.  The digests hold under the
numpy version recorded beside them; under another numpy the last bit of a
residual may move, so the test skips.  To record them again:

    PYTHONPATH=src python tests/test_report_bytes.py
"""
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from bonnet.cli import main
from test_cli import SMALL_CONFIG

RECORD = Path(__file__).resolve().parent / "data" / "report_sha256.json"
MARCHED_CONFIG = {**SMALL_CONFIG, "psi": {"integrate": True, "psi0": 0.0}}
# a sign -1 appendix branch: psi is the derived mirror of the sign +1 closed form
MIRROR_CONFIG = {
    **SMALL_CONFIG,
    "family": {"kind": "hyper", "sign": -1, "a": 1.0},
    "psi": {"case": "hyper_appendix", "eta": 0.0},
    "h_initial": {**SMALL_CONFIG["h_initial"], "s0": -2.0},
    "grid": {**SMALL_CONFIG["grid"], "s_min": -2.0, "s_max": -1.0},
}
# run name -> (config, command line)
RUNS = {
    "solve": (SMALL_CONFIG, ["solve", "--refine", "2"]),
    "mesh": (SMALL_CONFIG, ["mesh"]),
    "deform": (SMALL_CONFIG, ["deform", "--t0", "1"]),
    "deform_negative": (SMALL_CONFIG, ["deform", "--t0", "-0.7"]),
    "verify": (SMALL_CONFIG, ["verify", "--refine", "2"]),
    "solve_marched": (MARCHED_CONFIG, ["solve", "--refine", "2"]),
    "verify_marched": (MARCHED_CONFIG, ["verify", "--refine", "2"]),
    "solve_mirror": (MIRROR_CONFIG, ["solve", "--refine", "2"]),
    "deform_mirror": (MIRROR_CONFIG, ["deform", "--t0", "1"]),
}


def digests(root: Path) -> dict:
    """sha256 of every file of every run in RUNS, keyed "<run>/<file>"."""
    out = {}
    for run, (data, argv) in RUNS.items():
        config = root / f"{run}.json"
        config.write_text(json.dumps(data))
        folder = root / run
        main([*argv, "--config", str(config), "--out", str(folder)])
        for path in sorted(folder.iterdir()):
            out[f"{run}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def test_every_output_file_keeps_its_bytes(tmp_path, capsys):
    record = json.loads(RECORD.read_text())
    if record["numpy"] != np.__version__:
        pytest.skip(f"digests recorded under numpy {record['numpy']}, "
                    f"this is numpy {np.__version__}")
    assert digests(tmp_path) == record["sha256"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        record = {"numpy": np.__version__, "sha256": digests(Path(tmp))}
    RECORD.parent.mkdir(exist_ok=True)
    RECORD.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
