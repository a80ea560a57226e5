"""Every file the four commands write keeps its bytes.

solve --refine 2, mesh, deform --t0 1, deform --t0 -0.7 (the branch where
cot(tau) starts negative) and verify --refine 2 run in-process
on the 17 x 17 config of test_cli, and solve and verify --refine 2 again
with psi marched from its corner value instead of read from its closed
form, and solve --refine 2 and deform --t0 1 on a 17 x 17 sign -1
hyper_appendix config, whose psi is the derived mirror branch; the sha256
of each file they write is compared with tests/data/report_sha256.json.
solve --refine 2 at profile_substeps 1 and 3 (SUBSTEP_RUNS) is compared
with SUBSTEP_SHA256 below, and verify --refine 3, verify --refine 2 --only
frame., verify --refine 2 --only weingarten. and verify --refine 3 --only
psi. (SPLIT_RUNS) with SPLIT_SHA256: the ways verify splits its finest
level between its own process and the child.  The digests hold under the numpy version
recorded in the JSON file; under another numpy the last bit of a residual
may move, so the tests skip.  To record them again (the script rewrites the
JSON file and prints SUBSTEP_SHA256 and SPLIT_SHA256):

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

# the H march at substep counts other than the default 8
SUBSTEP_RUNS = {
    f"solve_substeps{n}": ({**SMALL_CONFIG, "profile_substeps": n}, ["solve", "--refine", "2"])
    for n in (1, 3)
}
SUBSTEP_SHA256 = {
    "solve_substeps1/profile.csv":
        "9869d6d4f3d8985526ce1fa42f68b526ec7eaee5ef57ca5c195dfa2e5ae15c0e",
    "solve_substeps1/psi.csv":
        "df08f1f924fb7c1abe56d9a55720ca3705895c61aa334a98c90fbfa785085c23",
    "solve_substeps1/solve_report.json":
        "bb60c254c5f9281731d61dcacfecd4c22fe4a7c08043a5a4ccadb2357dc74130",
    "solve_substeps3/profile.csv":
        "945931dd2fd4ad423e563e6e0d49252bd0e5cc0a07891ae5d73dd3a56d7e63d4",
    "solve_substeps3/psi.csv":
        "df08f1f924fb7c1abe56d9a55720ca3705895c61aa334a98c90fbfa785085c23",
    "solve_substeps3/solve_report.json":
        "3889e18b322951fb423f3d4400ee170806201536da5ad331c626ec219d5b3d4f",
}

# verify with a level between the base and the finest; with the finest level's rows
# all in the child (frame.), where the command's own process builds nothing on that
# level; with rows that reach the frame march only through its FD forms
# (weingarten.); and with no row reading the frame march (psi.), where the child
# takes the whole finest level
SPLIT_RUNS = {
    "verify_refine3": (SMALL_CONFIG, ["verify", "--refine", "3"]),
    "verify_frame": (SMALL_CONFIG, ["verify", "--refine", "2", "--only", "frame."]),
    "verify_weingarten": (SMALL_CONFIG, ["verify", "--refine", "2", "--only", "weingarten."]),
    "verify_psi": (SMALL_CONFIG, ["verify", "--refine", "3", "--only", "psi."]),
}
SPLIT_SHA256 = {
    "verify_frame/verify_report.json":
        "16b0189f934b9216228b0ce1ddae30a7329f2383f3dcbbdc102a5aedc99da25e",
    "verify_psi/verify_report.json":
        "ffabd9fc96aa117ff3c8f5b783a81dd7a9a7f48aaea9ff755a7dc98c2fc94d6c",
    "verify_refine3/verify_report.json":
        "ffbf7f18599820c7202b0701c31273bf2adb2356657408944ce3e4bce485f7f7",
    "verify_weingarten/verify_report.json":
        "b4b79ebd251f0dafa93ffc5e49dac2c23cb528822b001e3516cbe351c46d3263",
}


def digests(root: Path, runs: dict) -> dict:
    """sha256 of every file of every run in `runs`, keyed "<run>/<file>"."""
    out = {}
    for run, (data, argv) in runs.items():
        config = root / f"{run}.json"
        config.write_text(json.dumps(data))
        folder = root / run
        main([*argv, "--config", str(config), "--out", str(folder)])
        for path in sorted(folder.iterdir()):
            out[f"{run}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def recorded() -> dict:
    """The JSON record, or a skip where it was made under another numpy."""
    record = json.loads(RECORD.read_text())
    if record["numpy"] != np.__version__:
        pytest.skip(f"digests recorded under numpy {record['numpy']}, "
                    f"this is numpy {np.__version__}")
    return record


def test_every_output_file_keeps_its_bytes(tmp_path, capsys):
    assert digests(tmp_path, RUNS) == recorded()["sha256"]


def test_solve_keeps_its_bytes_at_other_profile_substeps(tmp_path, capsys):
    recorded()
    assert digests(tmp_path, SUBSTEP_RUNS) == SUBSTEP_SHA256


def test_verify_keeps_its_bytes_however_the_finest_level_splits(tmp_path, capsys):
    recorded()
    assert digests(tmp_path, SPLIT_RUNS) == SPLIT_SHA256


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        record = {"numpy": np.__version__, "sha256": digests(Path(tmp), RUNS)}
        substeps = digests(Path(tmp), SUBSTEP_RUNS)
        split = digests(Path(tmp), SPLIT_RUNS)
    RECORD.parent.mkdir(exist_ok=True)
    RECORD.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print("SUBSTEP_SHA256 =", json.dumps(substeps, indent=4, sort_keys=True))
    print("SPLIT_SHA256 =", json.dumps(split, indent=4, sort_keys=True))
