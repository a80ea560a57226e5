"""Every file the four commands write keeps its bytes.

solve --refine 2, mesh, deform --t0 1, deform --t0 -0.7 (the branch where
cot(tau) starts negative) and verify --refine 2 run in-process
on the 17 x 17 config of test_cli, and solve and verify --refine 2 again
with psi marched from its corner value instead of read from its closed
form, and solve --refine 2 and deform --t0 1 on a 17 x 17 sign -1
hyper_appendix config, whose psi is the derived mirror branch; the sha256
of each file they write is compared with the "sha256" digests of
tests/data/report_sha256.json.  solve --refine 2 at profile_substeps 1 and 3
(SUBSTEP_RUNS) is compared with its "substep_sha256" digests, and verify
--refine 3, verify --refine 2 --only frame., verify --refine 2 --only
weingarten. and verify --refine 3 --only psi. (SPLIT_RUNS) with its
"split_sha256" digests: the ways verify splits its finest level between
its own process and the child.  The digests hold under the numpy version
recorded in the JSON file; under another numpy the last bit of a residual
may move, so the tests skip.  To record every digest again (the script
rewrites the JSON file and prints each digest key it moved, added or
dropped against the file it replaces):

    PYTHONPATH=src python tests/test_report_bytes.py
"""
import contextlib
import hashlib
import io
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
# the runs of each test, by the key of their digests in the JSON file
GROUPS = {"sha256": RUNS, "substep_sha256": SUBSTEP_RUNS, "split_sha256": SPLIT_RUNS}


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
    expected = recorded()["sha256"]
    assert digests(tmp_path, RUNS) == expected


def test_solve_keeps_its_bytes_at_other_profile_substeps(tmp_path, capsys):
    expected = recorded()["substep_sha256"]
    assert digests(tmp_path, SUBSTEP_RUNS) == expected


def test_verify_keeps_its_bytes_however_the_finest_level_splits(tmp_path, capsys):
    expected = recorded()["split_sha256"]
    assert digests(tmp_path, SPLIT_RUNS) == expected


def changes(old: dict, new: dict) -> list:
    """One "moved", "added" or "dropped" line per digest key of GROUPS whose
    digest in the record `new` differs from the one in the record `old`."""
    lines = []
    for group in GROUPS:
        was, now = old.get(group, {}), new[group]
        for key in sorted(was.keys() | now.keys()):
            if key not in was:
                lines.append(f"added    {group} {key}")
            elif key not in now:
                lines.append(f"dropped  {group} {key}")
            elif was[key] != now[key]:
                lines.append(f"moved    {group} {key}")
    return lines


def test_changes_names_each_moved_added_and_dropped_key():
    old = {"sha256": {"a": "1", "b": "2", "c": "3"}}
    new = {**{group: {} for group in GROUPS}, "sha256": {"a": "1", "b": "9", "d": "4"}}
    assert changes(old, new) == ["moved    sha256 b", "dropped  sha256 c", "added    sha256 d"]


if __name__ == "__main__":
    old = json.loads(RECORD.read_text()) if RECORD.exists() else {}
    # the commands' own PASS/FAIL lines would bury the list of changes
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        record = {"numpy": np.__version__,
                  **{key: digests(Path(tmp), runs) for key, runs in GROUPS.items()}}
    RECORD.parent.mkdir(exist_ok=True)
    RECORD.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print("\n".join(changes(old, record)) or "no digest moved")
