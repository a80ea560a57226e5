"""verify exits 0 on the configs and ladder depths where every row passes.

The configs are the shipped ones, read from their files: the demo and the
benchmark's branch configs.  A config missing from this matrix still fails
a row at that depth (see ROADMAP.md, item 1), so this pins what is green and
keeps it green.
"""
from pathlib import Path

import pytest

from bonnet.cli import main

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = {
    "demo": ROOT / "configs" / "demo_rational.json",
    **{name: ROOT / "bench" / "configs" / f"{name}.json"
       for name in ("rational_plus", "rational_minus", "rational_marched", "trig_minus",
                    "hyper_plus", "hyper_minus")},
}
GREEN = [
    ("demo", 3), ("rational_plus", 3), ("rational_minus", 3), ("rational_marched", 3),
    ("demo", 4), ("rational_plus", 4), ("rational_minus", 4), ("rational_marched", 4),
    ("trig_minus", 4), ("hyper_plus", 4), ("hyper_minus", 4),
]


@pytest.mark.parametrize("config, refine", GREEN, ids=lambda v: str(v))
def test_verify_is_green(config, refine, tmp_path, capsys):
    code = main(["verify", "--config", str(CONFIGS[config]), "--refine", str(refine),
                 "--out", str(tmp_path)])
    failing = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("FAIL ")]
    assert (code, failing) == (0, [])
