"""Self-test of the benchmark: the traced `verify-ladder` pass is repeatable.

Run with `python3 -m pytest bench/tests`.  Wall time is too noisy to assert
on a shared machine, so the test asserts the work counts instead: every
count must repeat exactly between two traced passes and match the seed
record in bench/seed_counts.json, and both passes must produce the same
span set (callee, caller pairs).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402

NAMED_COUNTS = (
    "bonnet_solver.rhs_evals",
    "surface_embed.frame_marches",
    "surface_embed.battery_evals",
    "q_family.guard_checks",
    "forms2d.field_allocs",
)


def _pass(work: Path, traced: bool):
    commands, _ = run.make_inputs("verify-ladder", 0, work)
    res = run.run_pass(commands, work, traced=traced)
    return res, commands


def test_traced_verify_ladder_repeats(tmp_path):
    plain, _ = _pass(tmp_path / "plain", traced=False)
    first, _ = _pass(tmp_path / "a", traced=True)
    second, _ = _pass(tmp_path / "b", traced=True)
    m1, edges1 = tracer.summarize(first.trace_files)
    m2, edges2 = tracer.summarize(second.trace_files)

    seed = json.loads((BENCH / "seed_counts.json").read_text())["verify-ladder"]
    for name in NAMED_COUNTS:
        assert m1[name] == m2[name] == seed[name], name
    for name, value in seed.items():
        if name in m1:
            assert m1[name] == m2[name] == value, name
    assert edges1 == edges2
    assert {"cli.main", "q_family.SingularityGuard.check",
            "forms2d.ScalarField.__post_init__"} <= {callee for callee, _ in edges1}
    # tracing must not change a single output byte
    assert first.commands["verify"]["hashes"] == plain.commands["verify"]["hashes"]
    assert second.commands["verify"]["hashes"] == plain.commands["verify"]["hashes"]


def test_fails_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify-ladder", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
