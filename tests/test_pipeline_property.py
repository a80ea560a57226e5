"""Every config either runs or exits 2: a property test of the whole pipeline.

Each example takes a shipped config, shrinks its grid to 5-9 nodes per
axis, pushes one or two keys of cli.CONFIG to an edge value (zero, +-1,
+-1e+-300, a sign flip, every kind and case, a window across the pole) and
runs one of the four commands in this process.  The exit code is 0, 1 or
2; an exit 1 names a failing row; nothing escapes main and nothing warns.
Warnings are raised as errors, so one in the ladder's or a writer's forked
child comes back as that child's exception and escapes main too.  Examples
run one at a time, so at most one command's children are alive.
"""
import contextlib
import io
import json
import pathlib
import tempfile
import warnings

from hypothesis import event, given, settings
from hypothesis import strategies as st

from bonnet import cli
from bonnet.lax_psi import CASES
from bonnet.q_family import KINDS

ROOT = pathlib.Path(__file__).resolve().parents[1]
SHIPPED = [json.loads(p.read_text()) for p in sorted(ROOT.glob("configs/*.json"))
           + sorted(ROOT.glob("bench/configs/*.json"))]

NUMBERS = [0.0, 1.0, -1.0, 1e-300, -1e-300, 1e300, -1e300]
# counts stay small: a large substep count or ladder depth is slow, not an edge
EDGES = {
    cli._number: NUMBERS,
    cli._count: [0, 1, -1, 2, 4, 64],
    cli._sign: [1, -1],
    cli._flag: [True, False],
}
TEXT = {("family", "kind"): [*KINDS, "x"], ("psi", "case"): [*CASES, "x"], ("out_dir",): [""]}


def _edges(spec, prefix=()):
    for name, entry in spec.items():
        path = (*prefix, name)
        if isinstance(entry, dict):
            yield from _edges(entry, path)
        else:
            yield from ((path, value) for value in TEXT.get(path) or EDGES[entry[0]])


MUTATIONS = list(_edges(cli.CONFIG))
COMMANDS = [["solve"], ["solve", "--refine", "2"], ["mesh"], ["deform"], ["verify"]]


def mutated(base, ns, nt, mutations):
    data = json.loads(json.dumps(base))
    data["grid"].update(ns=ns, nt=nt)
    for path, value in mutations:
        section = data
        for key in path[:-1]:
            section = section.setdefault(key, {})
        section[path[-1]] = value
        if path == ("grid", "s_min"):  # the window moves, its start with it
            data["h_initial"]["s0"] = value
    return data


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SHIPPED), st.integers(5, 9), st.integers(5, 9),
       st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=2), st.sampled_from(COMMANDS))
def test_a_config_runs_or_exits_two(base, ns, nt, mutations, argv):
    data = mutated(base, ns, nt, mutations)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "cfg.json"
        path.write_text(json.dumps(data))
        command, *rest = argv
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = cli.main([command, "--config", str(path), "--out", f"{tmp}/o", *rest])
    stdout, stderr = out.getvalue(), err.getvalue()
    event(f"{command} exit {code}")
    assert code in (0, 1, 2), (code, stdout, stderr)
    assert "Traceback" not in stderr and "Warning" not in stderr, stderr
    if code == 1:
        assert any(line.startswith("FAIL ") for line in stdout.splitlines()), stdout
    if code == 2:
        assert stderr.startswith("bonnet: "), stderr
