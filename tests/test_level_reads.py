"""The dataflow of a ladder level: each cached value (cli._value) and each
row that computes in a function reads the level names its parameters name,
and the level drops each value once no row still to run reads it.

A recording PipelineData logs every level name read on a 17 x 17 level: by
each value while it is built, and by each row from outside any build.  The
commands run with no child forked, so every level is seen.
"""
import errno
import json
import os
import tracemalloc
from collections import Counter

import pytest

import bonnet.text17  # noqa: F401  imported by the writers; imported here, it traces no bytes
from bonnet import bonnet_solver, cli, lax_psi, surface_embed
from bonnet.cli import load_config, main
from conftest import DEMO_CONFIG, ROOT, coframes_at
from test_cli import SMALL_CONFIG, small_config, write_config  # noqa: F401  (a fixture)

# every cached value of a level, by name
VALUES = {name: attr for name, attr in vars(cli.PipelineData).items()
          if isinstance(attr, cli._value)}
# the level names that values and rows read: the config, the grid and every value
LEVEL_NAMES = {"cfg", "grid", *VALUES}


def held(level) -> set:
    """The values `level` holds."""
    return set(VALUES) & set(vars(level))


class RecordingLevel(cli.PipelineData):
    """A level that logs the level names read (LEVEL_NAMES).

    stack[0] gathers the names read from outside any build; `builds` holds
    (value, names its build read, values held once it was built and the
    level had dropped) per value built, and `drops` (pending reads, values
    held) after each drop of a level that _level runs.
    """

    levels = []  # every level built since the list was last cleared

    def __init__(self, cfg, grid):
        for name in ("builds", "drops"):
            object.__setattr__(self, name, [])
        object.__setattr__(self, "stack", [set()])
        RecordingLevel.levels.append(self)
        super().__init__(cfg, grid)

    def __getattribute__(self, name):
        get = object.__getattribute__
        if name not in LEVEL_NAMES:
            return get(self, name)
        stack = get(self, "stack")
        stack[-1].add(name)
        built = name not in VALUES or name in get(self, "__dict__")
        if built:
            return get(self, name)
        stack.append(set())  # what a value reads to be built
        try:
            return get(self, name)
        finally:
            get(self, "builds").append((name, stack.pop(), held(self)))

    def drop(self):
        super().drop()
        if self.pending is not None:
            self.drops.append(([*self.pending], held(self)))


def needed(pending, built) -> set:
    """The values a pending row can still read: those it reads, and those that
    a value it reads and that is not built reads to be built, in turn."""
    def reach(name):
        deeper = VALUES[name].reads if name in VALUES and name not in built else ()
        return {name}.union(*map(reach, deeper))
    return set().union(*(reach(name) for reads in pending for name in reads))


def no_fork():
    raise OSError(errno.EAGAIN, "no process to spare")


def function_batteries():
    return [row.battery for row in cli.CHECKS if not isinstance(row.battery, str)]


def test_every_parameter_is_a_level_name():
    for build in [value.build for value in VALUES.values()] + function_batteries():
        assert set(cli._params(build)) <= LEVEL_NAMES, build.__qualname__


def test_every_value_and_row_reads_what_its_parameters_name(small_config):
    cfg = load_config(small_config)
    level = RecordingLevel(cfg, cfg.grid)
    for row in cli.CHECKS:
        level.stack[0].clear()
        level.evaluate(row)
        assert level.stack[0] == set(cli._reads(row)), row.name
    built = Counter(name for name, _, _ in level.builds)
    assert built == Counter(list(VALUES))  # every value, each once: a level alone drops none
    for name, reads, _ in level.builds:
        assert reads == set(VALUES[name].reads), name


@pytest.fixture()
def recording(monkeypatch, tmp_path):
    """run(*argv): the levels one command on SMALL_CONFIG builds, in one process."""
    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(cli, "PipelineData", RecordingLevel)
    config = tmp_path / "small.json"
    config.write_text(json.dumps(SMALL_CONFIG))

    def run(*argv):
        RecordingLevel.levels.clear()
        command, *rest = argv
        # the small grid fails an order at two levels: exit 1, with every row run
        assert main([command, "--config", str(config), "--out", str(tmp_path / "o"),
                     *rest]) in (0, 1)
        return list(RecordingLevel.levels)

    return run


SELECTIONS = [
    ("solve", "--refine", "2"),
    ("mesh",),
    ("deform", "--t0", "1"),
    ("verify", "--refine", "2"),
    ("verify", "--refine", "2", "--only", "frame."),
    ("verify", "--refine", "2", "--only", "psi."),
]


@pytest.mark.parametrize("argv", SELECTIONS, ids=" ".join)
def test_each_value_is_built_once_and_dropped_when_nothing_reads_it(recording, argv):
    levels = recording(*argv)
    assert levels
    for level in levels:
        built = Counter(name for name, _, _ in level.builds)
        assert max(built.values(), default=1) == 1, built
        # after each value built and each consumer, nothing that the rule drops is held
        assert level.drops
        for pending, now in level.drops:
            assert now <= needed(pending, now)
        assert level.drops[-1] == ([], set())


def held_after(level, value) -> set:
    """The values `level` held once `value` was built."""
    return next(now for name, _, now in level.builds if name == value)


def test_mesh_and_deform_drop_the_coframes_before_their_peak(recording):
    # deform: the coframes go once the companion is marched, before the writer
    # forks and the companion's FD forms are taken; the deformation battery still
    # reads psi, the profile and t0
    (level,) = recording("deform", "--t0", "1")
    assert held_after(level, "deformed_frame") == {"psi", "profile", "t0", "tau",
                                                   "deformed_frame"}
    # mesh: the coframes go with the structure battery, the frame with its FD forms;
    # the closed-form forms, which frame.second_form reads, still read psi and the profile
    (level,) = recording("mesh")
    assert "cf" not in held_after(level, "structure")
    assert held_after(level, "fd_forms") == {"psi", "profile", "fd_forms", "scale_e",
                                             "scale_ii"}


def test_the_child_drops_the_coframes_and_the_frame_as_it_goes(recording):
    levels = recording("verify", "--refine", "2", "--only", "frame.")
    finest = levels[-1]
    assert finest.grid.ns == 33
    assert "cf" not in held_after(finest, "frame_forms")
    assert "frame" not in held_after(finest, "fd_forms")


def traced_peak(tmp_path, monkeypatch, ns, command, *rest):
    """(exit code, traced peak in bytes) of one command on the demo window at
    ns x ns, in one process."""
    monkeypatch.setattr(os, "fork", no_fork)
    config = tmp_path / f"demo{ns}.json"
    config.write_text(json.dumps({**DEMO_CONFIG, "grid": {**DEMO_CONFIG["grid"],
                                                          "ns": ns, "nt": ns}}))
    tracemalloc.start()  # numpy buffers are traced too
    try:
        base = tracemalloc.get_traced_memory()[0]
        code = main([command, "--config", str(config), "--out", str(tmp_path / "o"), *rest])
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return code, peak


@pytest.mark.parametrize("argv, bound", [(("mesh",), 296), (("deform", "--t0", "1"), 310)],
                         ids=lambda v: v[0] if isinstance(v, tuple) else str(v))
def test_mesh_and_deform_peak_under_their_bytes_per_node(tmp_path, monkeypatch, argv, bound):
    """The traced peak of one command on the demo window at 129 x 129, in one
    process, in bytes per node.  Holding every value to the end of the level,
    mesh peaked at 332 and deform at 372; dropping each value after its last
    reader, 276 and 324; with the companion's march holding no sin and cos of
    tau, deform at 293; with the FD forms taken a block of rows at a time and
    the frame march's second forms a line at a time, 274 and 287.  In one
    process the writers' work sets the peaks, 292 and 286, whether the
    structure residuals are reduced as each is built and the companion's
    coframe is formed a line at a time or not."""
    code, peak = traced_peak(tmp_path, monkeypatch, 129, *argv)
    assert code == 0
    assert peak / 129**2 < bound


def test_structure_residuals_hold_one_residual_at_a_time():
    """The traced peak of the structure battery on the demo at 129 x 129, in grid
    fields, with the coframes it reads built before: each residual is reduced as
    it is built.  Built all into a dict before any was reduced, it was 13.0
    fields; reduced one at a time, 9.0."""
    cf = coframes_at("configs/demo_rational.json", 129)
    for name in ("omega1", "omega2", "omega12"):
        getattr(cf, name)
    tracemalloc.start()  # numpy buffers are traced too
    try:
        base = tracemalloc.get_traced_memory()[0]
        surface_embed.structure_residuals(cf)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak / (129**2 * 8) < 10


def test_the_childs_frame_rows_peak_under_their_bytes_per_node(tmp_path, monkeypatch):
    """The traced peak of verify's frame rows, which its forked child evaluates
    on the finest level, on the demo window at 129 x 129 refined once, in one
    process, in bytes per finest node.  With frame.two_path's s-first march
    stored whole and the FD forms' derivatives held over the whole grid, it
    was 295; with that march compared a line at a time and the derivatives
    taken a block of rows at a time, 185."""
    code, peak = traced_peak(tmp_path, monkeypatch, 129, "verify", "--refine", "2",
                             "--only", "frame.")
    assert code == 0
    assert peak / 257**2 < 200


# the marches that build psi and the profile, looked up on their modules at each build
MARCHES = ((lax_psi, "psi_field_from_branch"), (lax_psi, "integrate_lax"),
           (bonnet_solver, "integrate_h"))
RATIONAL_MARCHED = ROOT / "bench" / "configs" / "rational_marched.json"


@pytest.fixture()
def marches(monkeypatch):
    """The names of the marches (MARCHES) called, in call order."""
    calls = []
    for module, name in MARCHES:
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


def test_a_fresh_level_holds_no_value_and_marches_nothing(small_config, marches):
    cfg = load_config(small_config)
    level = cli.PipelineData(cfg, cfg.grid)
    assert vars(level) == {"cfg": cfg, "grid": cfg.grid, "pending": None}
    assert marches == []
    level.cf  # psi, then the profile, each on first read
    assert marches == ["psi_field_from_branch", "integrate_h"]
    assert {"psi", "profile", "cf"} <= held(level)


@pytest.mark.parametrize("config", ["small", "rational_marched"])
def test_verify_only_q_marches_neither_psi_nor_the_profile(small_config, tmp_path, monkeypatch,
                                                           marches, config):
    monkeypatch.setattr(os, "fork", no_fork)  # every level in this process
    path = small_config if config == "small" else RATIONAL_MARCHED
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "o"),
                 "--only", "q."]) == 0
    assert marches == []


@pytest.mark.parametrize("only, code", [("q.", 0), ("profile.", 2), ("psi.", 2)])
def test_a_failing_h_march_fails_only_the_rows_that_read_it(tmp_path, capsys, only, code):
    # from s0 = 0.01 the demo's H march leaves its regime at s = 0.071875; the q.*
    # rows read only the family, so they run; the profile.* and psi.* rows read H
    cfg = write_config(tmp_path, grid={"s_min": 0.01, "s_max": 1.0, "ns": 5, "nt": 5},
                       h_initial={"s0": 0.01})
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--only", only]) == code
    err = capsys.readouterr().err
    assert err == ("" if code == 0 else
                   "bonnet: RegimeError: H' <= 0 reached; last s inside the regime: 0.071875\n")


COMMANDS = (["solve"], ["mesh"], ["deform", "--t0", "1"], ["verify"])


def test_a_marched_psi_drops_exactly_the_rows_that_read_the_branch(small_config, tmp_path,
                                                                  monkeypatch):
    selected = {}

    def run(args, cfg, command, rows, levels, export):
        selected[command, cfg.psi_branch is None] = [row.name for row in rows]
        return 0

    monkeypatch.setattr(cli, "_run", run)
    for path in (small_config, RATIONAL_MARCHED):
        for command, *rest in COMMANDS:
            assert main([command, "--config", str(path), "--out", str(tmp_path), *rest]) == 0
    branch = {row.name for row in cli.CHECKS if "branch" in cli._reads(row)}
    assert branch == {"lax.closed_form", "psi.branch_consistency"}
    for command, *_ in COMMANDS:
        closed = selected[command, False]
        assert selected[command, True] == [name for name in closed if name not in branch]
    assert selected["verify", False] == [row.name for row in cli.CHECKS]
