"""Command-line interface: config parsing, commands, reports, exit codes.

Exit code contract: 0 all checks pass, 1 a residual check failed,
2 configuration or domain errors.  Reports must be byte-stable across
reruns of the same config.
"""
import contextlib
import errno
import io
import json
import math
import os
import pathlib
import pickle
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
import weakref
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bonnet import bonnet_solver, cli, lax_psi, surface_embed
from bonnet.cli import (
    RK4_RATIO_HIGH,
    RK4_RATIO_LOW,
    RK4_TOL,
    CONFIG,
    ConfigError,
    RunConfig,
    _rk4_crosscheck,
    load_config,
    main,
)
from bonnet.bonnet_solver import BlowUpError, ProfileRangeError, RegimeError
from bonnet import forms2d
from bonnet.forms2d import CoframeSingularError, Grid, NonFiniteFieldError
from bonnet.lax_psi import LaxBlowUpError
from bonnet.q_family import KINDS, ConsistencyError, DomainError, QFamily
from bonnet.surface_embed import FrameStepError

SMALL_CONFIG = {
    "family": {"kind": "rational", "sign": 1, "a": 1.0},
    "psi": {"case": "rational_upper", "sigma": 0.0},
    "h_initial": {"s0": 1.0, "H0": 0.0, "H0p": 1.0, "H0pp": 0.0, "tau_c": 1.0},
    "grid": {"s_min": 1.0, "s_max": 2.0, "t_min": 0.0, "t_max": 1.0,
             "ns": 17, "nt": 17},
    "t0": 1.0,
    "refine_levels": 2,
}


@pytest.fixture()
def small_config(tmp_path):
    path = tmp_path / "small.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return path


def write_config(tmp_path, name="cfg.json", **overrides):
    data = json.loads(json.dumps(SMALL_CONFIG))
    for key, value in overrides.items():
        if isinstance(value, dict) and key in data:
            data[key].update(value)
        else:
            data[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def test_load_config_round_trip(small_config):
    cfg = load_config(small_config)
    assert cfg.family.kind == "rational" and cfg.family.sign == 1
    assert cfg.grid.shape == (17, 17)
    assert cfg.h_initial.s0 == 1.0
    assert cfg.t0 == 1.0
    assert cfg.refine_levels == 2
    assert cfg.tol_algebraic == 1e-10 and cfg.fd_factor == 25.0


def test_config_validation_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, family={"kind": "cubic"}))
    with pytest.raises(ConfigError):
        RunConfig({k: v for k, v in SMALL_CONFIG.items() if k != "grid"})
    # grid must respect the family domain
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, grid={"s_min": -0.5},
                                 h_initial={"s0": -0.5}))
    # the profile march must start at the grid edge
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, h_initial={"s0": 1.5}))


@pytest.mark.parametrize("overrides", [
    {"profile_substeps": "abc"},
    {"t0": "x"},
    {"refine_levels": "three"},
    {"psi": {"integrate": True, "psi0": 0.0, "substeps": "x"}},
    {"psi": {"substeps": 2.5}},
    {"grid": {"ns": 17.5}},
    {"grid": {"t_max": None}},
    {"h_initial": {"H0": None}},
    {"family": {"a": "wide"}},
    {"family": {"sign": True}},
    {"psi": {"integrate": "no", "psi0": 0.0}},
    {"tolerances": {"fd_factor": math.nan}},
    {"tolerances": {"algebraic": math.inf}},
    {"grid": {"t_max": 1e160}},                       # fd_factor * h_max**2 overflows
    {"grid": {"t_min": -1e308, "t_max": 1e308}},      # h_t is infinite
    {"grid": {"ns": 10**400}},                        # too large for a float
    {"family": {"sign": "1"}},
    {"out_dir": None},
    {"out_dir": {"a": 1}},
    {"psi": {"integrate": True, "psi0": 0.0}},        # with case and sigma
    {"psi": {"psi0": 0.0}},                           # march key without integrate
    {"psi": {"substeps": 8}},
    # oversize values and keys, each echoed in short
    {"out_dir": {"k": "x" * 5000}},
    {"family": {"kind": "x" * 5000}},
    {"psi": {"case": "x" * 5000}},
    {"x" * 5000: 1.0},
], ids=lambda o: json.dumps(o)[:60])
def test_bad_config_values_exit_two(tmp_path, capsys, overrides):
    cfg = write_config(tmp_path, **overrides)
    out = tmp_path / "o"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bonnet: config error: ") and "Traceback" not in err
    assert err.count("\n") == 1 and len(err) < 200
    assert not out.exists()  # rejected before any file is written


@pytest.mark.parametrize("text", [b"\xff\xfe{}", b"[" * 100000 + b"]" * 100000],
                         ids=["utf-16-bom", "nested-100000-deep"])
def test_config_that_cannot_be_decoded_exits_two(tmp_path, capsys, text):
    # not UTF-8, and JSON nested past the interpreter's recursion limit
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(text)
    out = tmp_path / "o"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bonnet: config error: config is not valid JSON: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("psi", [
    {"integrate": True, "psi0": 0.0, "case": "constant_zero"},
    {"integrate": True, "psi0": 0.0, "sigma": 0.1},
    {"integrate": True, "psi0": 0.0, "eta": 0.1},
    {"integrate": True},
    {"sigma": 0.1},
], ids=lambda o: json.dumps(o))
def test_psi_is_a_branch_or_a_march(psi):
    # each stray branch key alone, and each mode without its required key; the
    # march keys without integrate are cases of test_bad_config_values_exit_two
    with pytest.raises(ConfigError, match="psi needs"):
        RunConfig({**SMALL_CONFIG, "psi": psi})


@pytest.mark.parametrize("psi", [
    {"integrate": True, "psi0": 0.0, "case": None},
    {"case": "rational_upper", "psi0": None},
], ids=lambda o: json.dumps(o))
def test_a_null_key_of_the_other_psi_mode_reads_as_absent(psi):
    assert isinstance(RunConfig({**SMALL_CONFIG, "psi": psi}), RunConfig)


ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMO_FILE = json.loads((ROOT / "configs" / "demo_rational.json").read_text())


@pytest.mark.parametrize("path, near, nested", [
    ("refine_level", "refine_levels", True),
    ("grid.n_s", "grid.ns", True),
    ("psi.sigmaa", "psi.sigma", True),
    ("tolerances.fdfactor", "tolerances.fd_factor", True),
    ("grid.n_s", "grid.ns", False),  # the dotted name itself as a top-level key
])
def test_unknown_key_exits_two_and_names_the_nearest(tmp_path, capsys, path, near, nested):
    data = json.loads(json.dumps(DEMO_FILE))
    section, _, key = path.rpartition(".")
    (data[section] if section and nested else data)[key if nested else path] = 1.0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "o"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"unknown config key '{path}'; did you mean '{near}'?" in err
    assert not out.exists()


def test_a_config_value_nested_to_the_json_depth_limit_is_echoed_in_one_short_line(
        tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    data = {**SMALL_CONFIG, "family": {"kind": "KIND"}}
    # the deepest family.kind that the config's JSON decoder accepts from here
    for depth in range(sys.getrecursionlimit(), 0, -1):
        cfg.write_text(json.dumps(data).replace('"KIND"', "[" * depth + "]" * depth))
        code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        if "not valid JSON" not in err:
            break
    assert depth > sys.getrecursionlimit() // 2
    assert code == 2
    assert err.startswith("bonnet: config error: family.kind must be a string, got [[[")
    assert err.count("\n") == 1 and len(err) < 200
    assert not (tmp_path / "o").exists()


DEPENDENCY_PROBE = """
import sys
before = set(sys.modules)  # site hooks (a certifi .pth, say) have run already
import contextlib, io, json
from bonnet.cli import main
cfg, out, result = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["families"])] + [
        main([*argv, "--config", cfg, "--out", f"{out}/{k}"])
        for k, argv in enumerate([["verify", "--refine", "2"], ["mesh"], ["deform"]])]
allowed = sys.stdlib_module_names | {"numpy", "bonnet"}
foreign = sorted(m for m in set(sys.modules) - before if m.split(".")[0] not in allowed)
with open(result, "w") as fh:
    json.dump({"codes": codes, "foreign": foreign}, fh)
"""


def test_a_run_imports_nothing_but_the_standard_library_and_numpy(small_config, tmp_path):
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    result = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, "-c", DEPENDENCY_PROBE, str(small_config), str(tmp_path), str(result)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    # families, mesh and deform pass; verify fails on so coarse a base grid
    assert json.loads(result.read_text()) == {"codes": [0, 1, 0, 0], "foreign": []}


@pytest.mark.parametrize("path", sorted(ROOT.glob("configs/*.json"))
                         + sorted(ROOT.glob("bench/configs/*.json")),
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_shipped_config_loads(path):
    assert isinstance(load_config(path), RunConfig)


SECTIONS = [name for name, spec in CONFIG.items() if isinstance(spec, dict)]
# every CONFIG key, sections as (section,) and their keys as (section, key),
# and an unknown key at the top level and in each section
FUZZ_KEYS = [(name,) for name in CONFIG] + [
    (section, key) for section in SECTIONS for key in CONFIG[section]
] + [("extra",)] + [(section, "extra") for section in SECTIONS]
FUZZ_VALUES = st.one_of(
    st.none(), st.booleans(),
    st.sampled_from([1e300, -1e300, 1e-300, -1e-300, 1e308, -1e308, 10**400]),
    st.sampled_from([0, -1, 2, 64.0, 0.5]), st.integers(), st.floats(),
    st.sampled_from(["1", "-2.5", "1e300", "nan", "inf", "64"]), st.text(max_size=4),
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.sampled_from(["kind", "a", "ns", "x"]), st.integers(-3, 3), max_size=2),
)


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(FUZZ_KEYS), FUZZ_VALUES), min_size=1, max_size=3))
def test_config_loader_returns_or_raises_config_error(mutations):
    data = json.loads(json.dumps(DEMO_FILE))
    for path, value in mutations:
        section = data
        for key in path[:-1]:
            if not isinstance(section.get(key), dict):
                section[key] = {}
            section = section[key]
        section[path[-1]] = value
    try:
        cfg = RunConfig(data)
    except ConfigError:
        return
    assert math.isfinite(cfg.fd_factor * cfg.grid.h_max**2)
    assert set(data) <= set(CONFIG)
    assert all(set(data[section]) <= set(CONFIG[section]) for section in SECTIONS)


def test_integral_float_counts_are_accepted(tmp_path):
    cfg = load_config(write_config(tmp_path, grid={"ns": 17.0}, refine_levels=2.0,
                                   family={"sign": 1.0}))
    assert cfg.grid.ns == 17 and cfg.refine_levels == 2
    assert type(cfg.family.sign) is int and cfg.family.sign == 1


def test_too_coarse_frame_step_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, grid={"ns": 5, "nt": 5, "t_max": 40.0})
    assert main(["mesh", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "FrameStepError" in err and "refine the grid" in err


def test_each_rows_margin_is_the_one_its_residuals_strip(small_config, monkeypatch):
    strip = forms2d.interior
    margins = []

    def interior(values, margin=1):
        margins.append(margin)
        return strip(values, margin)

    monkeypatch.setattr(forms2d, "interior", interior)
    cfg = load_config(small_config)
    for row in cli.CHECKS:
        margins.clear()
        cli.PipelineData(cfg, cfg.grid).evaluate(row)  # a fresh level: no cached battery
        assert max(margins, default=0) == row.margin, row.name


@pytest.mark.parametrize("grid, argv", [
    ({"ns": 6, "nt": 20}, ["verify", "--refine", "2"]),
    ({"ns": 5, "nt": 5}, ["verify", "--refine", "2"]),
    ({"ns": 20, "nt": 6}, ["verify", "--only", "weingarten"]),
], ids=lambda v: json.dumps(v))
def test_grid_too_small_for_a_rows_margin_exits_two_before_any_work(tmp_path, capsys,
                                                                   monkeypatch, grid, argv):
    def no_pipeline(*args, **kwargs):
        raise AssertionError("a pipeline was built")

    monkeypatch.setattr(cli.PipelineData, "__init__", no_pipeline)
    cfg = write_config(tmp_path, grid=grid)
    out = tmp_path / "o"
    command, *rest = argv
    assert main([command, "--config", str(cfg), "--out", str(out), *rest]) == 2
    err = capsys.readouterr().err
    assert "too small for weingarten.k_t_variation" in err and "at least 7" in err
    assert not out.exists()


@pytest.mark.parametrize("grid, argv, code", [
    # no selected row strips more than 2 nodes, so 5 per axis are enough
    ({"ns": 5, "nt": 5}, ["mesh"], 0),
    ({"ns": 5, "nt": 5}, ["deform"], 0),
    ({"ns": 5, "nt": 5}, ["solve", "--refine", "2"], 1),
    ({"ns": 5, "nt": 20}, ["verify", "--only", "psi."], 1),
    ({"ns": 7, "nt": 7}, ["verify", "--refine", "2"], 1),
], ids=lambda v: json.dumps(v))
def test_grids_as_small_as_the_rows_margins_allow_run(tmp_path, capsys, grid, argv, code):
    cfg = write_config(tmp_path, grid=grid)
    command, *rest = argv
    assert guarded_main([command, "--config", str(cfg), "--out", str(tmp_path / "o"),
                         *rest]) == code
    assert capsys.readouterr().err == ""


# the hyper family at a = 1e6, whose closed-form psi and profile both leave the floats
HYPER_1E6 = {"family": {"kind": "hyper", "a": 1e6},
             "psi": {"case": "hyper_appendix", "eta": 0.0}}
NAN_PSI = "bonnet: NonFiniteFieldError: scalar field is nan at node ("


@pytest.mark.parametrize("overrides, argv, error", [
    (HYPER_1E6, ["mesh"], NAN_PSI),
    ({"family": {"kind": "trig"}, "psi": {"case": "trig_appendix", "eta": 0.3},
      "grid": {"t_max": 1e8}}, ["verify", "--refine", "2"], NAN_PSI),
    # psi is read before the profile wherever both are, as by every export
    (HYPER_1E6, ["solve"], NAN_PSI),
    (HYPER_1E6, ["solve", "--refine", "2"], NAN_PSI),
    (HYPER_1E6, ["deform", "--t0", "1"], NAN_PSI),
    # verify's base level runs lax.closed_form, whose closed form overflows, before
    # any row reads psi; profile.* read no psi, so the profile's own error shows
    (HYPER_1E6, ["verify", "--refine", "2"],
     "bonnet: FloatingPointError: overflow encountered in sinh\n"),
    (HYPER_1E6, ["verify", "--refine", "2", "--only", "profile."],
     "bonnet: ProfileRangeError: profile field E must be positive everywhere"),
], ids=["hyper-a-1e6-mesh", "trig-t_max-1e8-verify", "hyper-a-1e6-solve",
        "hyper-a-1e6-solve-refine-2", "hyper-a-1e6-deform", "hyper-a-1e6-verify",
        "hyper-a-1e6-verify-only-profile"])
def test_data_that_overflow_the_grid_exit_two(tmp_path, capsys, overrides, argv, error):
    data = json.loads(json.dumps(SMALL_CONFIG))
    for key, value in overrides.items():
        data[key] = {**data[key], **value} if key != "psi" else value
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    command, *rest = argv
    with np.errstate(all="ignore"):
        assert guarded_main([command, "--config", str(cfg), "--out", str(tmp_path / "o"),
                             *rest]) == 2
    err = capsys.readouterr().err
    assert err.startswith(error)
    assert "Traceback" not in err
    assert_no_children()


@pytest.mark.parametrize("overrides, argv, code", [
    ({"family": {"kind": "hyper", "a": 1e6}, "psi": {"case": "hyper_appendix", "eta": 0.0}},
     ["mesh"], 2),
    ({"family": {"kind": "trig"}, "psi": {"case": "trig_appendix", "eta": 0.3},
      "grid": {"t_max": 1e8}}, ["verify", "--refine", "2"], 2),
    ({"psi": {"case": "rational_upper", "sigma": 1e300}}, ["mesh"], 0),
], ids=["hyper-a-1e6-mesh", "trig-t_max-1e8-verify", "sigma-1e300-mesh"])
def test_data_that_overflow_print_no_warning(tmp_path, overrides, argv, code):
    # a fresh interpreter, so stderr is what a user sees, warnings included
    data = json.loads(json.dumps(SMALL_CONFIG))
    for key, value in overrides.items():
        data[key] = {**data[key], **value} if key != "psi" else value
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    command, *rest = argv
    proc = subprocess.run([sys.executable, "-m", "bonnet", command, "--config", str(cfg),
                           "--out", str(tmp_path / "o"), *rest],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == code
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stderr.startswith("bonnet: NonFiniteFieldError") if code else proc.stderr == ""


@pytest.mark.parametrize("path, section, key, value, field", [
    (ROOT / "configs" / "demo_rational.json", "h_initial", "H0p", 1e-320, "A"),  # E overflows
    (ROOT / "bench" / "configs" / "hyper_plus.json", "family", "a", 400, "E"),   # Q underflows
], ids=["demo-H0p-1e-320", "hyper_plus-a-400"])
def test_profile_out_of_float_range_exits_two(tmp_path, path, section, key, value, field):
    # a fresh interpreter, so stderr is what a user sees, warnings included
    data = json.loads(path.read_text())
    data[section][key] = value
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "bonnet", "solve", "--config", str(cfg),
                           "--out", str(tmp_path / "o")],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 2
    assert proc.stderr == (f"bonnet: ProfileRangeError: profile field {field} must be "
                           "positive everywhere, but is 0 at s = 1\n")


@pytest.mark.parametrize("sign", (1, -1))
@pytest.mark.parametrize("kind", KINDS)
def test_rk4_crosscheck_is_fourth_order_for_both_signs(kind, sign):
    err, ratio = _rk4_crosscheck(QFamily(kind, sign, 1.0))
    assert RK4_RATIO_LOW <= ratio <= RK4_RATIO_HIGH
    # the sign -1 window mirrors the +1 one, so the march is its mirror image
    assert (err, ratio) == _rk4_crosscheck(QFamily(kind, 1, 1.0))


@pytest.mark.parametrize("sign", (1, -1))
@pytest.mark.parametrize("kind", KINDS)
def test_rk4_crosscheck_is_measured_in_units_of_one_over_a(kind, sign):
    # window and steps scale with 1/a, so a power-of-two frequency rescales
    # every number of the march exactly and reproduces the a = 1 pair; the
    # blow-up guard is relative to the first Q, so it does not stop a large a
    ref = _rk4_crosscheck(QFamily(kind, sign, 1.0))
    for a in (0.25, 0.5, 2.0, 4.0, 2.0**20, 2.0**21):
        assert _rk4_crosscheck(QFamily(kind, sign, a)) == ref
    if kind == "trig":
        assert _rk4_crosscheck(QFamily(kind, sign, 3.7))[0] <= RK4_TOL


@pytest.mark.parametrize("a", (0.5, 1.0, 3.7))
@pytest.mark.parametrize("sign", (1, -1))
@pytest.mark.parametrize("kind", KINDS)
def test_rk4_crosscheck_passes_above_rounding(kind, sign, a):
    # the coarse error stays well above eps, so the halving ratio measures the
    # fourth order and not rounding (at steps 1e-3 L, 5e-4 L hyper at a = 3.7
    # read a ratio of 22.6 on an error of 3e-13), and well below RK4_TOL
    err, ratio = _rk4_crosscheck(QFamily(kind, sign, a))
    assert 1e-12 < err <= RK4_TOL / 10
    assert RK4_RATIO_LOW <= ratio <= RK4_RATIO_HIGH


def test_rational_solve_does_not_depend_on_a(tmp_path):
    # Q = sign/s has no frequency, so neither its guard nor its RK4
    # cross-check may scale with 1/a: every a gives the a = 1 files
    def solve(a):
        data = json.loads(json.dumps(DEMO_FILE))
        data["family"]["a"] = a
        cfg = tmp_path / f"a{a}.json"
        cfg.write_text(json.dumps(data))
        out = tmp_path / f"out{a}"
        assert main(["solve", "--config", str(cfg), "--refine", "2", "--out", str(out)]) == 0
        return [(out / name).read_bytes()
                for name in ("profile.csv", "psi.csv", "solve_report.json")]

    ref = solve(1.0)
    for a in (1e-300, 0.5, 2.0, 1e308):
        assert solve(a) == ref


def test_families_listing(capsys):
    assert main(["families"]) == 0
    out = capsys.readouterr().out
    rows = [ln for ln in out.splitlines() if "/s" in ln or "sin" in ln]
    assert len(rows) == 6
    assert any("sinh" in r for r in rows)
    assert main(["families", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["families"]) == 6
    kappas = {f["kappa"] for f in data["families"]}
    assert kappas == {"0", "-a^2", "+a^2"}


def test_solve_writes_reports(small_config, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["solve", "--config", str(small_config), "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "PASS" in text and "FAIL" not in text
    report = json.loads((out / "solve_report.json").read_text())
    assert report["command"] == "solve" and report["pass"] is True
    assert (out / "profile.csv").exists() and (out / "psi.csv").exists()
    names = [c["name"] for c in report["checks"]]
    assert "q.exactness" in names and "profile.gauss" in names
    assert all(c["passed"] for c in report["checks"])


def test_solve_with_refinement_reports_orders(demo_config_file, tmp_path):
    # convergence orders only reach their asymptotic rate on the demo-sized
    # grids, so the order-gated run uses the full 64x64 chain
    out = tmp_path / "out"
    assert main(["solve", "--config", str(demo_config_file), "--out", str(out),
                 "--refine", "3"]) == 0
    report = json.loads((out / "solve_report.json").read_text())
    fd = [c for c in report["checks"] if c["kind"] == "fd"]
    assert fd and all("order" in c for c in fd)
    assert all(c["order"] >= 1.9 for c in fd)
    # the identities run on every level too, and are bounded, not fitted
    identities = [c for c in report["checks"] if c["kind"] == "identity"]
    assert [c["name"] for c in identities] == [
        "profile.ideal_dlog_a", "profile.ideal_dc", "profile.ideal_dh"]
    for c in identities:
        assert "order" not in c and len(c["details"]["residuals"]) == 3
        assert c["value"] == c["details"]["residuals"][0]
        assert max(c["details"]["residuals"]) <= c["tolerance"]


def test_mesh_outputs(small_config, tmp_path):
    out = tmp_path / "out"
    assert main(["mesh", "--config", str(small_config), "--out", str(out)]) == 0
    obj = (out / "surface.obj").read_text().splitlines()
    assert sum(1 for ln in obj if ln.startswith("v ")) == 17 * 17
    assert sum(1 for ln in obj if ln.startswith("f ")) == 2 * 16 * 16
    forms = (out / "forms.csv").read_text().splitlines()
    assert forms[0] == "s,t,E,L,M,N"
    assert len(forms) == 1 + 17 * 17
    report = json.loads((out / "mesh_report.json").read_text())
    assert report["pass"] is True
    assert report["vertices"] == 17 * 17 and report["triangles"] == 512


def test_deform_reports(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["deform", "--config", str(cfg), "--out", str(out),
                 "--t0", "2.0"]) == 0
    report = json.loads((out / "deform_report.json").read_text())
    assert report["t0"] == 2.0
    assert report["pole_count"] == 0
    assert [c["name"] for c in report["checks"]] == [
        "deform.metric", "deform.h", "deform.second_form", "deform.ii_distinct",
        "deform.harmonic"]
    assert (out / "deformed.obj").exists()


@pytest.mark.parametrize("t0", ["1", "-0.7"])
def test_the_deform_header_holds_the_values_of_its_rows(tmp_path, t0):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["deform", "--config", str(cfg), "--out", str(out), "--t0", t0]) == 0
    report = json.loads((out / "deform_report.json").read_text())
    values = {c["name"]: c["value"] for c in report["checks"]}
    assert [report[key] for key in ("metric_deviation", "H_deviation", "II_deviation")] == [
        values[name] for name in ("deform.metric", "deform.h", "deform.ii_distinct")]


def run_deform(data: dict, ns: int, t0: str, folder) -> int:
    """deform on `data` with its grid at ns x ns, in `folder`."""
    data = json.loads(json.dumps(data))
    data["grid"].update(ns=ns, nt=ns)
    config = pathlib.Path(folder) / "cfg.json"
    config.write_text(json.dumps(data))
    return main(["deform", "--config", str(config), "--out", str(config.parent / "o"),
                 "--t0", t0])


# "distinct" is judged on the closed-form II' - II, which is nonzero wherever
# J sin(tau) is: a bound on the FD second form's gap, 10 F h^2 scale_ii, failed
# a 13 x 13 grid and a |t0| of 100 or more, where that gap is below FD error
@pytest.mark.parametrize("ns, t0", [(13, "1"), (64, "100"), (64, "-100"), (64, "1e6")])
def test_deform_finds_the_companion_distinct_on_coarse_grids_and_large_t0(
        tmp_path, capsys, ns, t0):
    assert run_deform(DEMO_FILE, ns, t0, tmp_path) == 0, capsys.readouterr().out


RATIONAL_MINUS = json.loads((ROOT / "bench" / "configs" / "rational_minus.json").read_text())


@settings(max_examples=48, deadline=None)
@given(st.sampled_from([DEMO_FILE, RATIONAL_MINUS]), st.sampled_from([5, 9, 17]),
       st.sampled_from([1.0, -1.0]), st.floats(math.log(1e-6), math.log(1e9)))
def test_deform_passes_at_every_t0_for_both_signs(data, ns, sign, log_t0):
    # the demo is family.sign +1 and rational_minus -1; t0 is log-uniform over +-[1e-6, 1e9],
    # and the grids are coarse, where the tau march's one RK4 step per cell is widest
    with tempfile.TemporaryDirectory() as folder, contextlib.redirect_stdout(io.StringIO()):
        assert run_deform(data, ns, repr(sign * math.exp(log_t0)), folder) == 0


@pytest.mark.parametrize("value, t0", [("-1e6", -1e6), ("-1E+3", -1e3), ("-.5e2", -50.0)])
def test_t0_takes_negative_e_notation(tmp_path, value, t0):
    # argparse reads a negative number with an exponent as an option unless told not to
    cfg = write_config(tmp_path)
    runs = []
    for spelling in (["--t0", value], [f"--t0={value}"]):
        out = tmp_path / spelling[0]
        assert main(["deform", "--config", str(cfg), "--out", str(out), *spelling]) in (0, 1)
        runs.append((out / "deform_report.json").read_bytes())
    assert runs[0] == runs[1] and json.loads(runs[0])["t0"] == t0


def test_deform_requires_t0(tmp_path, capsys):
    cfg = write_config(tmp_path, t0=None)
    data = json.loads(cfg.read_text())
    del data["t0"]
    cfg.write_text(json.dumps(data))
    assert main(["deform", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "t0" in capsys.readouterr().err


def test_verify_is_deterministic(demo_config_file, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["verify", "--config", str(demo_config_file), "--out", str(out1)]) == 0
    assert main(["verify", "--config", str(demo_config_file), "--out", str(out2)]) == 0
    r1 = (out1 / "verify_report.json").read_bytes()
    r2 = (out2 / "verify_report.json").read_bytes()
    assert r1 == r2
    report = json.loads(r1)
    assert [lvl["ns"] for lvl in report["levels"]] == [64, 127, 253]
    assert report["pass"] is True


def test_verify_only_filter(demo_config_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["verify", "--config", str(demo_config_file), "--out", str(out),
                 "--only", "gauss"]) == 0
    report = json.loads((out / "verify_report.json").read_text())
    assert [c["name"] for c in report["checks"]] == ["profile.gauss"]
    capsys.readouterr()
    assert main(["verify", "--config", str(demo_config_file), "--out", str(out),
                 "--only", "no_such_check"]) == 2
    assert "matched no checks" in capsys.readouterr().err


def test_verify_rejects_single_level(small_config, tmp_path):
    assert main(["verify", "--config", str(small_config),
                 "--out", str(tmp_path / "o"), "--refine", "1"]) == 2


@pytest.mark.parametrize("argv", [
    ["solve", "--refine", "0"],
    ["solve", "--refine", "-1"],
    ["verify", "--refine", "0"],
    ["verify", "--refine", "1"],
    ["verify", "--only", "zzz"],
    ["deform", "--t0", "nan"],
], ids=" ".join)
def test_bad_arguments_exit_two_before_any_work(small_config, tmp_path, capsys,
                                                monkeypatch, argv):
    def no_pipeline(*args, **kwargs):
        raise AssertionError("a pipeline was built")

    monkeypatch.setattr(cli.PipelineData, "__init__", no_pipeline)
    out = tmp_path / "out"
    command, *rest = argv
    assert main([command, "--config", str(small_config), "--out", str(out), *rest]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert not out.exists()  # no CSV, OBJ or report written


@pytest.mark.parametrize("overrides, argv", [
    ({"grid": {"ns": 1e12}}, ["mesh"]),
    ({"grid": {"ns": 1e12}}, ["solve"]),
    ({"refine_levels": 1000000}, ["verify"]),
    ({}, ["solve", "--refine", "40"]),
    ({}, ["verify", "--refine", "40"]),
    ({"grid": {"ns": 9, "nt": 9}, "profile_substeps": 1e15}, ["solve"]),
    ({"grid": {"ns": 9, "nt": 9}, "psi": {"integrate": True, "psi0": 0.0, "substeps": 1e15}},
     ["solve"]),
    ({"profile_substeps": 2**20}, ["verify", "--refine", "2"]),
], ids=lambda v: json.dumps(v))
def test_oversize_ladder_exits_two_before_any_allocation(tmp_path, capsys, monkeypatch,
                                                         overrides, argv):
    def no_pipeline(*args, **kwargs):
        raise AssertionError("a pipeline was built")

    monkeypatch.setattr(cli.PipelineData, "__init__", no_pipeline)
    cfg = write_config(tmp_path, **overrides)
    if "psi" in overrides:  # a march, which the closed-form psi section may not be mixed with
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "psi": overrides["psi"]}))
    out = tmp_path / "o"
    command, *rest = argv
    tracemalloc.start()  # numpy buffers are traced too
    try:
        code = main([command, "--config", str(cfg), "--out", str(out), *rest])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    cap = "(2**23) RK4 steps" if "substeps" in json.dumps(overrides) else "(2**22) nodes"
    assert "config error" in err and cap in err
    assert not out.exists()
    assert peak < 2**20


@pytest.mark.parametrize("n, levels, fits", [
    (2048, 1, True), (2049, 1, False),   # 2048**2 == MAX_LADDER_NODES
    (64, 6, True), (64, 7, False),       # finest 2017**2 and 4033**2 nodes
    (1000, 2, True), (1000, 3, False),   # finest 1999**2 and 3997**2 nodes
])
def test_ladder_size_cap_is_on_the_finest_level(tmp_path, n, levels, fits):
    assert cli.MAX_LADDER_NODES == 2**22
    cfg = load_config(write_config(tmp_path))
    cfg.grid = Grid(1.0, 2.0, 0.0, 1.0, n, n)
    if fits:
        cli._check_finest_level(cfg, levels)
    else:
        with pytest.raises(ConfigError, match=r"\(2\*\*22\) nodes"):
            cli._check_finest_level(cfg, levels)


@pytest.mark.parametrize("ns, levels, substeps, fits", [
    (838860, 1, 10, True), (838860, 1, 11, False),  # the thinnest grid under the node cap
    (9, 1, 2**20, True), (9, 1, 2**20 + 1, False),  # 8 cells
    (9, 3, 2**18, True), (9, 3, 2**18 + 1, False),  # 32 cells on the finest level
])
def test_march_step_cap_is_on_the_finest_level(tmp_path, ns, levels, substeps, fits):
    assert cli.MAX_MARCH_STEPS == 2**23
    for key in ("profile_substeps", "psi_substeps"):
        cfg = load_config(write_config(tmp_path, grid={"nt": 5}))
        cfg.grid = Grid(1.0, 2.0, 0.0, 1.0, ns, 5)
        setattr(cfg, key, substeps)
        if fits:
            cli._check_finest_level(cfg, levels)
        else:
            with pytest.raises(ConfigError, match=r"\(2\*\*23\) RK4 steps"):
                cli._check_finest_level(cfg, levels)


class Reached(BaseException):
    """Raised in place of the ladder once a command is past the size cap; not an
    Exception, so main lets it through."""


@pytest.mark.parametrize("grid, argv, levels", [
    # 600**2 is over the cap at the default refine_levels (3) but mesh,
    # deform and solve without --refine run one level
    ({"ns": 600, "nt": 600}, ["mesh"], 1),
    ({"ns": 600, "nt": 600}, ["deform"], 1),
    ({"ns": 600, "nt": 600}, ["solve"], 1),
    # --refine overrides a refine_levels that is over the cap
    ({"ns": 1000, "nt": 1000}, ["verify", "--refine", "2"], 2),
], ids=lambda v: json.dumps(v))
def test_cap_counts_the_levels_the_command_runs(tmp_path, monkeypatch, grid, argv, levels):
    def ladder(cfg, rows, n, export):
        assert n == levels
        raise Reached

    monkeypatch.setattr(cli, "_ladder", ladder)
    cfg = write_config(tmp_path, grid=grid, refine_levels=3)
    command, *rest = argv
    with pytest.raises(Reached):
        main([command, "--config", str(cfg), "--out", str(tmp_path / "o"), *rest])


COUNTED = {
    surface_embed: (
        "_frame_moves", "integrate_frame", "build_deformed_surface", "build_coframes",
        "integrate_deformation", "structure_residuals", "codazzi_summary_residuals",
        "theta12_report", "weingarten_residual", "fundamental_forms", "deformation_report",
        "fd_forms",
    ),
    bonnet_solver: ("ideal_residuals",),
    lax_psi: ("lax_residuals", "c_relation_residuals"),
    # in cli, only PipelineData.alpha decomposes: d(psi) in the alpha coframe
    cli: ("decompose_in_coframe",),
}


class SharedCounts:
    """Call counts that a forked child adds to as well: each call appends its
    name as one line to an O_APPEND file, and counts are read from the file."""

    def __init__(self, path):
        self.path = path
        self.fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def add(self, name):
        os.write(self.fd, f"{name}\n".encode())

    def __getitem__(self, name):
        return self.path.read_text().split().count(name)

    def clear(self):
        os.ftruncate(self.fd, 0)


@pytest.fixture()
def work_counts(monkeypatch, tmp_path):
    """Calls of the expensive pipeline functions, in this process and in the
    ladder's forked child; also fails a command whose process builds a
    PipelineData while an earlier one is still alive."""
    counts = SharedCounts(tmp_path / "calls.txt")
    for module, names in COUNTED.items():
        for name in names:
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                counts.add(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
    alive = []
    build = cli.PipelineData.__init__

    def tracked(self, *args, **kwargs):
        assert all(ref() is None for ref in alive), "two levels alive at once"
        alive.append(weakref.ref(self))
        build(self, *args, **kwargs)

    monkeypatch.setattr(cli.PipelineData, "__init__", tracked)
    yield counts
    os.close(counts.fd)


def no_fork():
    raise OSError(errno.EAGAIN, "no process to spare")


def no_pipe():
    raise OSError(errno.EMFILE, "Too many open files")


# the three ways cli._Forked finds no child to fork, each applied through monkeypatch
NO_CHILD = {
    "fork-missing": lambda monkeypatch: monkeypatch.delattr(os, "fork"),
    "fork-eagain": lambda monkeypatch: monkeypatch.setattr(os, "fork", no_fork),
    "pipe-emfile": lambda monkeypatch: monkeypatch.setattr(os, "pipe", no_pipe),
}


@pytest.fixture(params=NO_CHILD.values(), ids=NO_CHILD)
def no_child(request, monkeypatch):
    """A call that leaves the command's process no child to fork from then on."""
    return lambda: request.param(monkeypatch)


@pytest.mark.parametrize("child", [None, *NO_CHILD.values()], ids=["forked", *NO_CHILD])
def test_verify_computes_each_battery_and_march_once_per_level(demo_config_file, tmp_path,
                                                               work_counts, monkeypatch, child):
    if child:
        child(monkeypatch)
    assert main(["verify", "--config", str(demo_config_file), "--out", str(tmp_path),
                 "--refine", "3"]) == 0
    # t-first and s-first frame on each of 3 levels, one deformed frame; only the
    # t-first frames are stored
    assert work_counts["_frame_moves"] == 7
    assert work_counts["integrate_frame"] == 3
    assert work_counts["build_deformed_surface"] == 1
    # the finest level's psi, H and coframes are built twice, with or without a
    # child: once for the rows that do not read the frame and once for the frame rows
    assert work_counts["build_coframes"] == 4
    for name in ("structure_residuals", "codazzi_summary_residuals",
                 "theta12_report", "ideal_residuals", "lax_residuals",
                 "c_relation_residuals", "decompose_in_coframe", "weingarten_residual"):
        assert work_counts[name] == 3, name
    # tau on every level, for deform.harmonic; the companion's frame on the base level
    assert work_counts["integrate_deformation"] == 3


@pytest.fixture()
def coframe_builds(monkeypatch, tmp_path):
    """The coframes of surface_embed.CoframeSet built, by name, in this process
    and in its forked children."""
    counts = SharedCounts(tmp_path / "coframes.txt")
    for name in ("omega1", "omega2", "omega12", "xi12", "theta1", "theta2", "alpha1", "alpha2"):
        def counted(cf, _build=getattr(surface_embed.CoframeSet, name).func, _name=name):
            counts.add(_name)
            return _build(cf)
        spy = cached_property(counted)
        spy.__set_name__(surface_embed.CoframeSet, name)
        monkeypatch.setattr(surface_embed.CoframeSet, name, spy)
    yield counts
    os.close(counts.fd)


OMEGA = {"omega1", "omega2", "xi12", "omega12"}


@pytest.mark.parametrize("argv, levels, built", [
    (["mesh"], 1, OMEGA),
    # the forked child evaluates the finest level of the frame rows
    (["verify", "--only", "frame.", "--refine", "2"], 2, OMEGA),
    (["deform", "--t0", "1"], 1, OMEGA | {"alpha1", "alpha2"}),
    (["solve", "--refine", "2"], 2, {"omega1", "omega2", "alpha1", "alpha2"}),
], ids=["mesh", "verify-only-frame", "deform", "solve-refine-2"])
def test_each_command_builds_only_the_coframes_its_rows_read(small_config, tmp_path,
                                                             coframe_builds, argv, levels, built):
    command, *rest = argv
    # the small grid fails an order at two levels: exit 1, with every row run
    assert main([command, "--config", str(small_config), "--out", str(tmp_path / "o"),
                 *rest]) in (0, 1)
    names = coframe_builds.path.read_text().split()
    assert set(names) == built
    assert all(names.count(name) == levels for name in built)  # once per level
    assert_no_children()


def test_psi_rows_decompose_in_the_levels_own_alpha_coframe(small_config, monkeypatch):
    coframes = []
    decompose = lax_psi.decompose_in_coframe

    def spy(w, c1, c2):
        coframes.append((c1, c2))
        return decompose(w, c1, c2)

    monkeypatch.setattr(lax_psi, "decompose_in_coframe", spy)
    monkeypatch.setattr(cli, "decompose_in_coframe", spy)
    cfg = load_config(small_config)
    level = cli.PipelineData(cfg, cfg.grid)
    for row in cli.CHECKS:
        if row.name in ("psi.constraint", "psi.c_relation", "psi.second_order"):
            level.evaluate(row)
    # d(psi) once for the three rows, then d(psi_1) and d(psi_2) for psi.second_order
    assert len(coframes) == 3
    assert all(c1 is level.cf.alpha1 and c2 is level.cf.alpha2 for c1, c2 in coframes)


def test_deform_and_solve_compute_each_battery_once(demo_config_file, tmp_path, work_counts):
    # the OBJ writer only writes: the tau march, the deformed frame and the
    # report each run once, in the command's process
    assert main(["deform", "--config", str(demo_config_file), "--out", str(tmp_path / "d"),
                 "--t0", "1.0"]) == 0
    for name in ("integrate_deformation", "build_deformed_surface", "build_coframes",
                 "deformation_report"):
        assert work_counts[name] == 1, name
    # the companion's closed-form forms, and the base surface's for II' - II
    assert work_counts["fundamental_forms"] == 2
    assert work_counts["integrate_frame"] == 0
    assert_no_children()
    work_counts.clear()
    assert main(["mesh", "--config", str(demo_config_file), "--out", str(tmp_path / "m")]) == 0
    for name in ("integrate_frame", "build_coframes", "structure_residuals"):
        assert work_counts[name] == 1, name
    # the forms.csv writer builds the forms it writes, and the command's process
    # builds them again for frame.second_form, after the frame march
    assert work_counts["fundamental_forms"] == 2
    assert work_counts["integrate_deformation"] == work_counts["build_deformed_surface"] == 0
    assert_no_children()
    work_counts.clear()
    assert main(["solve", "--config", str(demo_config_file), "--out", str(tmp_path / "s"),
                 "--refine", "3"]) == 0
    assert work_counts["ideal_residuals"] == 3


def test_each_integrated_surface_is_read_by_finite_differences_once(
        demo_config_file, tmp_path, work_counts):
    # the base frame on each of 3 levels, and the deformed frame on the base level
    assert main(["verify", "--config", str(demo_config_file), "--out", str(tmp_path / "v"),
                 "--refine", "3"]) == 0
    assert work_counts["fd_forms"] == 4
    for argv in (["mesh"], ["deform", "--t0", "1.0"]):
        work_counts.clear()
        assert main([argv[0], "--config", str(demo_config_file),
                     "--out", str(tmp_path / argv[0]), *argv[1:]]) == 0
        assert work_counts["fd_forms"] == 1, argv[0]


def test_check_rows_differentiate_no_surface_twice(demo_config_file, monkeypatch):
    """Every row of the check table on one level takes x_s, x_t, n_s and n_t
    of the base and of the deformed surface once each, a block of rows at a time."""
    cfg = load_config(demo_config_file)
    level = cli.PipelineData(cfg, cfg.grid)
    gradient = np.gradient
    derivatives = []

    def counted(values, *args, **kwargs):
        if np.ndim(values) == 3:  # x or e3 of a surface, not a scalar field
            derivatives.append((values.tobytes(), kwargs["axis"]))
        return gradient(values, *args, **kwargs)

    monkeypatch.setattr(np, "gradient", counted)
    for row in cli.CHECKS:
        level.evaluate(row)
    blocks = -(-cfg.grid.ns // surface_embed._BLOCK_ROWS)
    assert blocks == 2
    assert len(derivatives) == 8 * blocks
    assert len(set(derivatives)) == len(derivatives)


# the ladder's fork: SMALL_CONFIG's verify runs the 17 x 17 base level and the
# finest (33 x 33) level's rows before the frame march in this process, and the
# finest level's frame rows in a forked child
FINEST_NS = 33


class Hung(BaseException):
    """main ran past its alarm; not an Exception, so main lets it through."""


def guarded_main(argv, seconds=60):
    """main(argv), failed by SIGALRM rather than left hanging after `seconds`."""
    def expire(signum, frame):
        raise Hung(f"main({argv}) ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        return main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def verify_small(small_config, tmp_path, *extra):
    return guarded_main(["verify", "--config", str(small_config),
                         "--out", str(tmp_path / "o"), *extra])


def fail_on_grid(monkeypatch, ns, exc):
    """Make the frame march raise `exc` on the level whose grid has `ns` nodes along s."""
    march = surface_embed.integrate_frame

    def integrate_frame(cf, *args, **kwargs):
        if cf.grid.ns == ns:
            raise exc
        return march(cf, *args, **kwargs)

    monkeypatch.setattr(surface_embed, "integrate_frame", integrate_frame)


MODULE_ERROR_CASES = (
    DomainError("s left the domain"),
    ConsistencyError("identity broken"),
    RegimeError(1.25),
    BlowUpError(2.5),
    ProfileRangeError("profile field E must be positive everywhere, but is 0 at s = 1"),
    LaxBlowUpError((3, 4)),
    CoframeSingularError((1, 2), -1e-20, 3.0),
    FrameStepError("refine the grid"),
    NonFiniteFieldError((5, 6), 1.5, 0.25, -math.inf),
)


def public_data_errors(cls=forms2d.DataError):
    """The public subclasses of cls, found recursively."""
    found = set()
    for sub in cls.__subclasses__():
        if not sub.__name__.startswith("_"):
            found.add(sub)
        found |= public_data_errors(sub)
    return found


def test_every_module_error_has_a_pickling_case():
    assert sorted(type(e).__name__ for e in MODULE_ERROR_CASES) == sorted(
        cls.__name__ for cls in public_data_errors())


@pytest.mark.parametrize("exc", MODULE_ERROR_CASES, ids=lambda e: type(e).__name__)
def test_module_errors_keep_their_builtin_base(exc):
    runtime = type(exc).__name__ in (
        "ConsistencyError", "RegimeError", "BlowUpError", "LaxBlowUpError")
    assert isinstance(exc, forms2d.DataError)
    assert (isinstance(exc, RuntimeError), isinstance(exc, ValueError)) == (runtime, not runtime)


@pytest.mark.parametrize("exc", MODULE_ERROR_CASES, ids=lambda e: type(e).__name__)
def test_module_errors_survive_pickling(exc):
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert vars(back) == vars(exc)  # last_valid_s, node, or index, det and scale


@pytest.mark.parametrize("exc", MODULE_ERROR_CASES, ids=lambda e: type(e).__name__)
@pytest.mark.parametrize("ns", [17, FINEST_NS], ids=["base-level-here", "finest-level-forked"])
def test_an_error_reads_the_same_from_either_process(small_config, tmp_path, capsys,
                                                      monkeypatch, ns, exc):
    fail_on_grid(monkeypatch, ns, exc)
    assert verify_small(small_config, tmp_path) == 2
    captured = capsys.readouterr()
    assert captured.err == f"bonnet: {type(exc).__name__}: {exc}\n"
    assert captured.out == ""
    assert_no_children()


def test_base_level_error_wins_and_the_child_is_killed(small_config, tmp_path, capsys,
                                                       monkeypatch):
    started = tmp_path / "child-started"
    build = cli.PipelineData.__init__

    def slow_child_failing_base(self, cfg, grid):
        if grid.ns == FINEST_NS:  # the child: busy well past the parent's error
            started.write_text("")
            time.sleep(45)
        else:  # the parent: fail the base level once the child is at work
            deadline = time.monotonic() + 20
            while not started.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert started.exists(), "the finest level never started"
            raise DomainError("the base level left the domain")
        build(self, cfg, grid)

    monkeypatch.setattr(cli.PipelineData, "__init__", slow_child_failing_base)
    t0 = time.monotonic()
    assert verify_small(small_config, tmp_path) == 2
    assert time.monotonic() - t0 < 30  # the child was not waited for
    assert capsys.readouterr().err == "bonnet: DomainError: the base level left the domain\n"
    assert_no_children()


@pytest.mark.parametrize("ns", [17, FINEST_NS], ids=["base-level-here", "finest-level-forked"])
def test_foreign_error_exits_four_with_its_traceback(small_config, tmp_path, capsys,
                                                     monkeypatch, ns):
    fail_on_grid(monkeypatch, ns, ZeroDivisionError("boom"))
    assert verify_small(small_config, tmp_path) == 4
    err = capsys.readouterr().err
    assert err.startswith("Traceback") and "\nZeroDivisionError: boom\n" in err, err
    if ns == FINEST_NS and sys.version_info >= (3, 11):  # with the child's own traceback
        assert "raised in the forked child" in err and "integrate_frame" in err
    assert_no_children()


def test_unpicklable_error_in_the_child_surfaces_by_name(small_config, tmp_path, capsys,
                                                         monkeypatch):
    class LocalError(Exception):  # a local class cannot be pickled
        pass

    fail_on_grid(monkeypatch, FINEST_NS, LocalError("boom in the finest level"))
    assert verify_small(small_config, tmp_path) == 4
    err = capsys.readouterr().err
    assert err.startswith("Traceback")
    assert "RuntimeError: LocalError: boom in the finest level\n" in err, err
    if sys.version_info >= (3, 11):  # with the child's own traceback
        assert "raised in the forked child" in err and "in integrate_frame" in err, err
    assert_no_children()


@pytest.mark.parametrize("exc, line", [
    (MemoryError("Unable to allocate 1.9 GiB for an array"),
     "MemoryError: Unable to allocate 1.9 GiB for an array"),
    (MemoryError(), "MemoryError: out of memory"),
], ids=["message", "bare"])
@pytest.mark.parametrize("ns", [17, FINEST_NS], ids=["base-level-here", "finest-level-forked"])
def test_out_of_memory_exits_three_with_one_line(small_config, tmp_path, capsys, monkeypatch,
                                                 ns, exc, line):
    fail_on_grid(monkeypatch, ns, exc)
    assert verify_small(small_config, tmp_path) == 3
    assert capsys.readouterr() == ("", f"bonnet: {line}\n")
    assert_no_children()


@pytest.mark.parametrize("end, how", [
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "died from SIGKILL"),
    (lambda: os._exit(7), "exited with status 7 and no result"),
], ids=["killed", "exited"])
def test_a_child_that_dies_is_named_and_exits_three(small_config, tmp_path, capsys,
                                                    monkeypatch, end, how):
    # the frame march on the finest grid runs in the child alone
    march = surface_embed.integrate_frame

    def dying(cf, *args, **kwargs):
        if cf.grid.ns == FINEST_NS:
            end()
        return march(cf, *args, **kwargs)

    monkeypatch.setattr(surface_embed, "integrate_frame", dying)
    assert verify_small(small_config, tmp_path) == 3
    assert capsys.readouterr() == (
        "", f"bonnet: ChildDiedError: the process evaluating the finest ladder level {how}\n")
    assert_no_children()


@pytest.mark.parametrize("ns", [17, FINEST_NS], ids=["base-level-here", "finest-level-forked"])
def test_a_floating_point_fault_exits_two_from_either_process(small_config, tmp_path, capsys,
                                                                monkeypatch, ns):
    # an overflow at no site that expects one, which numpy would only warn about
    weingarten = surface_embed.weingarten_residual
    faulted = tmp_path / "faulted-in"

    def overflowing(profile, fd):
        if fd.grid.ns == ns:
            faulted.write_text(str(os.getpid()))
            np.exp(np.full(3, 1e3))
        return weingarten(profile, fd)

    monkeypatch.setattr(surface_embed, "weingarten_residual", overflowing)
    assert verify_small(small_config, tmp_path, "--only", "weingarten") == 2
    assert capsys.readouterr().err == "bonnet: FloatingPointError: overflow encountered in exp\n"
    # the base level's rows run in this process, the finest level's in the forked child
    assert (faulted.read_text() == str(os.getpid())) == (ns == 17)
    assert_no_children()


@pytest.mark.parametrize("argv, code", [
    (["solve", "--refine", "2"], 0),   # the demo passes
    (["verify", "--refine", "2"], 1),  # the demo at 64^2 and 127^2 fails two orders
])
def test_no_child_outlives_main(demo_config_file, tmp_path, argv, code):
    command, *rest = argv
    assert guarded_main([command, "--config", str(demo_config_file),
                         "--out", str(tmp_path / "o"), *rest]) == code
    assert_no_children()


def run_small(small_config, out, capsys, argv):
    """(exit code, stdout, stderr, {name: bytes} of every file in out) of one
    command, with out spelled OUT in what it prints."""
    command, *rest = argv
    code = guarded_main([command, "--config", str(small_config), "--out", str(out), *rest])
    printed = capsys.readouterr()
    files = {p.name: p.read_bytes() for p in sorted(out.glob("*")) if p.is_file()}
    return code, printed.out.replace(str(out), "OUT"), printed.err.replace(str(out), "OUT"), files


def test_only_a_multi_level_ladder_forks(small_config, tmp_path, monkeypatch, capsys, no_child):
    # the ladder forks only on two or more levels, and mesh and deform fork one
    # writer per file; without a child every command prints and writes the same bytes
    fork, forks = os.fork, []

    def counted_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    expected = {("mesh",): 2, ("deform", "--t0", "1"): 1, ("solve",): 0,
                ("solve", "--refine", "1"): 0, ("verify", "--only", "q."): 0, ("verify",): 1}
    forked = {}
    for i, argv in enumerate(expected):
        forks.clear()
        forked[argv] = run_small(small_config, tmp_path / f"forked{i}", capsys, argv)
        assert len(forks) == expected[argv], argv
    # the small grid fails an order at two levels
    assert [run[0] for run in forked.values()] == [0, 0, 0, 0, 0, 1]
    assert sorted(forked[("mesh",)][3]) == ["forms.csv", "mesh_report.json", "surface.obj"]
    forks.clear()
    no_child()
    for i, argv in enumerate(expected):
        assert run_small(small_config, tmp_path / f"here{i}", capsys, argv) == forked[argv], argv
    assert forks == []
    assert_no_children()


def fork_and_no_fork(small_config, tmp_path, capsys, no_child, argv):
    """run_small of argv with a child, then with none, each in a fresh out."""
    forked = run_small(small_config, tmp_path / "forked", capsys, argv)
    assert_no_children()
    no_child()
    here = run_small(small_config, tmp_path / "here", capsys, argv)
    return forked, here


@pytest.mark.parametrize("argv", [("mesh",), ("deform", "--t0", "1")], ids=" ".join)
def test_an_io_error_in_a_writer_reads_as_in_one_process(small_config, tmp_path, capsys,
                                                         monkeypatch, no_child, argv):
    def export_obj(frame, path):
        raise OSError(errno.ENOSPC, "No space left on device", os.path.basename(path))

    monkeypatch.setattr(surface_embed, "export_obj", export_obj)
    forked, here = fork_and_no_fork(small_config, tmp_path, capsys, no_child, argv)
    name = "surface.obj" if argv[0] == "mesh" else "deformed.obj"
    assert forked[:3] == here[:3] == (
        2, "", f"bonnet: i/o error: [Errno 28] No space left on device: '{name}'\n")
    assert f"{argv[0]}_report.json" not in forked[3]
    assert_no_children()


@pytest.mark.parametrize("march_fails", [True, False], ids=["march-fails", "obj-writer-starts"])
def test_a_writers_error_wins_over_a_later_one(small_config, tmp_path, capsys, monkeypatch,
                                               no_child, march_fails):
    # the forms.csv writer starts before the frame march, which fails too or goes
    # on to start the surface.obj writer, which is then killed, or never runs
    for out in ("forked", "here"):
        (tmp_path / out / "forms.csv").mkdir(parents=True)
    if march_fails:
        fail_on_grid(monkeypatch, 17, FrameStepError("frame step too large; refine the grid"))
    forked, here = fork_and_no_fork(small_config, tmp_path, capsys, no_child, ("mesh",))
    assert forked[:3] == here[:3]
    assert forked[0] == 2
    assert forked[2] == "bonnet: i/o error: [Errno 21] Is a directory: 'OUT/forms.csv'\n"
    assert_no_children()


def test_a_writer_killed_by_a_signal_is_named(small_config, tmp_path, capsys, monkeypatch):
    parent = os.getpid()

    def export_obj(frame, path):
        assert os.getpid() != parent, "the writer ran in the command's process"
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(surface_embed, "export_obj", export_obj)
    assert guarded_main(["mesh", "--config", str(small_config),
                         "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == (f"bonnet: ChildDiedError: the process writing "
                                       f"{tmp_path / 'o' / 'surface.obj'} died from SIGKILL\n")
    assert not (tmp_path / "o" / "mesh_report.json").exists()
    assert_no_children()


SMALL_BRANCHES = {
    "rational_minus": ({"kind": "rational", "sign": -1, "a": 1.0},
                       {"case": "rational_lower", "sigma": 0.0}, (-2.0, -1.0)),
    "trig_plus": ({"kind": "trig", "sign": 1, "a": 1.0},
                  {"case": "trig_appendix", "eta": 0.3}, (1.0, 2.0)),
    "hyper_minus": ({"kind": "hyper", "sign": -1, "a": 1.0},
                    {"case": "hyper_appendix", "eta": 0.0}, (-2.0, -1.0)),
    "rational_marched": ({"kind": "rational", "sign": 1, "a": 1.0},
                         {"integrate": True, "psi0": 0.0, "substeps": 8}, (1.0, 2.0)),
}


@pytest.mark.parametrize("branch", SMALL_BRANCHES)
def test_forked_and_one_process_runs_match(tmp_path, capsys, no_child, branch):
    family, psi, (s_min, s_max) = SMALL_BRANCHES[branch]
    data = {**SMALL_CONFIG, "family": family, "psi": psi,
            "grid": {**SMALL_CONFIG["grid"], "s_min": s_min, "s_max": s_max},
            "h_initial": {**SMALL_CONFIG["h_initial"], "s0": s_min}}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))

    def run(name):
        out = tmp_path / name
        code = guarded_main(["verify", "--config", str(cfg), "--out", str(out)])
        printed = capsys.readouterr()
        return (code, printed.out.replace(str(out), "OUT"), printed.err,
                (out / "verify_report.json").read_bytes())

    forked = run("forked")
    no_child()
    assert run("here") == forked
    assert_no_children()


class FrameRead(Exception):
    """Raised in place of the frame march."""


def frameless_level(small_config, monkeypatch):
    """The 17 x 17 level of SMALL_CONFIG, whose PipelineData.frame raises FrameRead."""
    def frame(self):
        raise FrameRead

    monkeypatch.setattr(cli.PipelineData, "frame", property(frame))
    cfg = load_config(small_config)
    return cli.PipelineData(cfg, cfg.grid)


def test_only_rows_marked_as_reading_the_frame_read_it(small_config, monkeypatch):
    # a row's reads reach the frame through values such as fd_forms, not through a
    # name prefix; today they pick the frame. and weingarten. rows
    reach = {row.name for row in cli.CHECKS if "frame" in cli._reach(cli._reads(row))}
    assert reach == {row.name for row in cli.CHECKS
                     if row.name.startswith(("frame.", "weingarten."))}
    level = frameless_level(small_config, monkeypatch)
    for row in cli.CHECKS:
        if row.name in reach:
            with pytest.raises(FrameRead):
                level.evaluate(row)
        else:  # every other row, the parent's finest-level share among them
            level.evaluate(row)


def test_every_battery_is_read_and_every_battery_name_resolves():
    cached = {name for name, attr in vars(cli.PipelineData).items()
              if isinstance(attr, cli._value)}
    named = {name for row in cli.CHECKS for name in (row.battery, row.scale)
             if isinstance(name, str)}
    assert named <= cached
    # a battery or scale no row reads would be dead work on every level it is built
    # on; these are read by other values of the level or by row functions
    assert cached - named == {"fam", "branch", "psi", "profile", "t0", "cf", "frame",
                              "fd_forms", "alpha", "forms", "tau", "deformed_frame",
                              "deformed_fd_forms", "deformed_forms"}


def test_check_names_are_unique():
    assert len({row.name for row in cli.CHECKS}) == len(cli.CHECKS)


def test_the_child_takes_the_frame_rows_wherever_they_sit(small_config, tmp_path, capsys,
                                                           monkeypatch, no_child):
    # frame.two_path moved up among the ladder rows: the child still evaluates it,
    # and only it and the other frame rows, on the finest level
    argv = ("verify", "--refine", "2")
    unpatched = run_small(small_config, tmp_path / "unpatched", capsys, argv)
    rows = [row for row in cli.CHECKS if row.name != "frame.two_path"]
    at = [row.name for row in rows].index("lax.compat") + 1
    rows.insert(at, next(row for row in cli.CHECKS if row.name == "frame.two_path"))
    monkeypatch.setattr(cli, "CHECKS", tuple(rows))
    counts, parent = SharedCounts(tmp_path / "pids.txt"), os.getpid()
    for module, name in ((surface_embed, "structure_residuals"),
                         (lax_psi, "harmonic_residual"), (surface_embed, "_frame_moves")):
        def recorded(field, *args, _fn=getattr(module, name), _name=name, **kwargs):
            # _frame_moves takes the grid itself
            if getattr(field, "grid", field).ns == FINEST_NS:
                counts.add(f"{_name}:{'here' if os.getpid() == parent else 'child'}")
            return _fn(field, *args, **kwargs)
        monkeypatch.setattr(module, name, recorded)
    forked = run_small(small_config, tmp_path / "forked", capsys, argv)
    assert_no_children()

    def entries(run):
        return {c["name"]: c for c in json.loads(run[3]["verify_report.json"])["checks"]}

    assert entries(forked) == entries(unpatched)
    assert list(entries(forked)) == [row.name for row in rows]
    assert counts["structure_residuals:here"] == counts["harmonic_residual:here"] == 1
    assert counts["structure_residuals:child"] == counts["harmonic_residual:child"] == 0
    # the t-first march, which is stored, and two_path's s-first march, which is not
    assert (counts["_frame_moves:here"], counts["_frame_moves:child"]) == (0, 2)
    no_child()
    assert run_small(small_config, tmp_path / "here", capsys, argv) == forked
    os.close(counts.fd)


def test_parent_error_on_the_finest_level_wins_over_the_childs(small_config, tmp_path,
                                                                capsys, monkeypatch, no_child):
    # structure.* do not read the frame, so the parent evaluates them on the finest
    # level, while the child's frame march fails there too
    battery = surface_embed.structure_residuals

    def structure_residuals(cf, *args, **kwargs):
        if cf.grid.ns == FINEST_NS:
            raise DomainError("the finest structure battery left the domain")
        return battery(cf, *args, **kwargs)

    monkeypatch.setattr(surface_embed, "structure_residuals", structure_residuals)
    fail_on_grid(monkeypatch, FINEST_NS, FrameStepError("frame step too large; refine the grid"))
    forked = verify_small(small_config, tmp_path), capsys.readouterr()
    assert forked[1].err == "bonnet: DomainError: the finest structure battery left the domain\n"
    assert_no_children()
    no_child()
    assert (verify_small(small_config, tmp_path), capsys.readouterr()) == forked
    assert forked[0] == 2


@pytest.fixture()
def level_builds(monkeypatch, tmp_path):
    """Each PipelineData built, as "parent:<ns>" or "child:<ns>" by the process."""
    builds = SharedCounts(tmp_path / "builds.txt")
    parent = os.getpid()
    build = cli.PipelineData.__init__

    def recorded(self, cfg, grid):
        builds.add(f"{'parent' if os.getpid() == parent else 'child'}:{grid.ns}")
        build(self, cfg, grid)

    monkeypatch.setattr(cli.PipelineData, "__init__", recorded)
    yield builds
    os.close(builds.fd)


@pytest.mark.parametrize("argv, parent_builds_finest", [
    (["verify"], True),                         # split at frame.two_path
    (["verify", "--only", "frame."], False),    # every ladder row reads the frame
    (["verify", "--only", "psi."], False),      # none does: the child takes the level
    (["solve", "--refine", "2"], False),
], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_who_builds_the_finest_level(small_config, tmp_path, level_builds, argv,
                                     parent_builds_finest):
    command, *rest = argv
    guarded_main([command, "--config", str(small_config), "--out", str(tmp_path / "o"), *rest])
    assert level_builds["parent:17"] == 1 and level_builds["child:17"] == 0
    assert level_builds["child:33"] == 1
    assert level_builds["parent:33"] == int(parent_builds_finest)
    assert_no_children()


def test_json_flag_prints_report(small_config, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["solve", "--config", str(small_config), "--out", str(out),
                 "--json"]) == 0
    printed = json.loads(capsys.readouterr().out)
    on_disk = json.loads((out / "solve_report.json").read_text())
    assert printed == on_disk


def test_solve_runs_where_a_rounded_up_h_march_missed_the_last_node(tmp_path, capsys):
    # on [0.3, 1.7] at 2426 x 5 a step count rounded up from the float step h_s / 8
    # came out one over; (ns - 1) * substeps steps land on the last node
    path = write_config(tmp_path, grid={"s_min": 0.3, "s_max": 1.7, "ns": 2426, "nt": 5},
                        h_initial={"s0": 0.3})
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "out")]) == 0


def test_exit_one_on_residual_failure(tmp_path, capsys):
    cfg = write_config(tmp_path, tolerances={"algebraic": 1e-30, "fd_factor": 1e-12})
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_exit_two_on_domain_violation(tmp_path, capsys):
    cfg = write_config(tmp_path, grid={"s_min": -0.5, "s_max": 0.5},
                       h_initial={"s0": -0.5})
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err


def test_unknown_command_exits_via_argparse(capsys):
    with pytest.raises(SystemExit):
        main(["polish"])


def test_module_entry_point():
    # the child imports the same bonnet as this process, however it was found
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "bonnet", "families"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "sinh" in proc.stdout
