"""Command-line interface: config parsing, commands, reports, exit codes.

Exit code contract: 0 all checks pass, 1 a residual check failed,
2 configuration or domain errors.  Reports must be byte-stable across
reruns of the same config.
"""
import collections
import json
import math
import os
import pathlib
import subprocess
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bonnet import bonnet_solver, cli, lax_psi, surface_embed
from bonnet.cli import (
    RK4_RATIO_HIGH,
    RK4_RATIO_LOW,
    RK4_TOL,
    ConfigError,
    RunConfig,
    _rk4_crosscheck,
    load_config,
    main,
)
from bonnet.q_family import KINDS, QFamily

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
], ids=lambda o: json.dumps(o)[:60])
def test_bad_config_values_exit_two(tmp_path, capsys, overrides):
    cfg = write_config(tmp_path, **overrides)
    out = tmp_path / "o"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert not out.exists()  # rejected before any file is written


DEMO_FILE = json.loads(
    (pathlib.Path(__file__).resolve().parents[1] / "configs" / "demo_rational.json").read_text()
)
# every key of the demo config, nested ones as (section, key), and the optional psi keys
FUZZ_KEYS = [(k,) for k in DEMO_FILE] + [
    (k, sub) for k, v in DEMO_FILE.items() if isinstance(v, dict) for sub in v
] + [("psi", k) for k in ("integrate", "psi0", "substeps", "eta")]
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


def test_integral_float_counts_are_accepted(tmp_path):
    cfg = load_config(write_config(tmp_path, grid={"ns": 17.0}, refine_levels=2.0))
    assert cfg.grid.ns == 17 and cfg.refine_levels == 2


def test_too_coarse_frame_step_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, grid={"ns": 5, "nt": 5, "t_max": 40.0})
    assert main(["mesh", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "FrameStepError" in err and "refine the grid" in err


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
    # every number of the march exactly and reproduces the a = 1 pair
    ref = _rk4_crosscheck(QFamily(kind, sign, 1.0))
    for a in (0.25, 0.5, 2.0, 4.0):
        assert _rk4_crosscheck(QFamily(kind, sign, a)) == ref
    if kind == "trig":
        assert _rk4_crosscheck(QFamily(kind, sign, 3.7))[0] <= RK4_TOL


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
    assert all(c["order"] == "converged" or c["order"] >= 1.9 for c in fd)


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
    # 17x17 is too coarse for the ii-distinctness margin (10 x 25 h^2 is
    # huge there), so the deform run gets a 33x33 grid
    cfg = write_config(tmp_path, grid={"ns": 33, "nt": 33})
    out = tmp_path / "out"
    assert main(["deform", "--config", str(cfg), "--out", str(out),
                 "--t0", "2.0"]) == 0
    report = json.loads((out / "deform_report.json").read_text())
    assert report["t0"] == 2.0
    assert report["pole_count"] == 0
    assert report["II_deviation"] > 10 * report["checks"][0]["tolerance"]
    assert (out / "deformed.obj").exists()


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


COUNTED = {
    surface_embed: (
        "integrate_frame", "build_deformed_surface", "build_coframes",
        "integrate_deformation", "structure_residuals", "codazzi_summary_residuals",
        "theta12_report", "weingarten_residual",
    ),
    bonnet_solver: ("ideal_residuals",),
    lax_psi: ("lax_residuals", "c_relation_residuals"),
}


@pytest.fixture()
def work_counts(monkeypatch):
    """Calls of the expensive pipeline functions; also fails a command that
    builds a PipelineData while an earlier one is still alive."""
    counts = collections.Counter()
    for module, names in COUNTED.items():
        for name in names:
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
    alive = []
    build = cli.PipelineData.__init__

    def tracked(self, *args, **kwargs):
        assert all(ref() is None for ref in alive), "two levels alive at once"
        alive.append(weakref.ref(self))
        build(self, *args, **kwargs)

    monkeypatch.setattr(cli.PipelineData, "__init__", tracked)
    return counts


def test_verify_computes_each_battery_and_march_once_per_level(demo_config_file, tmp_path,
                                                               work_counts):
    assert main(["verify", "--config", str(demo_config_file), "--out", str(tmp_path),
                 "--refine", "3"]) == 0
    # t-first and s-first frame on each of 3 levels, one deformed frame
    assert work_counts["integrate_frame"] + work_counts["build_deformed_surface"] == 7
    for name in ("build_coframes", "structure_residuals", "codazzi_summary_residuals",
                 "theta12_report", "ideal_residuals", "lax_residuals",
                 "c_relation_residuals", "weingarten_residual"):
        assert work_counts[name] == 3, name
    assert work_counts["integrate_deformation"] == 1


def test_deform_and_solve_compute_each_battery_once(demo_config_file, tmp_path, work_counts):
    assert main(["deform", "--config", str(demo_config_file), "--out", str(tmp_path / "d"),
                 "--t0", "1.0"]) == 0
    for name in ("integrate_deformation", "build_deformed_surface", "build_coframes"):
        assert work_counts[name] == 1, name
    assert work_counts["integrate_frame"] == 0
    work_counts.clear()
    assert main(["solve", "--config", str(demo_config_file), "--out", str(tmp_path / "s"),
                 "--refine", "3"]) == 0
    assert work_counts["ideal_residuals"] == 3


def test_json_flag_prints_report(small_config, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["solve", "--config", str(small_config), "--out", str(out),
                 "--json"]) == 0
    printed = json.loads(capsys.readouterr().out)
    on_disk = json.loads((out / "solve_report.json").read_text())
    assert printed == on_disk


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
