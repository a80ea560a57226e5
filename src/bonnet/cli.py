"""Command-line front end: config parsing and pipeline orchestration.

Commands
    families  list the six closed-form Q branches
    solve     Q + psi + H pipeline, profile/psi CSV and residual report
    mesh      moving-frame integration, OBJ mesh and structure report
    deform    one companion surface of the isometric family, plus report
    verify    every named residual check with observed convergence orders

solve, mesh, deform and verify share one table of checks (CHECKS) and one
refinement ladder (_ladder): they differ only in the rows they select and
the number of levels they run.  Configs are single JSON files (see
configs/demo_rational.json).  All outputs are deterministic: fixed check
order, sorted JSON keys, 17 significant digits, no timestamps.  Exit
codes: 0 success, 1 residual failure, 2 config or domain error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import bonnet_solver, lax_psi, surface_embed
from .bonnet_solver import BlowUpError, HInitialData, RegimeError
from .forms2d import (
    CoframeSingularError,
    Grid,
    ScalarField,
    _write_rows,
    mixed_partial_residual,
    observed_order,
    write_scalar_csv,
)
from .lax_psi import CASES, LaxBlowUpError, PsiBranch
from .q_family import (
    KINDS,
    ConsistencyError,
    DomainError,
    QFamily,
    SingularityGuard,
    eval_q,
    eval_q_derivatives,
    first_integral_kappa,
    guarded_samples,
    integrate_q_ode,
    q_ode_residual,
)
from .surface_embed import FrameStepError

__all__ = ["main", "RunConfig", "ConfigError", "cmd_verify"]

ORDER_TARGET = 1.9
RK4_RATIO_LOW, RK4_RATIO_HIGH = 12.0, 20.0
RK4_TOL = 1e-9
ORTHONORMALITY_TOL = 1e-12
K_T_VARIATION_TOL = 1e-10


class ConfigError(ValueError):
    """Bad or missing configuration values (exit code 2)."""


def _to_float(value) -> float:
    if isinstance(value, bool):
        return math.nan
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        return math.nan


def _number(value, name: str) -> float:
    """A finite config number (numeric strings allowed), else ConfigError."""
    x = _to_float(value)
    if not math.isfinite(x):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return x


def _count(value, name: str) -> int:
    """An integer config value: 64 and 64.0 pass, 64.7 and "three" do not."""
    x = _to_float(value)
    if not x.is_integer():
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(x)


# ---------------------------------------------------------------------------
# configuration


class RunConfig:
    """Validated contents of one JSON config file."""

    def __init__(self, data: dict):
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
        self.family = self._parse_family(data)
        self.grid = self._parse_grid(data)
        self.psi_branch, self.psi0, self.psi_substeps = self._parse_psi(data)
        self.h_initial = self._parse_h(data)
        self.profile_substeps = _count(data.get("profile_substeps", 8), "profile_substeps")
        if self.profile_substeps < 1:
            raise ConfigError("profile_substeps must be >= 1")
        self.t0 = None if data.get("t0") is None else _number(data["t0"], "t0")
        self.out_dir = str(data.get("out_dir", "out"))
        self.refine_levels = _count(data.get("refine_levels", 3), "refine_levels")
        tol = data.get("tolerances", {})
        if not isinstance(tol, dict):
            raise ConfigError("tolerances must be an object")
        self.tol_algebraic = _number(tol.get("algebraic", 1e-10), "tolerances.algebraic")
        self.fd_factor = _number(tol.get("fd_factor", 25.0), "tolerances.fd_factor")
        if self.tol_algebraic <= 0 or self.fd_factor <= 0:
            raise ConfigError("tolerances must be positive")
        try:  # the fd tolerance scale of every report, as _judge computes it
            fd_scale = self.fd_factor * self.grid.h_max**2
        except OverflowError:
            fd_scale = math.inf
        if not math.isfinite(fd_scale):
            raise ConfigError("tolerances.fd_factor * grid.h_max**2 must be finite")
        # the grid must sit inside the guarded family domain
        try:
            SingularityGuard(self.family).check(
                np.array([self.grid.s_min, self.grid.s_max])
            )
        except DomainError as exc:
            raise ConfigError(f"grid violates the family domain: {exc}") from exc
        if abs(self.h_initial.s0 - self.grid.s_min) > 1e-12 * max(1.0, abs(self.grid.s_min)):
            raise ConfigError("h_initial.s0 must equal grid.s_min")

    @staticmethod
    def _req(data: dict, key: str) -> dict:
        if key not in data:
            raise ConfigError(f"config is missing required key '{key}'")
        if not isinstance(data[key], dict):
            raise ConfigError(f"config key '{key}' must be an object")
        return data[key]

    def _parse_family(self, data) -> QFamily:
        fam = self._req(data, "family")
        kind = fam.get("kind")
        if kind not in KINDS:
            raise ConfigError(f"family.kind must be one of {KINDS}")
        sign = fam.get("sign", 1)
        if isinstance(sign, bool) or sign not in (1, -1):
            raise ConfigError("family.sign must be 1 or -1")
        try:
            return QFamily(kind, int(sign), _number(fam.get("a", 1.0), "family.a"))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def _parse_grid(self, data) -> Grid:
        g = self._req(data, "grid")
        try:
            return Grid(
                *(_number(g[k], f"grid.{k}") for k in ("s_min", "s_max", "t_min", "t_max")),
                _count(g["ns"], "grid.ns"), _count(g["nt"], "grid.nt"),
            )
        except KeyError as exc:
            raise ConfigError(f"grid is missing {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"bad grid: {exc}") from exc

    def _parse_psi(self, data):
        p = self._req(data, "psi")
        substeps = _count(p.get("substeps", 8), "psi.substeps")
        if substeps < 1:
            raise ConfigError("psi.substeps must be >= 1")
        integrate = p.get("integrate", False)
        if not isinstance(integrate, bool):
            raise ConfigError(f"psi.integrate must be true or false, got {integrate!r}")
        if integrate:
            if "psi0" not in p:
                raise ConfigError("psi.integrate requires psi.psi0")
            return None, _number(p["psi0"], "psi.psi0"), substeps
        case = p.get("case")
        if case not in CASES:
            raise ConfigError(f"psi.case must be one of {CASES} (or psi.integrate)")
        try:
            branch = PsiBranch(
                case, self.family,
                _number(p.get("sigma", 0.0), "psi.sigma"), _number(p.get("eta", 0.0), "psi.eta"),
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return branch, None, substeps

    def _parse_h(self, data) -> HInitialData:
        h = self._req(data, "h_initial")
        try:
            return HInitialData(*(
                _number(h[k], f"h_initial.{k}") for k in ("s0", "H0", "H0p", "H0pp", "tau_c")
            ))
        except KeyError as exc:
            raise ConfigError(f"h_initial is missing {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"bad h_initial: {exc}") from exc


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return RunConfig(data)


# ---------------------------------------------------------------------------
# one level of the refinement ladder


class PipelineData:
    """Everything the checks need on one grid.

    psi, the profile and the coframes are built on construction; the frame,
    the fundamental forms, the deformed surface and every battery are built
    on first use, at most once.
    """

    def __init__(self, cfg: RunConfig, grid: Grid):
        self.cfg = cfg
        self.fam = cfg.family
        self.grid = grid
        if cfg.psi_branch is not None:
            self.psi = lax_psi.psi_field_from_branch(cfg.psi_branch, grid)
        else:
            self.psi = lax_psi.integrate_lax(
                self.fam, grid, cfg.psi0, substeps=cfg.psi_substeps
            )
        self.profile = bonnet_solver.integrate_h_on_grid(
            cfg.h_initial, self.fam, grid, substeps=cfg.profile_substeps
        )
        self.cf = surface_embed.build_coframes(self.profile, self.psi, grid)
        q = self.profile.Q
        self.scale_q = max(1.0, float(np.max(np.abs(q))))
        self.scale_q2 = max(1.0, float(np.max(2.0 * q * q)))
        self.scale_e = max(1.0, float(np.max(self.profile.E)))
        self.scale_h = max(1.0, float(np.max(np.abs(self.profile.H))))
        self.scale_ii = max(
            1.0,
            float(np.max(self.profile.E * (np.abs(self.profile.H) + self.profile.J))),
        )
        self.scale_structure = max(self.scale_e, self.scale_ii)
        self._batteries = {}

    def battery(self, name: str):
        """BATTERIES[name] on this level, computed at most once."""
        if name not in self._batteries:
            self._batteries[name] = BATTERIES[name](self)
        return self._batteries[name]

    def evaluate(self, row: Check):
        """(value, scale, details) of one check row on this level."""
        result = self.battery(row.battery) if isinstance(row.battery, str) else row.battery(self)
        value = result if row.key is None else result[row.key]
        scale = getattr(self, row.scale) if isinstance(row.scale, str) else row.scale
        return value, scale, {key: result[key] for key in row.details}

    @property
    def scale_q4(self) -> float:
        return self.battery("q")["q4"]

    @cached_property
    def frame(self) -> surface_embed.FrameField:
        """The t-first frame march from the default seed."""
        return surface_embed.integrate_frame(
            self.profile, self.psi, self.grid, coframes=self.cf
        )

    @cached_property
    def forms(self) -> surface_embed.FundamentalForms:
        return surface_embed.fundamental_forms(self.profile, self.psi)

    @cached_property
    def deformed(self) -> tuple:
        """(frame, deformation_report) of the companion at the config's t0 (default 1)."""
        t0 = 1.0 if self.cfg.t0 is None else self.cfg.t0
        dp = surface_embed.integrate_deformation(self.cf, t0)
        frame, _ = surface_embed.build_deformed_surface(
            self.profile, self.psi, dp, self.grid, coframes=self.cf
        )
        return frame, surface_embed.deformation_report(self.profile, self.forms, dp, frame)


def _q_identities(L: PipelineData) -> dict:
    """Q ODE and first-integral residuals over 200 guarded samples, and max Q^4."""
    fam = L.fam
    s = guarded_samples(fam, 200)
    q, qp, _ = eval_q_derivatives(fam, s)
    return {
        "q4": float(np.max(eval_q(fam, s) ** 4)),
        "exactness": float(np.max(np.abs(q_ode_residual(fam, s)))),
        "first_integral": float(np.max(np.abs(qp * qp - q**4 - fam.kappa * q * q))),
        "kappa": first_integral_kappa(fam),
    }


# the batteries that several check rows read, by name
BATTERIES = {
    "q": _q_identities,
    "rk4": lambda L: _rk4_crosscheck(L.fam),  # (error, halving ratio)
    "structure": lambda L: surface_embed.structure_residuals(L.cf, L.profile),
    "codazzi": lambda L: surface_embed.codazzi_summary_residuals(L.cf, L.profile),
    "theta12": lambda L: surface_embed.theta12_report(L.cf, L.psi, L.profile),
    "ideal": lambda L: bonnet_solver.ideal_residuals(L.profile),
    "weingarten": lambda L: asdict(surface_embed.weingarten_residual(
        L.profile, L.psi, L.grid, frame=L.frame)),
    "deformation": lambda L: L.deformed[1],
}


# ---------------------------------------------------------------------------
# the check table


class Check(NamedTuple):
    """One row of the check table.

    battery is the name of a shared battery (BATTERIES) or a function of
    the level computing this row alone; key picks the value out of its
    result (None: the result is the value); details names result keys
    copied into the report.  scale is a number or the name of a
    PipelineData scale.  rule sets the tolerance and the pass test, with
    h the base grid's h_max and F the fd_factor:

      algebraic    value <= tolerances.algebraic * scale
      bound        value <= scale
      ratio        RK4_RATIO_LOW <= value <= RK4_RATIO_HIGH
      fd           value <= F h^2 scale, on the base level only
      lower_bound  value > 10 F h^2 scale, on the base level only
      ladder       fd on every level, and the observed order >= ORDER_TARGET
    """

    name: str
    scale: object
    battery: object
    key: object = None
    rule: str = "ladder"
    details: tuple = ()


# report order; verify runs every row, the other commands a prefix filter
CHECKS = (
    Check("q.exactness", "scale_q4", "q", "exactness", "algebraic"),
    Check("q.first_integral", "scale_q4", "q", "first_integral", "algebraic", ("kappa",)),
    Check("q.rk4_error", RK4_TOL, "rk4", 0, "bound"),
    Check("q.rk4_halving", None, "rk4", 1, "ratio"),
    Check("lax.closed_form", "scale_q", lambda L: max(
        r.max_abs() for r in lax_psi.branch_lax_residuals(L.cfg.psi_branch, L.grid)
    ), rule="algebraic"),
    Check("psi.branch_consistency", 1.0, lambda L: lax_psi.branch_consistency_error(L.psi),
          rule="algebraic"),
    Check("frame.orthonormality", ORTHONORMALITY_TOL, lambda L: L.frame.orthonormality_error(),
          rule="bound"),
    Check("frame.handedness", ORTHONORMALITY_TOL, lambda L: 1.0 - L.frame.min_handedness(),
          rule="bound"),
    Check("weingarten.k_t_variation", K_T_VARIATION_TOL, "weingarten", "k_t_variation", "bound"),
    Check("deform.metric", "scale_e", "deformation", "metric_deviation", "fd", ("t0",)),
    Check("deform.h", "scale_h", "deformation", "h_deviation", "fd", ("t0",)),
    Check("deform.ii_distinct", "scale_ii", "deformation", "ii_deviation", "lower_bound",
          ("t0", "pole_count")),
    Check("lax.compat", "scale_q", lambda L: max(
        r.max_abs_interior(1) for r in lax_psi.lax_residuals(L.psi, L.fam))),
    Check("psi.harmonic", "scale_q2", lambda L: lax_psi.harmonic_residual(L.psi, 1)),
    Check("psi.constraint", "scale_q",
          lambda L: lax_psi.psi_constraint_residual(L.psi, L.fam).max_abs_interior(2)),
    Check("psi.c_relation", "scale_q", lambda L: max(
        r.max_abs_interior(2) for r in lax_psi.c_relation_residuals(L.psi, L.fam))),
    Check("psi.second_order", "scale_q",
          lambda L: lax_psi.psi_second_order_residual(L.psi, L.fam).max_abs_interior(2)),
    Check("psi.mixed_partial", 1.0, lambda L: mixed_partial_residual(
        ScalarField.from_function(L.grid, lambda s, t: np.sin(s + 2.0 * t)),
        L.cf.alpha1, L.cf.alpha2,
    ).max_abs_interior(2)),
    Check("profile.gauss", "scale_q2", lambda L: bonnet_solver.gauss_s_residual(L.profile)),
    Check("profile.ideal_dlog_a", "scale_q2", "ideal", "dlog_a"),
    Check("profile.ideal_db", "scale_q2", "ideal", "db"),
    Check("profile.ideal_dc", "scale_q2", "ideal", "dc"),
    Check("profile.ideal_dh", "scale_q2", "ideal", "dh"),
    Check("profile.ideal_dlog_j", "scale_q2", "ideal", "dlog_j"),
    Check("profile.geodesic", "scale_q2",
          lambda L: bonnet_solver.geodesic_curvature_residual(L.profile)),
    Check("structure.d_omega1", "scale_structure", "structure", "d_omega1"),
    Check("structure.d_omega2", "scale_structure", "structure", "d_omega2"),
    Check("structure.d_omega13", "scale_structure", "structure", "d_omega13"),
    Check("structure.d_omega23", "scale_structure", "structure", "d_omega23"),
    Check("structure.d_omega12", "scale_structure", "structure", "d_omega12"),
    Check("codazzi.dh", "scale_q", "codazzi", "codazzi_dh"),
    Check("codazzi.dlog_j", "scale_q", "codazzi", "codazzi_dlog_j"),
    Check("codazzi.d_theta1", "scale_q", "codazzi", "d_theta1"),
    Check("codazzi.d_alpha1", "scale_q", "codazzi", "d_alpha1"),
    Check("codazzi.d_alpha2", "scale_q", "codazzi", "d_alpha2"),
    Check("theta12.via_psi", "scale_q", "theta12", "theta12_via_psi"),
    Check("theta12.hodge", "scale_q", "theta12", "theta12_hodge"),
    Check("theta12.dpsi", "scale_q", "theta12", "dpsi_theta"),
    Check("theta12.d_star_omega12", "scale_q", "theta12", "d_star_omega12"),
    Check("theta12.d_star_theta12", "scale_q", "theta12", "d_star_theta12"),
    Check("theta12.xi12", "scale_q", "theta12", "xi12_relation"),
    Check("transform.rotation", "scale_q", lambda L: surface_embed.rotation_transform_residual(
        L.cf, ScalarField.from_function(L.grid, lambda s, t: 0.3 + 0.2 * np.sin(s) * np.cos(t)))),
    Check("transform.scaling", "scale_q", lambda L: surface_embed.scaling_transform_residual(
        L.cf, ScalarField.from_function(L.grid, lambda s, t: np.exp(0.1 * np.sin(s + t))))),
    Check("frame.two_path", 1.0, lambda L: surface_embed.two_path_residual(
        L.profile, L.psi, L.grid, frame=L.frame, coframes=L.cf)),
    Check("frame.metric_recovery", "scale_e",
          lambda L: surface_embed.metric_recovery_residual(L.frame, L.profile)),
    Check("frame.second_form", "scale_ii",
          lambda L: surface_embed.second_form_vs_frame(L.forms, L.frame)),
    Check("weingarten.wedge", 1.0, "weingarten", "wedge_residual"),
)


def _select(cfg: RunConfig, prefixes: tuple, only: str | None = None) -> list:
    """Rows whose name starts with one of `prefixes` and contains `only`."""
    rows = [
        row for row in CHECKS
        if row.name.startswith(prefixes) and (only is None or only in row.name)
        and not (cfg.psi_branch is None
                 and row.name in ("lax.closed_form", "psi.branch_consistency"))
    ]
    if not rows:
        raise ConfigError(f"--only '{only}' matched no checks")
    return rows


def _rk4_crosscheck(fam: QFamily):
    """Max relative error at step 1e-3 L and the step-halving error ratio.

    L is the family's natural length.  The window starts a fifth of the
    way into the sampled sign +1 domain (guarded_samples), counted from
    the pole at s = 0, and is at most L long.  Window and steps are
    measured in L, so every frequency marches the same steps over the
    same values of s/L.  For sign -1 the window is the mirror image
    s -> -s of the +1 window, so both signs march away from the pole
    over the same values of Q and give the same error and ratio.
    """
    length = fam.length
    lo, hi = guarded_samples(QFamily(fam.kind, 1, fam.a), 2)
    width = hi - lo
    s0 = lo + 0.2 * width
    s1 = s0 + min(length, 0.6 * width)
    if fam.sign == -1:
        s0, s1 = -s0, -s1
    q0, q0p, _ = eval_q_derivatives(fam, s0)
    errs = []
    for step in (1e-3 * length, 5e-4 * length):
        traj = integrate_q_ode(float(q0), float(q0p), s0, s1, step)
        if traj.truncated:
            raise ConsistencyError(f"RK4 cross-check blew up for {fam.describe()}")
        exact = eval_q(fam, traj.s)
        errs.append(float(np.max(np.abs(traj.q - exact)) / np.max(np.abs(exact))))
    ratio = errs[0] / max(errs[1], 1e-300)
    return errs[0], ratio


def _fmt_order(order) -> str:
    if order is None:
        return ""
    if order == "converged":
        return " order=converged"
    return f" order={order:.2f}"


def _judge(cfg: RunConfig, row: Check, values: list, scale, details: dict, hs: list) -> dict:
    """The report entry of one row from its values on the levels run."""
    value = values[0]
    h2 = cfg.fd_factor * cfg.grid.h_max**2
    order = None
    if row.rule == "algebraic":
        tol = cfg.tol_algebraic * scale
        passed = value <= tol
    elif row.rule == "bound":
        tol = scale
        passed = value <= tol
    elif row.rule == "ratio":
        tol = None
        passed = RK4_RATIO_LOW <= value <= RK4_RATIO_HIGH
        details = {"low": RK4_RATIO_LOW, "high": RK4_RATIO_HIGH}
    elif row.rule == "lower_bound":
        tol = 10.0 * (h2 * scale)
        passed = value > tol
    else:  # fd, ladder
        tol = h2 * scale
        passed = value <= tol
        if row.rule == "ladder":
            details = {"residuals": values}
        if len(values) >= 2:  # only ladder rows run on more than one level
            order = observed_order(hs, values, floor=1e-13 * scale)
            if order == math.inf:
                order = "converged"
            elif order is None or order < ORDER_TARGET:
                passed = False
    entry = {
        "name": row.name,
        "kind": "fd" if row.rule == "ladder" else row.rule,
        "value": float(value),
        "tolerance": None if tol is None else float(tol),
        "passed": bool(passed),
    }
    if order is not None:
        entry["order"] = order
    if details:
        entry["details"] = details
    return entry


def _ladder(cfg: RunConfig, rows: list, levels: int, export):
    """Evaluate `rows` over `levels` grids, cfg.grid refined 2**k, one level at a time.

    Each level is built, its rows are evaluated and only their floats are
    kept before it is dropped, so no grid-sized array outlives its level.
    Rows other than "ladder" ones run on the base level only, and one level
    is built when no ladder row is selected.  export(level) runs first, on
    the base level.  Returns the report entries in row order and what
    export returned.
    """
    values = {row.name: [] for row in rows}
    scales, details, hs = {}, {}, []
    on_ladder = [row for row in rows if row.rule == "ladder"]
    for k in range(levels if on_ladder else 1):
        level = PipelineData(cfg, cfg.grid.refined(2**k))
        if k == 0:
            exported = export(level)
        for row in rows if k == 0 else on_ladder:
            value, scales[row.name], extra = level.evaluate(row)
            values[row.name].append(value)
            details.setdefault(row.name, extra)
        hs.append(level.grid.h_max)
        del level
    checks = [
        _judge(cfg, row, values[row.name], scales[row.name], details[row.name], hs)
        for row in rows
    ]
    return checks, exported


# ---------------------------------------------------------------------------
# commands


def _run(args, cfg: RunConfig, command: str, rows: list, levels: int, export) -> int:
    """One command: `rows` over `levels` ladder levels.

    export(level, out) writes the command's files (CSV, OBJ) from the base
    level and returns the report's header fields.  Writes and prints
    <command>_report.json; returns the exit code.
    """
    out = args.out if args.out else cfg.out_dir
    os.makedirs(out, exist_ok=True)
    checks, fields = _ladder(cfg, rows, levels, lambda level: export(level, out))
    report = {"command": command, **fields, "checks": checks,
              "pass": all(c["passed"] for c in checks)}
    path = os.path.join(out, f"{command}_report.json")
    text = json.dumps(report, indent=2, sort_keys=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")
    if args.json:
        print(text)
    else:
        for chk in checks:
            status = "PASS" if chk["passed"] else "FAIL"
            tol = chk["tolerance"]
            tol_s = "" if tol is None else f" tol={tol:.3e}"
            print(
                f"{status} {chk['name']}: {chk['value']:.6e}{tol_s}"
                f"{_fmt_order(chk.get('order'))}"
            )
        print(f"report: {path}")
        print("pass" if report["pass"] else "FAIL")
    return 0 if report["pass"] else 1


def _grid_info(g: Grid) -> dict:
    return {"ns": g.ns, "nt": g.nt, "h_max": g.h_max}


def cmd_families(args) -> int:
    rows = []
    for kind in KINDS:
        for sign in (1, -1):
            fam = QFamily(kind, sign, 1.0)
            lo, hi = fam.domain()
            rows.append({
                "kind": kind,
                "sign": sign,
                "q": fam.describe().split(" on ")[0],
                "domain": f"({lo + 0.0:g}, {hi + 0.0:g})",
                "kappa": {"rational": "0", "trig": "-a^2", "hyper": "+a^2"}[kind],
                "kappa_at_a1": first_integral_kappa(fam),
            })
    if args.json:
        print(json.dumps({"families": rows}, indent=2, sort_keys=True))
    else:
        print(f"{'kind':<10}{'sign':<6}{'Q(s), a=1':<22}{'domain':<22}kappa")
        for r in rows:
            print(
                f"{r['kind']:<10}{r['sign']:<+6}{r['q']:<22}{r['domain']:<22}"
                f"{r['kappa']} ({r['kappa_at_a1']:g})"
            )
    return 0


def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    levels = 1 if args.refine is None else args.refine
    if levels < 1:
        raise ConfigError("--refine must be >= 1")

    def export(level, out):
        bonnet_solver.write_profile_csv(level.profile, os.path.join(out, "profile.csv"))
        write_scalar_csv(level.psi.psi, os.path.join(out, "psi.csv"), "psi")
        return {"grid": _grid_info(cfg.grid), "family": cfg.family.describe()}

    rows = _select(cfg, ("q.", "lax.", "psi.", "profile."))
    return _run(args, cfg, "solve", rows, levels, export)


def _forms_csv(path, ff: surface_embed.FundamentalForms) -> None:
    s, t = ff.grid.mesh()
    with open(path, "w", newline="") as fh:
        fh.write("s,t,E,L,M,N\n")
        _write_rows(fh, np.column_stack(
            [a.ravel() for a in (s, t, ff.E.values, ff.L.values, ff.M.values, ff.N.values)]))


def cmd_mesh(args) -> int:
    cfg = load_config(args.config)
    g = cfg.grid

    def export(level, out):
        surface_embed.export_obj(level.frame, os.path.join(out, "surface.obj"))
        _forms_csv(os.path.join(out, "forms.csv"), level.forms)
        return {
            "grid": _grid_info(g),
            "vertices": g.ns * g.nt,
            "triangles": 2 * (g.ns - 1) * (g.nt - 1),
            "structure_residuals": level.battery("structure"),
        }

    rows = _select(cfg, ("structure.", "frame.orthonormality", "frame.metric_recovery",
                         "frame.second_form"))
    return _run(args, cfg, "mesh", rows, 1, export)


def cmd_deform(args) -> int:
    cfg = load_config(args.config)
    if args.t0 is not None:
        cfg.t0 = _number(args.t0, "--t0")
    if cfg.t0 is None:
        raise ConfigError("deform needs --t0 (or t0 in the config)")

    def export(level, out):
        frame, rep = level.deformed
        surface_embed.export_obj(frame, os.path.join(out, "deformed.obj"))
        return {
            "t0": rep["t0"],
            "metric_deviation": rep["metric_deviation"],
            "H_deviation": rep["h_deviation"],
            "II_deviation": rep["ii_deviation"],
            "pole_count": rep["pole_count"],
            "sign_flips": rep["sign_flips"],
        }

    return _run(args, cfg, "deform", _select(cfg, ("deform.",)), 1, export)


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    levels = cfg.refine_levels if args.refine is None else args.refine
    if levels < 2:
        raise ConfigError("verify needs at least 2 refinement levels")

    def export(level, out):
        grids = [cfg.grid.refined(2**k) for k in range(levels)]
        return {"family": cfg.family.describe(), "levels": [_grid_info(g) for g in grids]}

    return _run(args, cfg, "verify", _select(cfg, ("",), args.only), levels, export)


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bonnet",
        description="Construct and verify Bonnet surfaces from closed-form data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("families", help="list the six closed-form Q branches")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_families)

    def common(p):
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--json", action="store_true", help="print the report as JSON")

    p = sub.add_parser("solve", help="run the Q/psi/H pipeline and report residuals")
    common(p)
    p.add_argument("--refine", type=int, default=None,
                   help="refinement levels for observed convergence orders")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("mesh", help="integrate the frame and export the OBJ mesh")
    common(p)
    p.set_defaults(func=cmd_mesh)

    p = sub.add_parser("deform", help="build one isometric companion surface")
    common(p)
    p.add_argument("--t0", type=float, default=None, help="deformation parameter")
    p.set_defaults(func=cmd_deform)

    p = sub.add_parser("verify", help="run every named residual check")
    common(p)
    p.add_argument("--refine", type=int, default=None,
                   help="refinement levels (default from config, min 2)")
    p.add_argument("--only", default=None, help="run only checks whose name contains this")
    p.set_defaults(func=cmd_verify)
    return parser


_MODULE_ERRORS = (
    DomainError,
    ConsistencyError,
    RegimeError,
    BlowUpError,
    LaxBlowUpError,
    CoframeSingularError,
    FrameStepError,
)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"bonnet: config error: {exc}", file=sys.stderr)
        return 2
    except _MODULE_ERRORS as exc:
        print(f"bonnet: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"bonnet: i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
