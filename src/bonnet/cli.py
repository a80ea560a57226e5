"""Command-line front end: config parsing and pipeline orchestration.

Commands
    families  list the six closed-form Q branches
    solve     Q + psi + H pipeline, profile/psi CSV and residual report
    mesh      moving-frame integration, OBJ mesh and structure report
    deform    one companion surface of the isometric family, plus report
    verify    every named residual check with observed convergence orders

Configs are single JSON files (see configs/demo_rational.json).  All
outputs are deterministic: fixed check order, sorted JSON keys, 17
significant digits, no timestamps.  Exit codes: 0 success, 1 residual
failure, 2 config or domain error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import bonnet_solver, lax_psi, q_family, surface_embed
from .bonnet_solver import BlowUpError, HInitialData, RegimeError
from .forms2d import (
    CoframeSingularError,
    Grid,
    ScalarField,
    d_scalar,
    mixed_partial_residual,
    observed_order,
    wedge,
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
    except (TypeError, ValueError):
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
# pipeline pieces shared by the commands


class PipelineData:
    """Everything the checks need on one grid, built lazily."""

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
        self._frame = None
        q = self.profile.Q
        self.scale_q = max(1.0, float(np.max(np.abs(q))))
        self.scale_q2 = max(1.0, float(np.max(2.0 * q * q)))
        self.scale_e = max(1.0, float(np.max(self.profile.E)))
        self.scale_h = max(1.0, float(np.max(np.abs(self.profile.H))))
        self.scale_ii = max(
            1.0,
            float(np.max(self.profile.E * (np.abs(self.profile.H) + self.profile.J))),
        )

    @property
    def frame(self) -> surface_embed.FrameField:
        if self._frame is None:
            self._frame = surface_embed.integrate_frame(
                self.profile, self.psi, self.grid, coframes=self.cf
            )
        return self._frame

    def smooth_test_field(self) -> ScalarField:
        return ScalarField.from_function(
            self.grid, lambda s, t: np.sin(s + 2.0 * t)
        )

    def rotation_angle_field(self) -> ScalarField:
        return ScalarField.from_function(
            self.grid, lambda s, t: 0.3 + 0.2 * np.sin(s) * np.cos(t)
        )

    def scaling_field(self) -> ScalarField:
        return ScalarField.from_function(
            self.grid, lambda s, t: np.exp(0.1 * np.sin(s + t))
        )


def _check(name, kind, value, tolerance, passed, order=None, details=None) -> dict:
    out = {
        "name": name,
        "kind": kind,
        "value": float(value),
        "tolerance": None if tolerance is None else float(tolerance),
        "passed": bool(passed),
    }
    if order is not None:
        out["order"] = order
    if details:
        out["details"] = details
    return out


def _order_ok(order) -> bool:
    if order == "converged":
        return True
    return isinstance(order, float) and order >= ORDER_TARGET


def _fmt_order(order) -> str:
    if order is None:
        return ""
    if order == "converged":
        return " order=converged"
    return f" order={order:.2f}"


# ---------------------------------------------------------------------------
# the named FD checks (each returns max residual and its field scale)


def _fd_check_specs():
    """(name, fn(PipelineData) -> (value, scale)) in fixed report order."""

    def lax_compat(L):
        r1, r2 = lax_psi.lax_residuals(L.psi, L.fam)
        return max(r1.max_abs_interior(1), r2.max_abs_interior(1)), L.scale_q

    def c_relation(L):
        r1, r2 = lax_psi.c_relation_residuals(L.psi, L.fam)
        return max(r1.max_abs_interior(2), r2.max_abs_interior(2)), L.scale_q

    def ideal(key):
        def run(L):
            return bonnet_solver.ideal_residuals(L.profile)[key], L.scale_q2
        return run

    def structure(key):
        def run(L):
            value = surface_embed.structure_residuals(L.cf, L.profile)[key]
            return value, max(L.scale_e, L.scale_ii)
        return run

    def codazzi(key):
        def run(L):
            value = surface_embed.codazzi_summary_residuals(L.cf, L.profile)[key]
            return value, L.scale_q
        return run

    def theta12(key):
        def run(L):
            value = surface_embed.theta12_report(L.cf, L.psi, L.profile)[key]
            return value, L.scale_q
        return run

    return [
        ("lax.compat", lax_compat),
        ("psi.harmonic", lambda L: (lax_psi.harmonic_residual(L.psi, 1), L.scale_q2)),
        ("psi.constraint", lambda L: (
            lax_psi.psi_constraint_residual(L.psi, L.fam).max_abs_interior(2), L.scale_q)),
        ("psi.c_relation", c_relation),
        ("psi.second_order", lambda L: (
            lax_psi.psi_second_order_residual(L.psi, L.fam).max_abs_interior(2), L.scale_q)),
        ("psi.mixed_partial", lambda L: (
            mixed_partial_residual(
                L.smooth_test_field(), L.cf.alpha1, L.cf.alpha2
            ).max_abs_interior(2), 1.0)),
        ("profile.gauss", lambda L: (
            bonnet_solver.gauss_s_residual(L.profile), L.scale_q2)),
        ("profile.ideal_dlog_a", ideal("dlog_a")),
        ("profile.ideal_db", ideal("db")),
        ("profile.ideal_dc", ideal("dc")),
        ("profile.ideal_dh", ideal("dh")),
        ("profile.ideal_dlog_j", ideal("dlog_j")),
        ("profile.geodesic", lambda L: (
            bonnet_solver.geodesic_curvature_residual(L.profile), L.scale_q2)),
        ("structure.d_omega1", structure("d_omega1")),
        ("structure.d_omega2", structure("d_omega2")),
        ("structure.d_omega13", structure("d_omega13")),
        ("structure.d_omega23", structure("d_omega23")),
        ("structure.d_omega12", structure("d_omega12")),
        ("codazzi.dh", codazzi("codazzi_dh")),
        ("codazzi.dlog_j", codazzi("codazzi_dlog_j")),
        ("codazzi.d_theta1", codazzi("d_theta1")),
        ("codazzi.d_alpha1", codazzi("d_alpha1")),
        ("codazzi.d_alpha2", codazzi("d_alpha2")),
        ("theta12.via_psi", theta12("theta12_via_psi")),
        ("theta12.hodge", theta12("theta12_hodge")),
        ("theta12.dpsi", theta12("dpsi_theta")),
        ("theta12.d_star_omega12", theta12("d_star_omega12")),
        ("theta12.d_star_theta12", theta12("d_star_theta12")),
        ("theta12.xi12", theta12("xi12_relation")),
        ("transform.rotation", lambda L: (
            surface_embed.rotation_transform_residual(L.cf, L.rotation_angle_field()),
            L.scale_q)),
        ("transform.scaling", lambda L: (
            surface_embed.scaling_transform_residual(L.cf, L.scaling_field()),
            L.scale_q)),
        ("frame.two_path", lambda L: (
            surface_embed.two_path_residual(L.profile, L.psi, L.grid), 1.0)),
        ("frame.metric_recovery", lambda L: (
            surface_embed.metric_recovery_residual(L.frame, L.profile), L.scale_e)),
        ("frame.second_form", lambda L: (
            surface_embed.second_form_vs_frame(
                surface_embed.fundamental_forms(L.profile, L.psi), L.frame
            ), L.scale_ii)),
        ("weingarten.wedge", lambda L: (
            surface_embed.weingarten_residual(
                L.profile, L.psi, L.grid, frame=L.frame
            ).wedge_residual, 1.0)),
    ]


def _rk4_crosscheck(fam: QFamily):
    """Max relative error at step 1e-3 and the step-halving error ratio.

    The window starts a fifth of the way into the guarded sign +1 domain,
    counted from the pole at s = 0.  For sign -1 it is the mirror image
    s -> -s of that window, so both signs march away from the pole over
    the same values of Q and give the same error and ratio.
    """
    lo, hi = SingularityGuard(QFamily(fam.kind, 1, fam.a)).interval()
    if not math.isfinite(hi):
        hi = lo + 5.0 / fam.a
    width = hi - lo
    s0 = lo + 0.2 * width
    s1 = s0 + min(1.0, 0.6 * width)
    if fam.sign == -1:
        s0, s1 = -s0, -s1
    q0, q0p, _ = eval_q_derivatives(fam, s0)
    errs = []
    for step in (1e-3, 5e-4):
        traj = integrate_q_ode(float(q0), float(q0p), s0, s1, step)
        if traj.truncated:
            raise ConsistencyError(f"RK4 cross-check blew up for {fam.describe()}")
        exact = eval_q(fam, traj.s)
        errs.append(float(np.max(np.abs(traj.q - exact)) / np.max(np.abs(exact))))
    ratio = errs[0] / max(errs[1], 1e-300)
    return errs[0], ratio


def _base_checks(
    cfg: RunConfig,
    base: PipelineData,
    only: str | None = None,
    include_embed: bool = True,
) -> list:
    """Checks evaluated on the base grid only (no convergence order).

    `only` filters by substring before anything expensive runs, so
    `--only gauss` does not integrate frames it will never report on.
    """
    checks = []

    def want(*names) -> bool:
        return only is None or any(only in n for n in names)

    fam = cfg.family
    if want("q.exactness", "q.first_integral"):
        s = guarded_samples(fam, 200)
        q4 = float(np.max(eval_q(fam, s) ** 4))
        tol = cfg.tol_algebraic * q4
        if want("q.exactness"):
            exact = float(np.max(np.abs(q_ode_residual(fam, s))))
            checks.append(_check("q.exactness", "algebraic", exact, tol, exact <= tol))
        if want("q.first_integral"):
            q, qp, _ = eval_q_derivatives(fam, s)
            fi = float(np.max(np.abs(qp * qp - q**4 - fam.kappa * q * q)))
            checks.append(_check(
                "q.first_integral", "algebraic", fi, tol, fi <= tol,
                details={"kappa": first_integral_kappa(fam)},
            ))

    if want("q.rk4_error", "q.rk4_halving"):
        err, ratio = _rk4_crosscheck(fam)
        if want("q.rk4_error"):
            checks.append(_check("q.rk4_error", "bound", err, RK4_TOL, err <= RK4_TOL))
        if want("q.rk4_halving"):
            checks.append(_check(
                "q.rk4_halving", "ratio", ratio, None,
                RK4_RATIO_LOW <= ratio <= RK4_RATIO_HIGH,
                details={"low": RK4_RATIO_LOW, "high": RK4_RATIO_HIGH},
            ))

    if cfg.psi_branch is not None:
        if want("lax.closed_form"):
            r1, r2 = lax_psi.branch_lax_residuals(cfg.psi_branch, base.grid)
            worst = max(r1.max_abs(), r2.max_abs())
            tol = cfg.tol_algebraic * base.scale_q
            checks.append(_check("lax.closed_form", "algebraic", worst, tol, worst <= tol))
        if want("psi.branch_consistency"):
            dev = lax_psi.branch_consistency_error(base.psi)
            tol = cfg.tol_algebraic
            checks.append(_check("psi.branch_consistency", "algebraic", dev, tol, dev <= tol))

    if not include_embed:
        return checks

    if want("frame.orthonormality"):
        drift = base.frame.orthonormality_error()
        checks.append(_check(
            "frame.orthonormality", "bound", drift, ORTHONORMALITY_TOL,
            drift <= ORTHONORMALITY_TOL,
        ))
    if want("frame.handedness"):
        hand = 1.0 - base.frame.min_handedness()
        checks.append(_check(
            "frame.handedness", "bound", hand, ORTHONORMALITY_TOL,
            hand <= ORTHONORMALITY_TOL,
        ))

    if want("weingarten.k_t_variation"):
        wg = surface_embed.weingarten_residual(
            base.profile, base.psi, base.grid, frame=base.frame
        )
        checks.append(_check(
            "weingarten.k_t_variation", "bound", wg.k_t_variation,
            K_T_VARIATION_TOL, wg.k_t_variation <= K_T_VARIATION_TOL,
        ))

    if want("deform.metric", "deform.h", "deform.ii_distinct"):
        t0 = 1.0 if cfg.t0 is None else cfg.t0
        rep = surface_embed.deformation_report(base.profile, base.psi, base.grid, t0)
        h2 = cfg.fd_factor * base.grid.h_max**2
        tol_metric = h2 * rep["metric_scale"]
        tol_h = h2 * rep["h_scale"]
        tol_ii = h2 * base.scale_ii
        ii = max(rep["l_deviation"], rep["m_deviation"], rep["n_deviation"])
        if want("deform.metric"):
            checks.append(_check(
                "deform.metric", "fd", rep["metric_deviation"], tol_metric,
                rep["metric_deviation"] <= tol_metric, details={"t0": t0},
            ))
        if want("deform.h"):
            checks.append(_check(
                "deform.h", "fd", rep["h_deviation"], tol_h,
                rep["h_deviation"] <= tol_h, details={"t0": t0},
            ))
        if want("deform.ii_distinct"):
            checks.append(_check(
                "deform.ii_distinct", "lower_bound", ii, 10.0 * tol_ii,
                ii > 10.0 * tol_ii,
                details={"t0": t0, "pole_count": rep["pole_count"]},
            ))
    return checks


def _verify_checks(cfg: RunConfig, levels: int, only: str | None) -> list:
    """All named checks; FD checks carry observed orders over the levels."""
    grids = [cfg.grid.refined(2**k) for k in range(levels)]
    datas = [PipelineData(cfg, g) for g in grids]
    base = datas[0]
    hs = [g.h_max for g in grids]

    checks = _base_checks(cfg, base, only=only)

    h2 = cfg.fd_factor * base.grid.h_max**2
    for name, fn in _fd_check_specs():
        if only is not None and only not in name:
            continue
        values, scale = [], 1.0
        for data in datas:
            value, scale = fn(data)
            values.append(value)
        tol = h2 * scale
        floor = 1e-13 * scale
        order = observed_order(hs, values, floor=floor)
        if order == math.inf:
            order = "converged"
        passed = values[0] <= tol and _order_ok(order)
        checks.append(_check(
            name, "fd", values[0], tol, passed, order=order,
            details={"residuals": values},
        ))
    return checks


# ---------------------------------------------------------------------------
# commands


def _emit_report(report: dict, path, as_json: bool) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")
    if as_json:
        print(text)
    else:
        for chk in report.get("checks", []):
            status = "PASS" if chk["passed"] else "FAIL"
            tol = chk.get("tolerance")
            tol_s = "" if tol is None else f" tol={tol:.3e}"
            print(
                f"{status} {chk['name']}: {chk['value']:.6e}{tol_s}"
                f"{_fmt_order(chk.get('order'))}"
            )
        print(f"report: {path}")
        print("pass" if report["pass"] else "FAIL")


def _out_dir(cfg: RunConfig, args) -> str:
    out = args.out if getattr(args, "out", None) else cfg.out_dir
    os.makedirs(out, exist_ok=True)
    return out


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
    out = _out_dir(cfg, args)
    base = PipelineData(cfg, cfg.grid)

    bonnet_solver.write_profile_csv(base.profile, os.path.join(out, "profile.csv"))
    write_scalar_csv(base.psi.psi, os.path.join(out, "psi.csv"), "psi")

    solve_names = ("q.", "lax.", "psi.", "profile.")
    checks = _base_checks(cfg, base, include_embed=False)
    h2 = cfg.fd_factor * base.grid.h_max**2
    fd_specs = [
        (name, fn) for name, fn in _fd_check_specs()
        if name.startswith(solve_names)
    ]
    levels = args.refine if args.refine else 1
    if levels < 1:
        raise ConfigError("--refine must be >= 1")
    datas = [base] + [
        PipelineData(cfg, cfg.grid.refined(2**k)) for k in range(1, levels)
    ]
    hs = [d.grid.h_max for d in datas]
    for name, fn in fd_specs:
        values, scale = [], 1.0
        for data in datas:
            value, scale = fn(data)
            values.append(value)
        tol = h2 * scale
        order = None
        if levels >= 2:
            order = observed_order(hs, values, floor=1e-13 * scale)
            if order == math.inf:
                order = "converged"
        passed = values[0] <= tol and (levels < 2 or _order_ok(order))
        checks.append(_check(name, "fd", values[0], tol, passed, order=order))

    report = {
        "command": "solve",
        "grid": {"ns": cfg.grid.ns, "nt": cfg.grid.nt, "h_max": cfg.grid.h_max},
        "family": cfg.family.describe(),
        "checks": checks,
        "pass": all(c["passed"] for c in checks),
    }
    _emit_report(report, os.path.join(out, "solve_report.json"), args.json)
    return 0 if report["pass"] else 1


def _forms_csv(path, ff: surface_embed.FundamentalForms) -> None:
    g = ff.grid
    s, t = g.s_nodes(), g.t_nodes()
    with open(path, "w", newline="") as fh:
        fh.write("s,t,E,L,M,N\n")
        for i in range(g.ns):
            for j in range(g.nt):
                fh.write(
                    f"{s[i]:.17g},{t[j]:.17g},{ff.E.values[i, j]:.17g},"
                    f"{ff.L.values[i, j]:.17g},{ff.M.values[i, j]:.17g},"
                    f"{ff.N.values[i, j]:.17g}\n"
                )


def cmd_mesh(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(cfg, args)
    base = PipelineData(cfg, cfg.grid)
    frame = base.frame
    forms = surface_embed.fundamental_forms(base.profile, base.psi)

    surface_embed.export_obj(frame, os.path.join(out, "surface.obj"))
    _forms_csv(os.path.join(out, "forms.csv"), forms)

    structure = surface_embed.structure_residuals(base.cf, base.profile)
    h2 = cfg.fd_factor * base.grid.h_max**2
    checks = []
    scale = max(base.scale_e, base.scale_ii)
    for key, value in structure.items():
        tol = h2 * scale
        checks.append(_check(f"structure.{key}", "fd", value, tol, value <= tol))
    drift = frame.orthonormality_error()
    checks.append(_check(
        "frame.orthonormality", "bound", drift, ORTHONORMALITY_TOL,
        drift <= ORTHONORMALITY_TOL,
    ))
    metric = surface_embed.metric_recovery_residual(frame, base.profile)
    tol = h2 * base.scale_e
    checks.append(_check("frame.metric_recovery", "fd", metric, tol, metric <= tol))
    second = surface_embed.second_form_vs_frame(forms, frame)
    tol = h2 * base.scale_ii
    checks.append(_check("frame.second_form", "fd", second, tol, second <= tol))

    report = {
        "command": "mesh",
        "grid": {"ns": cfg.grid.ns, "nt": cfg.grid.nt, "h_max": cfg.grid.h_max},
        "vertices": cfg.grid.ns * cfg.grid.nt,
        "triangles": 2 * (cfg.grid.ns - 1) * (cfg.grid.nt - 1),
        "structure_residuals": structure,
        "checks": checks,
        "pass": all(c["passed"] for c in checks),
    }
    _emit_report(report, os.path.join(out, "mesh_report.json"), args.json)
    return 0 if report["pass"] else 1


def cmd_deform(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(cfg, args)
    t0 = args.t0 if args.t0 is not None else cfg.t0
    if t0 is None:
        raise ConfigError("deform needs --t0 (or t0 in the config)")
    base = PipelineData(cfg, cfg.grid)

    dp = surface_embed.integrate_deformation(base.cf, t0)
    frame, _ = surface_embed.build_deformed_surface(
        base.profile, base.psi, dp, base.grid, coframes=base.cf
    )
    surface_embed.export_obj(frame, os.path.join(out, "deformed.obj"))
    rep = surface_embed.deformation_report(base.profile, base.psi, base.grid, t0)

    h2 = cfg.fd_factor * base.grid.h_max**2
    tol_metric = h2 * rep["metric_scale"]
    tol_h = h2 * rep["h_scale"]
    tol_ii = h2 * base.scale_ii
    ii = max(rep["l_deviation"], rep["m_deviation"], rep["n_deviation"])
    checks = [
        _check("deform.metric", "fd", rep["metric_deviation"], tol_metric,
               rep["metric_deviation"] <= tol_metric),
        _check("deform.h", "fd", rep["h_deviation"], tol_h,
               rep["h_deviation"] <= tol_h),
        _check("deform.ii_distinct", "lower_bound", ii, 10.0 * tol_ii,
               ii > 10.0 * tol_ii),
    ]
    report = {
        "command": "deform",
        "t0": t0,
        "metric_deviation": rep["metric_deviation"],
        "H_deviation": rep["h_deviation"],
        "II_deviation": ii,
        "pole_count": rep["pole_count"],
        "sign_flips": rep["sign_flips"],
        "checks": checks,
        "pass": all(c["passed"] for c in checks),
    }
    _emit_report(report, os.path.join(out, "deform_report.json"), args.json)
    return 0 if report["pass"] else 1


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(cfg, args)
    levels = args.refine if args.refine else cfg.refine_levels
    if levels < 2:
        raise ConfigError("verify needs at least 2 refinement levels")
    only = args.only
    checks = _verify_checks(cfg, levels, only)
    if not checks:
        raise ConfigError(f"--only '{only}' matched no checks")
    grids = [cfg.grid.refined(2**k) for k in range(levels)]
    report = {
        "command": "verify",
        "family": cfg.family.describe(),
        "levels": [{"ns": g.ns, "nt": g.nt, "h_max": g.h_max} for g in grids],
        "checks": checks,
        "pass": all(c["passed"] for c in checks),
    }
    _emit_report(report, os.path.join(out, "verify_report.json"), args.json)
    return 0 if report["pass"] else 1


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
