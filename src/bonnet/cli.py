"""Command-line front end: config parsing and pipeline orchestration.

Commands
    families  list the six closed-form Q branches
    solve     Q + psi + H pipeline, profile/psi CSV and residual report
    mesh      moving-frame integration, OBJ mesh and structure report
    deform    one companion surface of the isometric family, plus report
    verify    every named residual check with observed convergence orders

solve, mesh, deform and verify share one table of checks (CHECKS) and one
refinement ladder (_ladder): they differ only in the rows they select and
the number of levels they run.  A level builds each value, psi and the
profile among them, on first read (_value), and a value and a row that
computes in a function read the level names their parameters name; a level
drops each value once no row still to run reads it (_level).  mesh
and deform write their CSV and OBJ files from child processes (_Writers)
while they go on with the checks; verify and solve --refine 2 or more
evaluate the finest ladder level partly in a child, which takes the rows
whose reads reach the frame march (_ladder).  Where no child can be forked
(_Forked), the same work runs in the command's own process.  Configs are
single JSON files (see configs/demo_rational.json).  All outputs are
deterministic: fixed check order, sorted JSON keys, 17 significant digits,
no timestamps.  Exit codes: 0 every check passed, 1 a check failed, 2 bad
config or data (ConfigError, forms2d.DataError), floating-point fault or
i/o error, 3 out of memory (a MemoryError, or a forked child that died, as
the out-of-memory killer's SIGKILL leaves it), 4 any other error, a bug,
printed with its traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import re
import reprlib
import signal
import sys
import traceback
from itertools import chain
from typing import NamedTuple

import numpy as np

from . import bonnet_solver, lax_psi, surface_embed
from .bonnet_solver import HInitialData
from .forms2d import (
    DataError,
    Grid,
    ScalarField,
    _write_rows,
    d_scalar,
    decompose_in_coframe,
    laplacian,
    mixed_partial_residual,
    observed_order,
    write_scalar_csv,
)
from .lax_psi import PsiBranch
from .q_family import (
    KINDS,
    ConsistencyError,
    DomainError,
    QFamily,
    SingularityGuard,
    eval_q,
    eval_q_derivatives,
    guarded_samples,
    integrate_q_ode,
    q_ode_residual,
)

__all__ = ["main", "RunConfig", "ConfigError", "ChildDiedError", "cmd_verify"]

ORDER_TARGET = 1.9
# the rules of the rows that run on every ladder level
LADDER_RULES = ("ladder", "identity")
RK4_RATIO_LOW, RK4_RATIO_HIGH = 12.0, 20.0
RK4_TOL = 1e-9
ORTHONORMALITY_TOL = 1e-12
K_T_VARIATION_TOL = 1e-10
# nodes of the finest ladder grid.  Above its baseline, verify's process, which holds
# the finest psi, H, coframes and grid checks, peaks at about 0.24 kB per node, and its
# forked child, which marches the finest frame, at about 0.16 kB: so the cap keeps
# them near 1.0 GB and 0.7 GB
MAX_LADDER_NODES = 2**22
# RK4 steps along s of the finest level's H march, (ns - 1) * profile_substeps, and of
# its psi march, (ns - 1) * psi.substeps.  The H march holds about 73 bytes a step and
# the psi march about 52, so the cap keeps them near 0.6 GB and 0.4 GB.  The thinnest
# grid under MAX_LADDER_NODES, 838860 x 5, takes 6.7M steps at 8 substeps
MAX_MARCH_STEPS = 2**23


class ConfigError(ValueError):
    """Bad or missing configuration values (exit code 2)."""


def _to_float(value) -> float:
    if isinstance(value, bool):
        return math.nan
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        return math.nan


# the parsers below echo a bad value through reprlib.repr, which keeps the message
# one short line however long or deeply nested the value is
def _number(value, name: str) -> float:
    """A finite config number (numeric strings allowed), else ConfigError."""
    x = _to_float(value)
    if not math.isfinite(x):
        raise ConfigError(f"{name} must be a finite number, got {reprlib.repr(value)}")
    return x


def _count(value, name: str) -> int:
    """An integer config value: 64 and 64.0 pass, 64.7 and "three" do not."""
    x = _to_float(value)
    if not x.is_integer():
        raise ConfigError(f"{name} must be an integer, got {reprlib.repr(value)}")
    return int(x)


def _sign(value, name: str) -> int:
    """A JSON number, so true and "1" are refused; QFamily checks it is 1 or -1."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be 1 or -1, got {reprlib.repr(value)}")
    return _count(value, name)


def _flag(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {reprlib.repr(value)}")
    return value


def _text(value, name: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a string, got {reprlib.repr(value)}")
    return value


# ---------------------------------------------------------------------------
# configuration

# every key a config may hold, as (parser, default); a nested dict is a section of
# the JSON object.  A default of ... marks a required key, and a default of None an
# optional one that reads as absent when null.
CONFIG = {
    "family": {"kind": (_text, ...), "sign": (_sign, 1), "a": (_number, 1.0)},
    "psi": {"case": (_text, None), "sigma": (_number, 0.0), "eta": (_number, 0.0),
            "integrate": (_flag, False), "psi0": (_number, None), "substeps": (_count, 8)},
    "h_initial": {k: (_number, ...) for k in ("s0", "H0", "H0p", "H0pp", "tau_c")},
    "grid": {**{k: (_number, ...) for k in ("s_min", "s_max", "t_min", "t_max")},
             "ns": (_count, ...), "nt": (_count, ...)},
    "tolerances": {"algebraic": (_number, 1e-10), "fd_factor": (_number, 25.0)},
    "profile_substeps": (_count, 8),
    "t0": (_number, None),
    "out_dir": (_text, "out"),
    "refine_levels": (_count, 3),
}


def _check_finest_level(cfg: RunConfig, levels: int) -> None:
    """ConfigError unless the finest of `levels` (>= 1) ladder levels, cfg.grid
    refined 2**(levels - 1), has at most MAX_LADDER_NODES nodes and its H and
    psi marches take at most MAX_MARCH_STEPS RK4 steps each.

    Every grid (at least 5 nodes per axis) is over the node cap past ten levels,
    so the factor is clamped and a huge `levels` costs nothing to refuse.
    """
    grid = cfg.grid
    factor = 2 ** min(levels - 1, 16)
    cells = (grid.ns - 1) * factor
    if (cells + 1) * ((grid.nt - 1) * factor + 1) > MAX_LADDER_NODES:
        raise ConfigError(
            f"the {grid.ns} x {grid.nt} grid over {levels} ladder levels has more "
            f"than {MAX_LADDER_NODES} (2**22) nodes on the finest level")
    for key, substeps in (("profile_substeps", cfg.profile_substeps),
                          ("psi.substeps", cfg.psi_substeps)):
        if cells * substeps > MAX_MARCH_STEPS:
            raise ConfigError(
                f"{key} = {substeps} over the {cells} s-cells of the finest level takes "
                f"more than {MAX_MARCH_STEPS} (2**23) RK4 steps")


def _walk(data, spec: dict, prefix: str = "") -> dict:
    """`data` parsed against `spec` (CONFIG or a section of it), defaults filled in.

    Unknown keys, missing required keys and bad values raise ConfigError.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"config {prefix[:-1] or 'root'} must be a JSON object")
    for name in data:
        if name not in spec:
            import difflib  # only on this path: importing it adds to every run's setup
            known = [*CONFIG, *(f"{s}.{k}" for s, v in CONFIG.items() if isinstance(v, dict)
                                for k in v)]
            near = difflib.get_close_matches(f"{prefix}{name}", known, n=1)
            hint = f"; did you mean '{near[0]}'?" if near else ""
            raise ConfigError(f"unknown config key {reprlib.repr(prefix + name)}{hint}")
    out = {}
    for name, entry in spec.items():
        path = f"{prefix}{name}"
        if isinstance(entry, dict):
            out[name] = _walk(data.get(name, {}), entry, f"{path}.")
        elif name in data and not (data[name] is None and entry[1] is None):
            out[name] = entry[0](data[name], path)
        elif entry[1] is ...:
            raise ConfigError(f"config is missing required key '{path}'")
        else:
            out[name] = entry[1]
    return out


class RunConfig:
    """Validated contents of one JSON config file."""

    def __init__(self, data: dict):
        cfg = _walk(data, CONFIG)
        psi, tol = cfg["psi"], cfg["tolerances"]
        integrate = psi["integrate"]
        # psi is a closed-form branch or a march from a corner value, never both: a key
        # of the other mode that the config sets, to anything but null, is refused
        mode, needed = ("with", "psi0") if integrate else ("without", "case")
        other = ("case", "sigma", "eta") if integrate else ("psi0", "substeps")
        given = data.get("psi", {})  # an object, as _walk has checked
        if psi[needed] is None or any(given.get(k) is not None for k in other):
            raise ConfigError(f"{mode} psi.integrate, psi needs {needed} and none of "
                              f"{', '.join(other)}")
        try:
            self.family = QFamily(**cfg["family"])
            self.grid = Grid(**cfg["grid"])
            self.h_initial = HInitialData(**cfg["h_initial"])
            self.psi_branch = None if integrate else PsiBranch(
                psi["case"], self.family, psi["sigma"], psi["eta"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        self.psi0, self.psi_substeps = psi["psi0"], psi["substeps"]
        self.profile_substeps, self.t0 = cfg["profile_substeps"], cfg["t0"]
        self.out_dir, self.refine_levels = cfg["out_dir"], cfg["refine_levels"]
        self.tol_algebraic, self.fd_factor = tol["algebraic"], tol["fd_factor"]
        if min(self.profile_substeps, self.psi_substeps) < 1:
            raise ConfigError("profile_substeps and psi.substeps must be >= 1")
        if self.tol_algebraic <= 0 or self.fd_factor <= 0:
            raise ConfigError("tolerances must be positive")
        # _judge's fd tolerance scale; h_max * h_max is inf where h_max**2 would overflow
        if not math.isfinite(self.fd_factor * (self.grid.h_max * self.grid.h_max)):
            raise ConfigError("tolerances.fd_factor * grid.h_max**2 must be finite")
        try:  # the grid must sit inside the guarded family domain
            SingularityGuard(self.family).check(np.array([self.grid.s_min, self.grid.s_max]))
        except DomainError as exc:
            raise ConfigError(f"grid violates the family domain: {exc}") from exc
        if abs(self.h_initial.s0 - self.grid.s_min) > 1e-12 * max(1.0, abs(self.grid.s_min)):
            raise ConfigError("h_initial.s0 must equal grid.s_min")


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    # RecursionError: JSON nested past the interpreter's recursion limit
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return RunConfig(data)


# ---------------------------------------------------------------------------
# one level of the refinement ladder


def _params(build) -> tuple:
    """The names of `build`'s parameters: the level names it reads."""
    code = build.__code__
    return code.co_varnames[:code.co_argcount]


def _reach(reads, built=frozenset()) -> set:
    """The level names `reads` reach: each name read, and, for a value not in
    `built`, the names it reads to be built, in turn."""
    seen, todo = set(), list(reads)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            if name not in built:
                todo.extend(getattr(getattr(PipelineData, name, None), "reads", ()))
    return seen


class _value:
    """A value of the level, built on first read by calling `build` with the
    level names its parameters name (`reads`), and then kept; once it is
    built, the level drops every value that no row still to run reaches
    (PipelineData.drop).  It is the one place a level builds anything."""

    def __init__(self, build):
        self.build, self.reads = build, _params(build)

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, level, owner=None):
        if level is None:
            return self
        value = self.build(*(getattr(level, name) for name in self.reads))
        level.__dict__[self.name] = value
        level.drop()
        return value


class PipelineData:
    """Everything the checks need on one grid.

    The level builds nothing up front: every name a row reads, past cfg and
    grid, is a _value, whose parameters name what it reads, built on first
    read: the family, psi and its closed-form branch, the profile, the
    coframe set, which builds each of its coframes when a row first reads
    it, the frame, its FD forms, the fundamental forms, the companion and
    its t0, every battery and every scale.  _level sets `pending`, the reads
    of the rows still to run, and the level then drops a value once none of
    them reaches it, so no value is built twice, and none that no row reads
    is built at all.  A level with no pending list keeps every value it builds.
    """

    def __init__(self, cfg: RunConfig, grid: Grid):
        self.cfg = cfg
        self.grid = grid
        self.pending = None

    def evaluate(self, row: Check):
        """(value, scale, details) of one check row on this level."""
        battery = row.battery
        result = getattr(self, battery) if isinstance(battery, str) else battery(
            *(getattr(self, name) for name in _params(battery)))
        value = result if row.key is None else result[row.key]
        scale = getattr(self, row.scale) if isinstance(row.scale, str) else row.scale
        return value, scale, {key: result[key] for key in row.details}

    def drop(self) -> None:
        """Delete every built value that no pending row reaches (_reach)."""
        if self.pending is not None:
            built = {name for name in vars(self) if isinstance(getattr(type(self), name, None),
                                                               _value)}
            for name in built - _reach(chain.from_iterable(self.pending), built):
                delattr(self, name)

    fam = _value(lambda cfg: cfg.family)
    branch = _value(lambda cfg: cfg.psi_branch)  # the closed-form psi, None where it is marched
    # psi in closed form on the branch, else marched from the corner value psi0
    psi = _value(lambda cfg, grid, fam, branch: lax_psi.integrate_lax(
        fam, grid, cfg.psi0, substeps=cfg.psi_substeps) if branch is None
        else lax_psi.psi_field_from_branch(branch, grid))
    profile = _value(lambda cfg, grid, fam: bonnet_solver.integrate_h(
        cfg.h_initial, fam, grid, substeps=cfg.profile_substeps))
    # psi is read before the profile wherever both are, so a bad psi is reported first
    cf = _value(lambda psi, profile: surface_embed.build_coframes(profile, psi))

    # the tolerance scales that rows name
    scale_q = _value(lambda profile: max(1.0, float(np.max(np.abs(profile.Q)))))
    scale_q2 = _value(lambda profile: max(1.0, float(np.max(2.0 * profile.Q * profile.Q))))
    # psi.mixed_partial applies the inverse alpha coframe (1/Q) R(-2 psi) twice
    scale_inv_q2 = _value(
        lambda profile: max(1.0, float(np.max(1.0 / (profile.Q * profile.Q)))))
    scale_q4 = _value(lambda q: q["q4"])
    scale_e = _value(lambda profile: max(1.0, float(np.max(profile.E))))
    scale_h = _value(lambda profile: max(1.0, float(np.max(np.abs(profile.H)))))
    scale_ii = _value(
        lambda profile: max(1.0, float(np.max(profile.E * (np.abs(profile.H) + profile.J)))))
    scale_structure = _value(lambda scale_e, scale_ii: max(scale_e, scale_ii))

    # the t-first frame march from the identity frame at the origin, and its FD
    # fundamental forms, which the frame rows share
    frame = _value(lambda cf: surface_embed.integrate_frame(cf))
    fd_forms = _value(lambda frame: surface_embed.fd_forms(frame))
    # (psi_1, psi_2), the components of d(psi) in the alpha coframe, which the psi.*
    # rows share
    alpha = _value(lambda psi, cf: decompose_in_coframe(d_scalar(psi), cf.alpha1, cf.alpha2))
    forms = _value(lambda psi, profile: surface_embed.fundamental_forms(profile, psi))

    # the companion's t0: the config's, else 1, which verify uses
    t0 = _value(lambda cfg: 1.0 if cfg.t0 is None else cfg.t0)
    tau = _value(lambda cf, t0: surface_embed.integrate_deformation(cf, t0))
    # the companion's frame march at t0, its FD forms and its forms in closed form at psi + tau
    deformed_frame = _value(lambda cf, tau: surface_embed.build_deformed_surface(cf, tau))
    deformed_fd_forms = _value(lambda deformed_frame: surface_embed.fd_forms(deformed_frame))
    deformed_forms = _value(
        lambda psi, profile, tau: surface_embed.fundamental_forms(profile, psi + tau))

    @_value
    def q(fam) -> dict:
        """Q ODE and first-integral residuals over 200 guarded samples, and max Q^4."""
        s = guarded_samples(fam, 200)
        q, qp, _ = eval_q_derivatives(fam, s)
        return {
            "q4": float(np.max(q**4)),
            "exactness": float(np.max(np.abs(q_ode_residual(fam, s)))),
            "first_integral": float(np.max(np.abs(qp * qp - q**4 - fam.kappa * q * q))),
            "kappa": fam.kappa,
        }

    # the batteries that several rows read, besides q and deformation
    rk4 = _value(lambda fam: _rk4_crosscheck(fam))  # (error, halving ratio)
    structure = _value(lambda cf: surface_embed.structure_residuals(cf))
    codazzi = _value(lambda cf: surface_embed.codazzi_summary_residuals(cf))
    theta12 = _value(lambda cf: surface_embed.theta12_report(cf))
    ideal = _value(lambda profile: bonnet_solver.ideal_residuals(profile))
    weingarten = _value(
        lambda profile, fd_forms: surface_embed.weingarten_residual(profile, fd_forms))
    frame_forms = _value(
        lambda fd_forms, forms: surface_embed.forms_deviation(fd_forms, forms))

    @_value
    def deformation(deformed_fd_forms, deformed_forms, forms, profile, tau, t0) -> dict:
        """The companion at t0: its FD forms judged against its closed-form ones, as
        the base surface's are, and its II' - II in closed form.  Its FD forms are
        built first, so no closed form is held through their temporaries."""
        metric, second = surface_embed.forms_deviation(deformed_fd_forms, deformed_forms)
        return {"t0": t0, "metric_deviation": metric, "second_form": second,
                "h_deviation": surface_embed.mean_curvature_deviation(profile, deformed_fd_forms),
                "ii_deviation": surface_embed.forms_deviation(deformed_forms, forms)[1],
                **surface_embed.deformation_report(tau)}


# ---------------------------------------------------------------------------
# the check table


class Check(NamedTuple):
    """One row of the check table.

    A string battery or scale names a value of the level (PipelineData),
    built at most once: a battery that several rows read, or a tolerance
    scale.  Any other battery is a function computing this row alone,
    called with the level names its parameters name; any other scale is
    a number.  key picks the value out of the battery's result (None: the
    result is the value); details names result keys copied into the
    report.  margin is the number of nodes the row's residuals strip at
    each edge of the grid.  rule sets the tolerance and the pass test,
    with h the base grid's h_max and F the fd_factor:

      algebraic    value <= tolerances.algebraic * scale
      bound        value <= scale
      ratio        RK4_RATIO_LOW <= value <= RK4_RATIO_HIGH
      fd           value <= F h^2 scale, on the base level only
      lower_bound  value > tolerances.algebraic * scale, on the base level only
      ladder       fd on every level, and the observed order >= ORDER_TARGET
      identity     algebraic on every level, with no order: the residual is
                   zero in exact arithmetic, by how its fields are built
    """

    name: str
    scale: object
    battery: object
    key: object = None
    rule: str = "ladder"
    details: tuple = ()
    margin: int = bonnet_solver.MARGIN


def _reads(row: Check) -> tuple:
    """The level names `row` reads: its battery's name, or the parameters of its
    function battery, and its scale's name."""
    battery = (row.battery,) if isinstance(row.battery, str) else _params(row.battery)
    return battery + ((row.scale,) if isinstance(row.scale, str) else ())


# report order; verify runs every row, the other commands a prefix filter
CHECKS = (
    Check("q.exactness", "scale_q4", "q", "exactness", "algebraic", margin=0),
    Check("q.first_integral", "scale_q4", "q", "first_integral", "algebraic", ("kappa",),
          margin=0),
    Check("q.rk4_error", RK4_TOL, "rk4", 0, "bound", margin=0),
    Check("q.rk4_halving", None, "rk4", 1, "ratio", margin=0),
    Check("lax.closed_form", "scale_q", lambda branch, grid: max(
        r.max_abs() for r in lax_psi.branch_lax_residuals(branch, grid)
    ), rule="algebraic", margin=0),
    Check("psi.branch_consistency", 1.0,
          lambda branch, psi: lax_psi.branch_consistency_error(branch, psi),
          rule="algebraic", margin=0),
    Check("frame.orthonormality", ORTHONORMALITY_TOL, lambda frame: frame.orthonormality_error(),
          rule="bound", margin=0),
    Check("frame.handedness", ORTHONORMALITY_TOL, lambda frame: 1.0 - frame.min_handedness(),
          rule="bound", margin=0),
    Check("weingarten.k_t_variation", K_T_VARIATION_TOL, "weingarten", "k_t_variation", "bound",
          margin=3),
    Check("deform.metric", "scale_e", "deformation", "metric_deviation", "fd", ("t0",)),
    Check("deform.h", "scale_h", "deformation", "h_deviation", "fd", ("t0",)),
    Check("deform.second_form", "scale_ii", "deformation", "second_form", "fd", ("t0",)),
    Check("deform.ii_distinct", "scale_ii", "deformation", "ii_deviation", "lower_bound",
          ("t0", "pole_count")),
    Check("deform.harmonic", "scale_q2",
          lambda tau: laplacian(tau).max_abs_interior(bonnet_solver.MARGIN)),
    Check("lax.compat", "scale_q", lambda psi, fam: max(
        r.max_abs_interior(1) for r in lax_psi.lax_residuals(psi, fam)), margin=1),
    Check("psi.harmonic", "scale_q2", lambda psi: lax_psi.harmonic_residual(psi), margin=1),
    Check("psi.constraint", "scale_q",
          lambda psi, alpha: lax_psi.psi_constraint_residual(psi, *alpha).max_abs_interior(2)),
    Check("psi.c_relation", "scale_q", lambda psi, fam, alpha: max(
        r.max_abs_interior(2) for r in lax_psi.c_relation_residuals(psi, fam, *alpha))),
    Check("psi.second_order", "scale_q", lambda alpha, cf: lax_psi.psi_second_order_residual(
        *alpha, cf.alpha1, cf.alpha2).max_abs_interior(2)),
    Check("psi.mixed_partial", "scale_inv_q2", lambda grid, cf: mixed_partial_residual(
        ScalarField.from_function(grid, lambda s, t: np.sin(s + 2.0 * t)),
        cf.alpha1, cf.alpha2,
    ).max_abs_interior(2)),
    Check("profile.gauss", "scale_q2", lambda profile: bonnet_solver.gauss_s_residual(profile)),
    Check("profile.ideal_dlog_a", "scale_q2", "ideal", "dlog_a", "identity"),
    Check("profile.ideal_db", "scale_q2", "ideal", "db"),
    Check("profile.ideal_dc", "scale_q2", "ideal", "dc", "identity"),
    Check("profile.ideal_dh", "scale_q2", "ideal", "dh", "identity"),
    Check("profile.ideal_dlog_j", "scale_q2", "ideal", "dlog_j"),
    Check("profile.geodesic", "scale_q2",
          lambda profile: bonnet_solver.geodesic_curvature_residual(profile)),
    Check("structure.d_omega1", "scale_structure", "structure", "d_omega1"),
    Check("structure.d_omega2", "scale_structure", "structure", "d_omega2"),
    Check("structure.d_omega13", "scale_structure", "structure", "d_omega13"),
    Check("structure.d_omega23", "scale_structure", "structure", "d_omega23"),
    Check("structure.d_omega12", "scale_structure", "structure", "d_omega12"),
    Check("codazzi.dh", "scale_q", "codazzi", "codazzi_dh"),
    Check("codazzi.dlog_j", "scale_q", "codazzi", "codazzi_dlog_j"),
    Check("codazzi.d_theta1", "scale_q", "codazzi", "d_theta1", "identity"),
    Check("codazzi.d_alpha1", "scale_q", "codazzi", "d_alpha1"),
    Check("codazzi.d_alpha2", "scale_q", "codazzi", "d_alpha2"),
    Check("theta12.via_psi", "scale_q", "theta12", "theta12_via_psi"),
    Check("theta12.hodge", "scale_q", "theta12", "theta12_hodge", "identity"),
    Check("theta12.dpsi", "scale_q", "theta12", "dpsi_theta"),
    Check("theta12.d_star_omega12", "scale_q", "theta12", "d_star_omega12"),
    Check("theta12.d_star_theta12", "scale_q", "theta12", "d_star_theta12", "identity"),
    Check("theta12.xi12", "scale_q", "theta12", "xi12_relation"),
    Check("transform.rotation", "scale_q", lambda cf, grid:
          surface_embed.rotation_transform_residual(cf, ScalarField.from_function(
              grid, lambda s, t: 0.3 + 0.2 * np.sin(s) * np.cos(t)))),
    Check("transform.scaling", "scale_q", lambda cf, grid:
          surface_embed.scaling_transform_residual(cf, ScalarField.from_function(
              grid, lambda s, t: np.exp(0.1 * np.sin(s + t))))),
    Check("frame.two_path", 1.0,
          lambda cf, frame: surface_embed.two_path_residual(cf, frame), margin=0),
    Check("frame.metric_recovery", "scale_e", "frame_forms", 0),
    Check("frame.second_form", "scale_ii", "frame_forms", 1),
    Check("weingarten.wedge", 1.0, "weingarten", "wedge_residual", margin=3),
)


def _select(cfg: RunConfig, prefixes: tuple, only: str | None = None) -> list:
    """Rows whose name starts with one of `prefixes` and contains `only`, less
    the rows that read the closed-form psi branch where psi is marched."""
    rows = [
        row for row in CHECKS
        if row.name.startswith(prefixes) and (only is None or only in row.name)
        and (cfg.psi_branch is not None or "branch" not in _reads(row))
    ]
    if not rows:
        raise ConfigError(f"--only '{only}' matched no checks")
    return rows


def _rk4_crosscheck(fam: QFamily):
    """Max relative error at step 2e-3 L and the step-halving error ratio.

    L is the family's natural length.  The window starts a fifth of the
    way into the sampled sign +1 domain (guarded_samples), counted from
    the pole at s = 0, and is L long (that domain is 3.1 L wide or more).
    Window and steps are measured in L, so every frequency marches the same
    steps over the same values of s/L.  For sign -1 the window is the mirror
    image s -> -s of the +1 window, so both signs march away from the pole
    over the same values of Q and give the same error and ratio.
    """
    lo, hi = guarded_samples(QFamily(fam.kind, 1, fam.a), 2)
    s0 = lo + 0.2 * (hi - lo)
    s1 = s0 + fam.length
    if fam.sign == -1:
        s0, s1 = -s0, -s1
    q0, q0p, _ = eval_q_derivatives(fam, s0)
    errs = []
    for n in (500, 1000):  # steps 2e-3 L and 1e-3 L
        traj = integrate_q_ode(float(q0), float(q0p), s0, s1, n)
        if traj.truncated:
            raise ConsistencyError(f"RK4 cross-check blew up for {fam.describe()}")
        exact = eval_q(fam, traj.s)
        errs.append(float(np.max(np.abs(traj.q - exact)) / np.max(np.abs(exact))))
    ratio = errs[0] / max(errs[1], 1e-300)
    return errs[0], ratio


def _fmt_order(order) -> str:
    return "" if order is None else f" order={order:.2f}"


def _judge(cfg: RunConfig, row: Check, values: list, scale, details: dict, hs: list) -> dict:
    """The report entry of one row from its values on the levels run."""
    value = values[0]
    order = None
    if row.rule in ("algebraic", "identity", "lower_bound"):  # one value, or one per level
        tol = cfg.tol_algebraic * scale
        # a NaN fails either way, on any level
        passed = value > tol if row.rule == "lower_bound" else all(v <= tol for v in values)
    elif row.rule == "bound":
        tol = scale
        passed = value <= tol
    elif row.rule == "ratio":
        tol = None
        passed = RK4_RATIO_LOW <= value <= RK4_RATIO_HIGH
        details = {"low": RK4_RATIO_LOW, "high": RK4_RATIO_HIGH}
    else:  # fd on the base level, ladder on every level
        tol = cfg.fd_factor * cfg.grid.h_max**2 * scale
        passed = all(v <= tol for v in values)  # a NaN on any level fails
        if len(values) >= 2:  # only ladder rows run on more than one level
            order = observed_order(hs, values)
            if order is None or order < ORDER_TARGET:
                passed = False
    if row.rule in LADDER_RULES:
        details = {"residuals": values}
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


def _level(cfg: RunConfig, rows: list, k: int, export=None) -> tuple:
    """({row name: (value, scale, details)}, export(level)) on ladder level k.

    The level is cfg.grid refined 2**k.  export runs first, and the rows
    are evaluated in order.  After each value is built and after each row,
    the level drops every value that no row still to run reaches
    (PipelineData.drop), and the level itself is dropped on return, so only
    the rows' floats outlive it.  export declares no reads: it holds what
    it reads in its own locals.
    """
    level = PipelineData(cfg, cfg.grid.refined(2**k))
    level.pending = [_reads(row) for row in rows]
    exported = export(level) if export else None

    def run(row):
        result = level.evaluate(row)
        del level.pending[0]
        level.drop()
        return result

    return {row.name: run(row) for row in rows}, exported


class ChildDiedError(RuntimeError):
    """A forked child ended without sending back what it returned or raised: killed
    by a signal, as the out-of-memory killer's SIGKILL does, or exited (exit code 3)."""


class _Forked:
    """work() run in a forked child; result() reads back what it returned or raised.

    `doing` says what the child does, for the ChildDiedError raised if it dies.
    The child pickles (True, result) or (False, exception) into a pipe and
    leaves with os._exit, so it never returns into the caller, flushes no
    buffer it inherited and runs no exit handler.  close() kills and reaps
    a child that result() has not reaped.  The only other threads a run
    has are OpenBLAS workers, which OpenBLAS stops before a fork.  Where
    os.fork is missing or os.pipe or os.fork raises OSError, no child is
    forked: result() runs work() here and close() has nothing to reap.
    """

    def __init__(self, work, doing: str):
        self.work, self.doing, self.pid, self.read = work, doing, 0, None
        if not hasattr(os, "fork"):
            return
        try:  # an OSError: no descriptor or no process to spare, so no child
            read, write = os.pipe()
            try:
                self.pid = os.fork()
            except BaseException:
                os.close(read)
                os.close(write)
                raise
        except OSError:
            return
        if self.pid == 0:
            _child(work, write)
        os.close(write)
        # drop work here, where it would keep what it captures alive until the join
        self.work, self.read = None, read

    def result(self):
        if self.work is not None:  # no child: work runs here, now
            return self.work()
        with open(self.read, "rb") as fh:  # the file owns the descriptor now
            self.read = None
            data = fh.read()
        _, status = os.waitpid(self.pid, 0)
        self.pid = 0
        if os.WIFSIGNALED(status):
            name = signal.Signals(os.WTERMSIG(status)).name
            raise ChildDiedError(f"the process {self.doing} died from {name}")
        if not data:
            raise ChildDiedError(f"the process {self.doing} exited with status "
                                 f"{os.waitstatus_to_exitcode(status)} and no result")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        return value

    def close(self) -> None:
        if self.pid:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = 0
        if self.read is not None:
            os.close(self.read)
            self.read = None


def _child(work, write: int):
    """The forked side of _Forked: send work()'s outcome down `write` and exit."""
    code = 1
    try:
        try:
            data = pickle.dumps((True, work()))
        except BaseException as exc:
            if hasattr(exc, "add_note"):  # Python 3.11+: keep the child's traceback
                exc.add_note("raised in the forked child, at\n"
                             + "".join(traceback.format_exception(exc)))
            try:  # loads too: a class may pickle but not rebuild from its args
                data = pickle.dumps((False, exc))
                pickle.loads(data)
            except Exception:
                error = RuntimeError(f"{type(exc).__name__}: {exc}")
                error.__notes__ = getattr(exc, "__notes__", [])  # the child's traceback
                data = pickle.dumps((False, error))
        with open(write, "wb") as fh:
            fh.write(data)
        code = 0
    finally:
        os._exit(code)


class _Writers:
    """Output files written by child processes (_Forked) while the command goes on.

    write(path, work) starts a child in which work() writes the file at
    `path`.  Leaving the `with` block joins every writer: the first one
    started that failed raises its error, over any error the block raised
    after it, as in one process, where the writer would have run first.
    The writers started after a failed one are killed, or never run where
    no child was forked, and every child is reaped on every way out.
    """

    def __init__(self):
        self.started = []

    def write(self, path: str, work) -> None:
        from . import text17  # noqa: F401  once, here, so the writers share its tables

        self.started.append(_Forked(work, f"writing {path}"))

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb) -> None:
        try:
            if kind is None or issubclass(kind, Exception):
                for writer in self.started:
                    writer.result()
        finally:
            for writer in self.started:
                writer.close()


def _ladder(cfg: RunConfig, rows: list, levels: int, export):
    """Evaluate `rows` over `levels` grids, cfg.grid refined 2**k.

    Each level is built, its rows are evaluated and only their floats are
    kept, by row name, before it is dropped, so no grid-sized array
    outlives its level.  Ladder rows (rule in LADDER_RULES) run on every
    level, the others on the base level only, and one level is built when
    no ladder row is selected.  export(level) runs first, on the base level.
    Returns the report entries in row order and what export returned.

    With two or more levels, a child (_Forked) evaluates the ladder rows
    whose reads reach the frame march (_reach) on the finest level, or all
    of them when none does, while this process runs the other levels in
    order and then the finest level's other ladder rows, so each process holds
    one level at a time.  All run _level, and the child sends back its
    floats, so the report is the same as from one process.  An error reads
    as it would in one process with the frame rows last: the lowest
    failing level's error is raised, and on the finest level this
    process's own rows are read before the child's.  The child is killed
    and reaped on every way out.  Where no child is forked, the same
    schedule runs in this process alone.
    """
    on_ladder = [row for row in rows if row.rule in LADDER_RULES]
    n = levels if on_ladder else 1
    tail = [row for row in on_ladder if "frame" in _reach(_reads(row))] or on_ladder
    head = [row for row in on_ladder if row not in tail]
    if n > 1:
        finest = _Forked(lambda: _level(cfg, tail, n - 1)[0], "evaluating the finest ladder level")
    try:
        base, exported = _level(cfg, rows, 0, export)
        found = [base] + [_level(cfg, on_ladder, k)[0] for k in range(1, n - 1)]
        if n > 1:
            found.append({**(_level(cfg, head, n - 1)[0] if head else {}), **finest.result()})
    finally:
        if n > 1:
            finest.close()
    hs = [cfg.grid.refined(2**k).h_max for k in range(n)]
    checks = []
    for row in rows:
        got = [results[row.name] for results in found if row.name in results]
        # the scale from the last level the row runs on, the details from the base level
        checks.append(_judge(cfg, row, [value for value, _, _ in got], got[-1][1], got[0][2], hs))
    return checks, exported


# ---------------------------------------------------------------------------
# commands


def _check_margins(grid: Grid, rows: list) -> None:
    """ConfigError unless `grid` keeps an interior inside the widest margin of
    `rows`: a row that strips m nodes at each edge needs 2 m + 1 per axis."""
    row = max(rows, key=lambda r: r.margin)
    if min(grid.ns, grid.nt) <= 2 * row.margin:
        raise ConfigError(
            f"the {grid.ns} x {grid.nt} grid is too small for {row.name}, whose residual "
            f"strips {row.margin} nodes at each edge: ns and nt must be at least "
            f"{2 * row.margin + 1}")


def _run(args, cfg: RunConfig, command: str, rows: list, levels: int, export) -> int:
    """One command: `rows` over `levels` ladder levels, refused (ConfigError)
    before any output exists if the finest level is over MAX_LADDER_NODES or
    MAX_MARCH_STEPS or the base grid is too small for a row's margin.

    export(level, out, write) writes the command's files (CSV, OBJ) from
    the base level, in place or through write (_Writers.write), and
    returns the report's header fields.  Every writer is joined before
    <command>_report.json is written and printed; returns the exit code.
    """
    _check_finest_level(cfg, levels)
    _check_margins(cfg.grid, rows)
    out = args.out if args.out else cfg.out_dir
    os.makedirs(out, exist_ok=True)
    with _Writers() as writers:
        checks, fields = _ladder(cfg, rows, levels,
                                 lambda level: export(level, out, writers.write))
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
                "kappa_at_a1": fam.kappa,
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

    def export(level, out, write):  # two short writes: a writer would cost more than it saves
        psi = level.psi  # read first, so a bad psi is reported before a bad profile
        bonnet_solver.write_profile_csv(level.profile, os.path.join(out, "profile.csv"))
        write_scalar_csv(psi, os.path.join(out, "psi.csv"), "psi")
        return {"grid": _grid_info(cfg.grid), "family": cfg.family.describe()}

    rows = _select(cfg, ("q.", "lax.", "psi.", "profile."))
    return _run(args, cfg, "solve", rows, levels, export)


def _forms_csv(path, ff: surface_embed.Forms) -> None:
    s, t = ff.grid.mesh()
    with open(path, "w", newline="") as fh:
        fh.write("s,t,E,L,M,N\n")
        _write_rows(fh, np.column_stack(
            [a.ravel() for a in (s, t, ff.gss.values, ff.L.values, ff.M.values, ff.N.values)]))


def cmd_mesh(args) -> int:
    cfg = load_config(args.config)
    g = cfg.grid

    def export(level, out, write):
        # forms.csv is written while the frame is marched, surface.obj while the
        # rows are evaluated.  The writer builds the forms it writes, so this
        # process holds none through the frame march and its FD forms, mesh's peak.
        # A writer holds what it writes, not the level, to the join if no child runs it
        forms_path, obj_path = os.path.join(out, "forms.csv"), os.path.join(out, "surface.obj")
        psi, profile = level.psi, level.profile
        write(forms_path, lambda: _forms_csv(
            forms_path, surface_embed.fundamental_forms(profile, psi)))
        frame = level.frame
        write(obj_path, lambda: surface_embed.export_obj(frame, obj_path))
        return {
            "grid": _grid_info(g),
            "vertices": g.ns * g.nt,
            "triangles": 2 * (g.ns - 1) * (g.nt - 1),
            "structure_residuals": level.structure,
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

    def export(level, out, write):
        # the writer, not this call, holds the frame, which the level's drop then frees
        path = os.path.join(out, "deformed.obj")
        write(path, lambda frame=level.deformed_frame: surface_embed.export_obj(frame, path))
        rep = level.deformation
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

    def export(level, out, write):
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
    # argparse takes -1e6 for an option, as its negative numbers have no exponent
    p._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
    p.set_defaults(func=cmd_deform)

    p = sub.add_parser("verify", help="run every named residual check")
    common(p)
    p.add_argument("--refine", type=int, default=None,
                   help="refinement levels (default from config, min 2)")
    p.add_argument("--only", default=None, help="run only checks whose name contains this")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # a numpy overflow, invalid value or division by zero that no site expects
        # stops the command here, and in every process it forks, instead of warning
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except ConfigError as exc:
        print(f"bonnet: config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, FloatingPointError) as exc:
        print(f"bonnet: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"bonnet: i/o error: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, ChildDiedError) as exc:
        print(f"bonnet: {type(exc).__name__}: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except Exception:  # a bug: its traceback, and a code no script reads as a failed check
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
