"""Mean-curvature profile along s and the derived surface data.

With Q(s) fixed by a closed-form branch, the mean curvature H(s) of the
surface obeys a third-order ODE (the s-reduction of the Gauss equation):

    (H''/H')' + 2 tau_c H' = 2 Q^2 (1 + tau_c H^2 / H')

for a positive constant tau_c.  Everything else in the construction is
algebraic in (H, H', H'') and Q:

    J = H'/Q        half-gap of the principal curvatures (J > 0)
    E = tau_c Q^2/H' conformal factor of the first form, e = sqrt(E)
    A = Q/e         coframe scaling, so A e = Q exactly
    B = (log A)'/Q  from the scaling relation d(log A) = A B xi1
    C = (1/Q)'      from the Q branch

integrate_h is the one H march.  The Bonnet regime requires
H' > 0 throughout; the march aborts the moment it is lost.  B is computed
by finite differences of log A (not by integrating its own ODE), which
keeps the dB relation available as an independent residual check.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .forms2d import DataError, Grid, _second_derivative, _write_rows, max_interior
from .q_family import ConsistencyError, QFamily, SingularityGuard, eval_c, eval_c_prime, eval_q
from .rk4 import rk4_step

__all__ = [
    "HInitialData",
    "SurfaceProfile",
    "RegimeError",
    "BlowUpError",
    "ProfileRangeError",
    "h_third_derivative",
    "integrate_h",
    "validate_profile",
    "gauss_s_residual",
    "ideal_residuals",
    "geodesic_curvature_residual",
    "write_profile_csv",
]

# the H march stops once |H|, |H'| or |H''| passes H_BLOWUP times u, u^2 or u^3, where
# u = max(|H0|, sqrt(H0'), cbrt(|H0''|), Q(s0)) > 0 is a 1/length of the data
H_BLOWUP = 1e9
# nodes the grid residuals here and in surface_embed strip at each edge,
# where their one-sided FD stencils leave the largest h^2 error
MARGIN = 2


class _MarchStopped(DataError, RuntimeError):
    """The H march stopped after s = last_valid_s, which a subclass's `message` formats."""

    def __init__(self, last_valid_s: float):
        self.last_valid_s = float(last_valid_s)
        super().__init__(self.message.format(self.last_valid_s))


class RegimeError(_MarchStopped):
    """H' dropped to zero: the surface left the Bonnet regime."""

    message = "H' <= 0 reached; last s inside the regime: {:.12g}"


class BlowUpError(_MarchStopped):
    """Profile state exceeded the blow-up guard."""

    message = "profile blow-up after s = {:.12g}"


class ProfileRangeError(DataError, ValueError):
    """A profile field that must be positive is not: its data overflow or
    underflow on the grid."""


@dataclass(frozen=True)
class HInitialData:
    """Initial values (H, H', H'') at s0 and the coupling constant tau_c."""

    s0: float
    H0: float
    H0p: float
    H0pp: float
    tau_c: float

    def __post_init__(self):
        for name in ("s0", "H0", "H0p", "H0pp", "tau_c"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.H0p <= 0:
            raise ValueError("H0p must be positive (Bonnet regime needs H' > 0)")
        if self.tau_c <= 0:
            raise ValueError("tau_c must be positive")


def h_third_derivative(q, H, Hp, Hpp, tau_c: float):
    """H''' isolated from the profile equation, where Q = q."""
    return Hpp * Hpp / Hp + Hp * (
        2.0 * q * q * (1.0 + tau_c * H * H / Hp) - 2.0 * tau_c * Hp
    )


@dataclass(frozen=True)
class SurfaceProfile:
    """Profile samples and the algebraic fields derived from them.

    Arrays share one s-sampling.  Construction only checks shapes;
    validate_profile enforces the defining identities (used by the
    integrators; dataclasses.replace skips it, so negative controls can
    exist).
    """

    s: np.ndarray
    H: np.ndarray
    Hp: np.ndarray
    Hpp: np.ndarray
    J: np.ndarray
    E: np.ndarray
    e: np.ndarray
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    family: QFamily
    tau_c: float

    def __post_init__(self):
        n = np.asarray(self.s).size
        for name in ("s", "H", "Hp", "Hpp", "J", "E", "e", "A", "B", "C", "Q"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (n,):
                raise ValueError(f"profile field {name} has shape {arr.shape}, want ({n},)")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if n < 5:
            raise ValueError("profile needs at least 5 samples")

    # samples that overflow or underflow give inf, nan or 0 here without a warning:
    # validate_profile then raises ProfileRangeError, which names the field and s
    @classmethod
    @np.errstate(over="ignore", divide="ignore", invalid="ignore")
    def from_h_samples(cls, s, H, Hp, Hpp, fam: QFamily, tau_c: float) -> "SurfaceProfile":
        s = np.asarray(s, dtype=float)
        q = eval_q(fam, s)
        J = Hp / q
        E = tau_c * q * q / Hp
        e = np.sqrt(E)
        A = q / e
        # B from FD of log A; the dB relation stays an independent check
        B = np.gradient(np.log(A), s, edge_order=2) / q
        C = eval_c(fam, s)
        return cls(s, H, Hp, Hpp, J, E, e, A, B, C, q, fam, tau_c)


def validate_profile(profile: SurfaceProfile) -> None:
    """Enforce positivity and the exact algebraic couplings."""
    p = profile
    for name in ("Hp", "J", "E", "e", "A", "Q"):
        field = getattr(p, name)
        bad = ~(field > 0)  # NaN is not positive either
        if np.any(bad):
            k = int(np.argmax(bad))
            raise ProfileRangeError(f"profile field {name} must be positive everywhere, "
                                    f"but is {field[k]:g} at s = {p.s[k]:.12g}")
    if np.any(np.diff(p.s) <= 0):
        raise ValueError("profile s-samples must be strictly increasing")

    def close(x, y, what):
        scale = max(1.0, float(np.max(np.abs(y))))
        worst = float(np.max(np.abs(x - y)))
        if worst > 1e-10 * scale:
            raise ConsistencyError(f"profile identity {what} violated: {worst:.3e}")

    close(p.E * p.J, p.tau_c * p.Q, "E*J = tau_c*Q")
    close(p.A * p.e, p.Q, "A*e = Q")
    close(p.Q * p.J, p.Hp, "Q*J = Hp")
    close(p.e * p.e, p.E, "e^2 = E")


def integrate_h(ics: HInitialData, fam: QFamily, grid: Grid, substeps: int = 8) -> SurfaceProfile:
    """Profile sampled at the grid s-nodes: an RK4 march of (H, H', H'') from
    s0 = grid.s_min to grid.s_max in (ns - 1) * substeps equal steps, kept at
    every substeps-th step, so its samples are the nodes by construction
    (substeps RK4 steps per cell keep the march error far below FD truncation).

    Raises RegimeError when H' hits zero (with the last s still inside
    the regime) and BlowUpError past the magnitude guard.  Q is evaluated
    once, at every stage abscissa of the march.
    """
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    if abs(grid.s_min - ics.s0) > 1e-12 * max(1.0, abs(ics.s0)):
        raise ValueError("initial s0 must coincide with grid.s_min")
    SingularityGuard(fam).check(np.array([ics.s0, grid.s_max]))

    n = (grid.ns - 1) * substeps
    h = (grid.s_max - ics.s0) / n
    s_out = ics.s0 + h * np.arange(n + 1)
    s_k = s_out[:-1]
    # a hyperbolic Q whose sinh overflows is 0 here, without a warning: validate_profile
    # then raises ProfileRangeError, which names the first such s
    with np.errstate(over="ignore"):
        q_start, q_mid, q_end = eval_q(fam, np.stack([s_k, s_k + 0.5 * h, s_k + h]))
    tau_c = ics.tau_c

    def rhs(q, y):
        H, Hp, Hpp = y
        if not Hp > 0:
            raise RegimeError(s_k[k])  # k: the step being taken
        return Hp, Hpp, h_third_derivative(q, H, Hp, Hpp, tau_c)

    out = np.empty((n + 1, 3))
    out[0] = y = [float(ics.H0), float(ics.H0p), float(ics.H0pp)]
    # the similarity s -> s/lam, H -> lam H, Q -> lam Q that maps a solution to a
    # solution maps u to lam u, so the bounds scale as H, H' and H''.  A bound past the
    # largest float is capped there, so an infinite state still stops
    u = max(abs(ics.H0), math.sqrt(ics.H0p), abs(ics.H0pp) ** (1.0 / 3.0), q_start.item(0))
    big = sys.float_info.max
    bound_h, bound_hp, bound_hpp = (min(H_BLOWUP * u, big), min(H_BLOWUP * u * u, big),
                                    min(H_BLOWUP * u * u * u, big))
    for k in range(n):
        y = rk4_step(rhs, y, h, q_start.item(k), q_mid.item(k), q_end.item(k))
        H, Hp, Hpp = y
        if not (abs(H) <= bound_h and abs(Hp) <= bound_hp and abs(Hpp) <= bound_hpp):
            raise BlowUpError(s_k[k])
        if not Hp > 0:
            raise RegimeError(s_k[k])
        out[k + 1] = y

    # copies of the node samples, so the march's arrays go with the march
    H, Hp, Hpp = out[::substeps].T.copy()
    profile = SurfaceProfile.from_h_samples(s_out[::substeps].copy(), H, Hp, Hpp, fam, tau_c)
    validate_profile(profile)
    return profile


def _d1(vals: np.ndarray, s: np.ndarray) -> np.ndarray:
    return np.gradient(vals, s, edge_order=2)


def gauss_s_residual(profile: SurfaceProfile) -> float:
    """Gauss equation reduced to s: (log E)'' - 2 Q^2 + (H''/H')' -> 0."""
    p = profile
    resid = (
        _second_derivative(np.log(p.E), p.s[1] - p.s[0], 0)
        - 2.0 * p.Q * p.Q + _d1(p.Hpp / p.Hp, p.s)
    )
    return max_interior(resid, MARGIN)


def ideal_residuals(profile: SurfaceProfile) -> dict:
    """Max residuals of the five closed-ideal relations, |X' - Q * RHS|.

    dlog_a is definitionally zero (B is the FD of log A); dh is zero to
    rounding (J is defined as H'/Q); dc uses the analytic C'.  The
    independent content lives in db and dlog_j.
    """
    p = profile
    res = {
        "dlog_a": _d1(np.log(p.A), p.s) - p.Q * p.B,
        "db": _d1(p.B, p.s)
        - p.Q * (p.B * p.C + 1.0 + (p.H * p.H - p.J * p.J) / (p.A * p.A)),
        "dc": eval_c_prime(p.family, p.s) - p.Q * (p.C * p.C - 1.0),
        "dh": p.Hp - p.Q * p.J,
        "dlog_j": _d1(np.log(p.J), p.s) - p.Q * (2.0 * p.B + p.C),
    }
    return {k: max_interior(v, MARGIN) for k, v in res.items()}


def geodesic_curvature_residual(profile: SurfaceProfile) -> float:
    """Geodesic curvature of the t-lines: e'/e^2 + A (B + C) -> 0."""
    p = profile
    resid = _d1(p.e, p.s) / (p.e * p.e) + p.A * (p.B + p.C)
    return max_interior(resid, MARGIN)


def write_profile_csv(profile: SurfaceProfile, path) -> None:
    """One row per s sample, 17 significant digits, CRLF line endings."""
    cols = ("s", "H", "Hp", "J", "E", "A", "B", "C", "Q")
    with open(path, "w", newline="\r\n") as fh:
        fh.write(",".join(cols) + "\n")
        _write_rows(fh, np.column_stack([getattr(profile, c) for c in cols]))
