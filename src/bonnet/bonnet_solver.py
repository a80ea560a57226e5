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

The Bonnet regime requires H' > 0 throughout; the integrator aborts the
moment it is lost.  B is computed by finite differences of log A (not by
integrating its own ODE), which keeps the dB relation available as an
independent residual check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .forms2d import _second_derivative, _write_rows, max_interior
from .q_family import ConsistencyError, QFamily, SingularityGuard, eval_c, eval_c_prime, eval_q
from .rk4 import rk4_step

__all__ = [
    "HInitialData",
    "SurfaceProfile",
    "RegimeError",
    "BlowUpError",
    "h_ode_residual",
    "h_third_derivative",
    "integrate_h",
    "integrate_h_on_grid",
    "validate_profile",
    "gauss_s_residual",
    "ideal_residuals",
    "geodesic_curvature_residual",
    "write_profile_csv",
    "perturbed_profile",
]

H_BLOWUP = 1e9


class RegimeError(RuntimeError):
    """H' dropped to zero: the surface left the Bonnet regime."""

    def __init__(self, last_valid_s: float):
        self.last_valid_s = float(last_valid_s)
        super().__init__(
            f"H' <= 0 reached; last s inside the regime: {self.last_valid_s:.12g}"
        )


class BlowUpError(RuntimeError):
    """Profile state exceeded the blow-up guard."""

    def __init__(self, last_valid_s: float):
        self.last_valid_s = float(last_valid_s)
        super().__init__(f"profile blow-up after s = {self.last_valid_s:.12g}")


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


def _h3(q, H, Hp, Hpp, tau_c: float):
    return Hpp * Hpp / Hp + Hp * (
        2.0 * q * q * (1.0 + tau_c * H * H / Hp) - 2.0 * tau_c * Hp
    )


def h_third_derivative(s, H, Hp, Hpp, fam: QFamily, tau_c: float):
    """H''' isolated from the profile equation."""
    return _h3(eval_q(fam, s), H, Hp, Hpp, tau_c)


def h_ode_residual(s, H, Hp, Hpp, Hppp, fam: QFamily, tau_c: float):
    """(H''' H' - H''^2)/H'^2 + 2 tau_c H' - 2 Q^2 (1 + tau_c H^2/H')."""
    q = eval_q(fam, s)
    return (
        (Hppp * Hp - Hpp * Hpp) / (Hp * Hp)
        + 2.0 * tau_c * Hp
        - 2.0 * q * q * (1.0 + tau_c * H * H / Hp)
    )


@dataclass(frozen=True)
class SurfaceProfile:
    """Profile samples and the algebraic fields derived from them.

    Arrays share one s-sampling.  Construction only checks shapes;
    validate_profile enforces the defining identities (used by the
    integrators, skipped by perturbed_profile so negative controls can
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

    @property
    def step(self) -> float:
        return float(self.s[1] - self.s[0])

    @classmethod
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


def validate_profile(profile: SurfaceProfile, rtol: float = 1e-10) -> None:
    """Enforce positivity and the exact algebraic couplings."""
    p = profile
    for name in ("Hp", "J", "E", "e", "A", "Q"):
        if not np.all(getattr(p, name) > 0):
            raise ValueError(f"profile field {name} must be positive everywhere")
    if np.any(np.diff(p.s) <= 0):
        raise ValueError("profile s-samples must be strictly increasing")

    def close(x, y, what):
        scale = max(1.0, float(np.max(np.abs(y))))
        worst = float(np.max(np.abs(x - y)))
        if worst > rtol * scale:
            raise ConsistencyError(f"profile identity {what} violated: {worst:.3e}")

    close(p.E * p.J, p.tau_c * p.Q, "E*J = tau_c*Q")
    close(p.A * p.e, p.Q, "A*e = Q")
    close(p.Q * p.J, p.Hp, "Q*J = Hp")
    close(p.e * p.e, p.E, "e^2 = E")


def integrate_h(ics: HInitialData, fam: QFamily, s1: float, step: float) -> SurfaceProfile:
    """RK4 march of (H, H', H'') from s0 to s1, sampled at every step.

    Raises RegimeError when H' hits zero (with the last s still inside
    the regime) and BlowUpError past the magnitude guard.  Q is evaluated
    once, at every stage abscissa of the march.
    """
    if not (math.isfinite(step) and step > 0):
        raise ValueError("step must be positive and finite")
    if s1 <= ics.s0:
        raise ValueError("s1 must exceed s0")
    SingularityGuard(fam).check(np.array([ics.s0, s1]))

    n = int(math.ceil((s1 - ics.s0) / step - 1e-12))
    h = (s1 - ics.s0) / n
    s_out = ics.s0 + h * np.arange(n + 1)
    s_k = s_out[:-1]
    q_start, q_mid, q_end = eval_q(fam, np.stack([s_k, s_k + 0.5 * h, s_k + h]))
    tau_c = ics.tau_c

    def rhs(q, y):
        H, Hp, Hpp = y
        if not Hp > 0:
            raise RegimeError(s_k[k])  # k: the step being taken
        return Hp, Hpp, _h3(q, H, Hp, Hpp, tau_c)

    out = np.empty((n + 1, 3))
    out[0] = y = [float(ics.H0), float(ics.H0p), float(ics.H0pp)]
    for k in range(n):
        y = rk4_step(rhs, y, h, q_start.item(k), q_mid.item(k), q_end.item(k))
        H, Hp, Hpp = y
        if not (abs(H) <= H_BLOWUP and abs(Hp) <= H_BLOWUP and abs(Hpp) <= H_BLOWUP):
            raise BlowUpError(s_k[k])
        if not Hp > 0:
            raise RegimeError(s_k[k])
        out[k + 1] = y

    profile = SurfaceProfile.from_h_samples(
        s_out, out[:, 0], out[:, 1], out[:, 2], fam, ics.tau_c
    )
    validate_profile(profile)
    return profile


def integrate_h_on_grid(ics: HInitialData, fam: QFamily, grid, substeps: int = 8) -> SurfaceProfile:
    """Profile sampled exactly at the grid s-nodes (substeps RK4 stages
    per cell keep the march error far below FD truncation)."""
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    if abs(grid.s_min - ics.s0) > 1e-12 * max(1.0, abs(ics.s0)):
        raise ValueError("initial s0 must coincide with grid.s_min")
    fine = integrate_h(ics, fam, grid.s_max, grid.h_s / substeps)
    idx = np.arange(0, fine.s.size, substeps)
    if idx[-1] != fine.s.size - 1:
        raise ConsistencyError("substep count did not land on the grid nodes")
    prof = SurfaceProfile.from_h_samples(
        fine.s[idx], fine.H[idx], fine.Hp[idx], fine.Hpp[idx], fam, ics.tau_c
    )
    validate_profile(prof)
    return prof


def _d1(vals: np.ndarray, s: np.ndarray) -> np.ndarray:
    return np.gradient(vals, s, edge_order=2)


def gauss_s_residual(profile: SurfaceProfile, margin: int = 2) -> float:
    """Gauss equation reduced to s: (log E)'' - 2 Q^2 + (H''/H')' -> 0."""
    p = profile
    resid = (
        _second_derivative(np.log(p.E), p.s[1] - p.s[0], 0)
        - 2.0 * p.Q * p.Q + _d1(p.Hpp / p.Hp, p.s)
    )
    return max_interior(resid, margin)


def ideal_residuals(profile: SurfaceProfile, margin: int = 2) -> dict:
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
    return {k: max_interior(v, margin) for k, v in res.items()}


def geodesic_curvature_residual(profile: SurfaceProfile, margin: int = 2) -> float:
    """Geodesic curvature of the t-lines: e'/e^2 + A (B + C) -> 0."""
    p = profile
    resid = _d1(p.e, p.s) / (p.e * p.e) + p.A * (p.B + p.C)
    return max_interior(resid, margin)


def perturbed_profile(profile: SurfaceProfile, **overrides) -> SurfaceProfile:
    """Copy with fields replaced and *no* identity validation.

    Negative controls need profiles that deliberately violate the
    algebraic couplings; never feed these to the frame integrator.
    """
    return replace(profile, **overrides)


def write_profile_csv(profile: SurfaceProfile, path) -> None:
    """One row per s sample, 17 significant digits, CRLF line endings."""
    cols = ("s", "H", "Hp", "J", "E", "A", "B", "C", "Q")
    with open(path, "w", newline="\r\n") as fh:
        fh.write(",".join(cols) + "\n")
        _write_rows(fh, np.column_stack([getattr(profile, c) for c in cols]))
