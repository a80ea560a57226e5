"""Closed-form solution branches of the curvature-scale equation.

The profile construction rests on a positive function Q(s) obeying

    Q'' Q - (Q')^2 = Q^4,   equivalently   (Q')^2 = Q^4 + kappa Q^2

for a constant kappa.  Up to translation there are six branches, indexed
by (kind, sign):

    rational   Q = sign/s          on sign*s > 0,            kappa = 0
    trig       Q = sign*a/sin(as)  on (0, pi/a) or mirrored, kappa = -a^2
    hyper      Q = sign*a/sinh(as) on sign*s > 0,            kappa = +a^2

Each branch also carries C = (1/Q)', which satisfies C' = Q (C^2 - 1) and
feeds the profile ODE system downstream.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass

import numpy as np

from .forms2d import DataError
from .rk4 import rk4_step

__all__ = [
    "QFamily",
    "SingularityGuard",
    "QTrajectory",
    "DomainError",
    "ConsistencyError",
    "KINDS",
    "eval_q",
    "eval_q_derivatives",
    "eval_c",
    "eval_c_prime",
    "eval_dlog_q",
    "q_ode_residual",
    "integrate_q_ode",
    "guarded_samples",
]

KINDS = ("rational", "trig", "hyper")

# blow-up guard for the direct integrator: Q above this multiple of its first
# value (Q scales with a) means the pole was reached and the march is truncated
Q_BLOWUP = 1e6


class DomainError(DataError, ValueError):
    """s left the guarded domain of a branch."""


class ConsistencyError(DataError, RuntimeError):
    """An identity the input data must satisfy is violated beyond rounding: a
    profile identity (validate_profile), the two routes to the second form
    (fundamental_forms) or the RK4 cross-check of Q, which blew up.  The CLI
    exits 2 on it, as on any other bad input."""


@dataclass(frozen=True)
class QFamily:
    """One closed-form branch, selected by kind, sign and frequency a."""

    kind: str
    sign: int
    a: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {reprlib.repr(self.kind)}, expected one of {KINDS}")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if not (math.isfinite(self.a) and self.a > 0):
            raise ValueError("frequency a must be finite and positive")

    @property
    def kappa(self) -> float:
        """First-integral constant of (Q')^2 = Q^4 + kappa Q^2."""
        if self.kind == "rational":
            return 0.0
        if self.kind == "trig":
            return -self.a * self.a
        return self.a * self.a

    @property
    def length(self) -> float:
        """Natural length of s: 1/a, or 1 for rational, whose Q has no a."""
        return 1.0 if self.kind == "rational" else 1.0 / self.a

    def domain(self):
        """Open interval where the branch is positive and finite."""
        if self.kind == "trig":
            lo, hi = 0.0, math.pi / self.a
        else:
            lo, hi = 0.0, math.inf
        if self.sign == 1:
            return lo, hi
        return -hi, -lo

    def describe(self) -> str:
        a = self.a
        sgn = "+" if self.sign == 1 else "-"
        body = {
            "rational": f"{sgn}1/s",
            "trig": f"{sgn}{a:g}/sin({a:g} s)",
            "hyper": f"{sgn}{a:g}/sinh({a:g} s)",
        }[self.kind]
        lo, hi = self.domain()
        return f"Q = {body} on ({lo:g}, {hi:g})"


@dataclass(frozen=True)
class SingularityGuard:
    """Keeps evaluations away from the poles bounding a branch domain.

    The margin is 1e-3 of the domain length; half-lines use the family's
    natural length instead, and infinite endpoints need no margin.
    """

    family: QFamily

    def interval(self):
        lo, hi = self.family.domain()
        length = hi - lo
        m = 1e-3 * (length if math.isfinite(length) else self.family.length)
        glo = lo + m if math.isfinite(lo) else lo
        ghi = hi - m if math.isfinite(hi) else hi
        if not glo < ghi:
            raise ValueError(f"margin {m:g} leaves an empty guarded interval")
        return glo, ghi

    def check(self, s) -> None:
        s = np.asarray(s, dtype=float)
        glo, ghi = self.interval()
        outside = ~((s >= glo) & (s <= ghi))  # NaN is outside too
        if np.any(outside):
            bad = float(s.flat[int(np.argmax(outside))])
            raise DomainError(
                f"s = {bad:g} outside guarded domain [{glo:g}, {ghi:g}] "
                f"of {self.family.describe()}"
            )


def _checked(fam: QFamily, s):
    s = np.asarray(s, dtype=float)
    SingularityGuard(fam).check(s)
    return s


def eval_q(fam: QFamily, s):
    """Q(s) on the guarded domain; always positive there."""
    s = _checked(fam, s)
    if fam.kind == "rational":
        return fam.sign / s
    if fam.kind == "trig":
        return fam.sign * fam.a / np.sin(fam.a * s)
    return fam.sign * fam.a / np.sinh(fam.a * s)


def eval_q_derivatives(fam: QFamily, s):
    """(Q, Q', Q'') closed forms."""
    s = _checked(fam, s)
    sg, a = fam.sign, fam.a
    if fam.kind == "rational":
        return sg / s, -sg / s**2, 2.0 * sg / s**3
    if fam.kind == "trig":
        sn, cs = np.sin(a * s), np.cos(a * s)
        return sg * a / sn, -sg * a**2 * cs / sn**2, sg * a**3 * (1.0 + cs**2) / sn**3
    sh, ch = np.sinh(a * s), np.cosh(a * s)
    return sg * a / sh, -sg * a**2 * ch / sh**2, sg * a**3 * (1.0 + ch**2) / sh**3


def eval_dlog_q(fam: QFamily, s):
    """(log Q)' = Q'/Q."""
    q, qp, _ = eval_q_derivatives(fam, s)
    return qp / q


def eval_c(fam: QFamily, s):
    """C = (1/Q)': sign, sign*cos(as) or sign*cosh(as) by kind."""
    s = _checked(fam, s)
    if fam.kind == "rational":
        return np.full_like(s, float(fam.sign))
    if fam.kind == "trig":
        return fam.sign * np.cos(fam.a * s)
    return fam.sign * np.cosh(fam.a * s)


def eval_c_prime(fam: QFamily, s):
    """C' closed form (0, -sign*a*sin(as), or sign*a*sinh(as))."""
    s = _checked(fam, s)
    if fam.kind == "rational":
        return np.zeros_like(s)
    if fam.kind == "trig":
        return -fam.sign * fam.a * np.sin(fam.a * s)
    return fam.sign * fam.a * np.sinh(fam.a * s)


def q_ode_residual(fam: QFamily, s):
    """Q''Q - (Q')^2 - Q^4, identically zero for every branch."""
    q, qp, qpp = eval_q_derivatives(fam, s)
    return qpp * q - qp * qp - q**4


def guarded_samples(fam: QFamily, n: int = 200):
    """n uniform samples in the guarded domain.

    Half-line domains are sampled over five natural lengths from the
    finite endpoint, which covers the region where Q varies.
    """
    glo, ghi = SingularityGuard(fam).interval()
    if not math.isfinite(ghi - glo):
        span = 5.0 * fam.length
        if math.isfinite(glo):
            ghi = glo + span
        else:
            glo = ghi - span
    return np.linspace(glo, ghi, n)


@dataclass(frozen=True)
class QTrajectory:
    """RK4 samples of the direct initial-value integration of Q.

    truncated is set when the blow-up guard stopped the march early; the
    arrays then end at the last accepted step.
    """

    s: np.ndarray
    q: np.ndarray
    qp: np.ndarray
    kappa: float
    truncated: bool


def integrate_q_ode(q0: float, q0p: float, s0: float, s1: float, n: int) -> QTrajectory:
    """Integrate Q'' = 2 Q^3 + kappa Q with kappa fixed by the initial data,
    in n RK4 steps of (s1 - s0)/n.

    kappa = (q0p/q0)^2 - q0^2 rearranges the first integral.  This is
    the family-independent cross-check of the closed forms: starting
    from closed-form initial data the march must reproduce the branch.
    """
    if not (math.isfinite(q0) and q0 > 0):
        raise ValueError("initial Q must be positive and finite")
    if n < 1:
        raise ValueError("step count must be at least 1")
    if s1 == s0:
        raise ValueError("empty integration interval")

    kappa = float((q0p / q0) ** 2 - q0 * q0)
    h = (s1 - s0) / n

    ss = [s0]
    qs = [q0]
    qps = [q0p]
    y = [float(q0), float(q0p)]
    truncated = False
    for k in range(n):
        try:
            y = rk4_step(_q_rhs, y, h, kappa, kappa, kappa)
        except OverflowError:  # Q**3 of a float past the pole
            truncated = True
            break
        q, qp = y
        if not (math.isfinite(q) and math.isfinite(qp)) or abs(q) > Q_BLOWUP * q0:
            truncated = True
            break
        ss.append(s0 + (k + 1) * h)
        qs.append(q)
        qps.append(qp)
    return QTrajectory(
        np.array(ss), np.array(qs), np.array(qps), kappa, truncated
    )


def _q_rhs(kappa, y):
    q, qp = y
    return qp, 2.0 * q**3 + kappa * q
