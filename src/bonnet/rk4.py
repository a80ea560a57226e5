"""The classical fourth-order Runge-Kutta step shared by every march.

Each right-hand side in the package splits into coefficients that depend
only on the abscissa (Q and (log Q)' for the profile, Q and psi marches,
the interpolated alpha coefficients for the tau march) and the state.
The marches evaluate those coefficients for every stage up front, in one
call per march or per cell, so the step takes them as arguments instead
of recomputing them (and re-checking the Q domain guard) at each stage.
"""

from __future__ import annotations

__all__ = ["rk4_step"]


def rk4_step(rhs, y, h, c_start, c_mid, c_end):
    """One RK4 step of y' = rhs(c, y) over h; returns the new state as a list.

    y is a sequence of state components, each a float or an array, and
    rhs returns the derivative components in the same order.  c_start,
    c_mid and c_end are the abscissa-only coefficients at the start, the
    midpoint (shared by the two middle stages) and the end of the step.
    """
    half = 0.5 * h
    k1 = rhs(c_start, y)
    k2 = rhs(c_mid, [a + half * b for a, b in zip(y, k1)])
    k3 = rhs(c_mid, [a + half * b for a, b in zip(y, k2)])
    k4 = rhs(c_end, [a + h * b for a, b in zip(y, k3)])
    sixth = h / 6.0
    return [
        a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
    ]
