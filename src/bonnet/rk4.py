"""The classical fourth-order Runge-Kutta step and the grid sweep shared by every march.

Each right-hand side in the package splits into coefficients that depend
only on the abscissa (Q and (log Q)' for the profile, Q and psi marches,
the interpolated alpha coefficients for the tau march) and the state.
The marches evaluate those coefficients for every stage up front, in one
call per march or per cell, so the step takes them as arguments instead
of recomputing them (and re-checking the Q domain guard) at each stage.

The psi pair, the frame structure equations and d(cot tau) are
integrable systems, so each is marched the same way from the corner
node: along one edge of the grid, then across every line at once.
`sweep` walks that path for either order; the march supplies one step.
"""

from __future__ import annotations

__all__ = ["rk4_step", "sweep"]


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


def sweep(order, fields, step):
    """Fill `fields` (arrays over the (ns, nt) grid) from their corner node (0, 0).

    order "t_first" walks the t-edge (s index 0) node by node, then every
    s-line at once; "s_first" walks the s-edge, then every t-line.  Each
    move calls step(axis, src, dst, state): axis is 0 for a step in s and
    1 for a step in t, src and dst are the numpy indices of the node or
    line moved from and to ((0, k), (k, 0), (k, slice), (slice, k)), and
    state holds each field at src.  step returns each field at dst.
    """
    if order not in ("t_first", "s_first"):
        raise ValueError("order must be 't_first' or 's_first'")
    edge = 1 if order == "t_first" else 0
    for axis, across in ((edge, 0), (1 - edge, slice(None))):
        for k in range(fields[0].shape[axis] - 1):
            if axis == 0:
                src, dst = (k, across), (k + 1, across)
            else:
                src, dst = (across, k), (across, k + 1)
            for f, value in zip(fields, step(axis, src, dst, [f[src] for f in fields])):
                f[dst] = value
