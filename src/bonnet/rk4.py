"""The classical fourth-order Runge-Kutta step and the grid sweep shared by every march.

Each right-hand side in the package splits into coefficients that depend
only on the abscissa (Q and (log Q)' for the profile, Q and psi marches,
alpha at a cell's two nodes and their mean at its midpoint for the tau
march, one step per cell) and the state.  The marches evaluate those
coefficients for every stage up front, in one call per march or per cell,
so the step takes them as arguments instead of recomputing them (and
re-checking the Q domain guard) at each stage.

The psi pair, the frame structure equations and d(cot tau) are
integrable systems, so each is marched the same way from the corner
node: along one edge of the grid, then across every line at once.
`sweep` walks that path for either order and hands over each state it
makes; the march supplies one step, and may precompute its edge steps
from `sweep_edge`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["rk4_step", "sweep", "sweep_edge"]


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


def sweep_edge(order):
    """(axis, index) of the edge `sweep` walks first in `order`.

    "t_first" walks along t (axis 1) on the row at s index 0, "s_first"
    along s (axis 0) on the column at t index 0; index picks that line
    out of an (ns, nt) array.
    """
    if order not in ("t_first", "s_first"):
        raise ValueError("order must be 't_first' or 's_first'")
    return (1, (0, slice(None))) if order == "t_first" else (0, (slice(None), 0))


def sweep(order, shape, start, step):
    """Yield (node, state) over the (ns, nt) grid `shape`, from `start` at (0, 0).

    order "t_first" walks the t-edge (s index 0) node by node, then every
    s-line at once; "s_first" walks the s-edge, then every t-line.  Each
    move calls step(axis, src, dst, state): axis is 0 for a step in s and
    1 for a step in t, src and dst are the numpy indices of the node or
    line moved from and to ((0, k), (k, 0), (k, slice), (slice, k)), and
    state holds each component at src.  step returns them at dst, and
    each is yielded at once: the caller stores or reduces it, and the
    sweep holds the edge and one line, no grid.
    """
    edge, _ = sweep_edge(order)
    yield (0, 0), start
    nodes = [start]
    for axis, across in ((edge, 0), (1 - edge, slice(None))):
        # the lines start from the edge's nodes
        state = start if axis == edge else [np.stack(c) for c in zip(*nodes)]
        for k in range(shape[axis] - 1):
            if axis == 0:
                src, dst = (k, across), (k + 1, across)
            else:
                src, dst = (across, k), (across, k + 1)
            state = step(axis, src, dst, state)
            yield dst, state
            if axis == edge:
                nodes.append(state)
