"""The classical fourth-order Runge-Kutta step and the grid sweep shared by every march.

Each right-hand side in the package splits into coefficients that depend
only on the abscissa (Q and (log Q)' for the profile, Q and psi marches,
alpha at a cell's two nodes and their mean at its midpoint for the tau
march, one step per cell) and the state.  The marches evaluate those
coefficients for every stage up front, in one call per march or per cell,
so the step takes them as arguments instead of recomputing them (and
re-checking the Q domain guard) at each stage.

The psi pair, the frame structure equations and d(cot tau) are
integrable systems, so the path a march takes matters only to its FD
accuracy, and every march takes one path from the corner node: along
the t-edge, then across every s-line at once.  `sweep` walks that path
and hands over each state it makes; the march supplies one step.  The
one other path, s-edge then t-lines, is the same walk of the transposed
grid (`surface_embed.two_path_residual` compares the two).
"""

from __future__ import annotations

import numpy as np

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


def sweep(shape, start, step):
    """Yield (node, state) over the (ns, nt) grid `shape`, from `start` at (0, 0).

    The walk goes along the t-edge (s index 0) node by node, then across
    every s-line at once.  Each move calls step(axis, src, dst, state):
    axis is 1 for a step in t and 0 for a step in s, src and dst are the
    numpy indices of the node or line moved from and to ((0, k) or
    (k, slice)), and state holds each component at src.  step returns
    them at dst, and each is yielded at once: the caller stores or
    reduces it, and the sweep holds the edge and one line, no grid.
    """
    yield (0, 0), start
    nodes = [start]
    state = start
    for k in range(shape[1] - 1):
        state = step(1, (0, k), (0, k + 1), state)
        yield (0, k + 1), state
        nodes.append(state)
    # the lines start from the edge's nodes
    state = [np.stack(c) for c in zip(*nodes)]
    for k in range(shape[0] - 1):
        state = step(0, (k, slice(None)), (k + 1, slice(None)), state)
        yield (k + 1, slice(None)), state
