"""Shared fixtures: the demo surface (rational family, unit square window).

The heavy objects (profile, frames, refinement stacks) are built once per
session; every test that needs the demo configuration shares them.
"""
import json
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from bonnet.cli import PipelineData, load_config
from bonnet.forms2d import Grid
from bonnet.q_family import QFamily
from bonnet.lax_psi import PsiBranch, psi_field_from_branch
from bonnet.bonnet_solver import HInitialData, integrate_h
from bonnet.surface_embed import (
    FrameField,
    _components,
    _frame_moves,
    build_coframes,
    fundamental_forms,
    integrate_frame,
)

ROOT = Path(__file__).resolve().parents[1]
DEMO_ICS = dict(s0=1.0, H0=0.0, H0p=1.0, H0pp=0.0, tau_c=1.0)

DEMO_CONFIG = {
    "family": {"kind": "rational", "sign": 1, "a": 1.0},
    "psi": {"case": "rational_upper", "sigma": 0.0},
    "h_initial": DEMO_ICS,
    "grid": {"s_min": 1.0, "s_max": 2.0, "t_min": 0.0, "t_max": 1.0, "ns": 64, "nt": 64},
    "profile_substeps": 8,
    "t0": 1.0,
    "refine_levels": 3,
}


@pytest.fixture(scope="session")
def demo_family():
    return QFamily("rational", 1, 1.0)


@pytest.fixture(scope="session")
def demo_branch(demo_family):
    return PsiBranch("rational_upper", demo_family, sigma=0.0)


@pytest.fixture(scope="session")
def demo_grid():
    return Grid(1.0, 2.0, 0.0, 1.0, 64, 64)


@pytest.fixture(scope="session")
def demo_ics():
    return HInitialData(**DEMO_ICS)


@pytest.fixture(scope="session")
def demo_psi(demo_branch, demo_grid):
    return psi_field_from_branch(demo_branch, demo_grid)


@pytest.fixture(scope="session")
def demo_profile(demo_ics, demo_family, demo_grid):
    return integrate_h(demo_ics, demo_family, demo_grid, substeps=8)


@pytest.fixture(scope="session")
def demo_coframes(demo_profile, demo_psi):
    return build_coframes(demo_profile, demo_psi)


@pytest.fixture(scope="session")
def demo_frame(demo_coframes):
    return integrate_frame(demo_coframes)


@pytest.fixture(scope="session")
def demo_forms(demo_profile, demo_psi):
    return fundamental_forms(demo_profile, demo_psi)


@pytest.fixture(scope="session")
def level_stack(demo_ics, demo_family, demo_branch, demo_grid):
    """Three refinement levels of the demo surface: grid, psi, profile, coframes."""
    levels = []
    for k in range(3):
        grid = demo_grid.refined(2 ** k)
        psi = psi_field_from_branch(demo_branch, grid)
        profile = integrate_h(demo_ics, demo_family, grid, substeps=8)
        cf = build_coframes(profile, psi)
        levels.append((grid, psi, profile, cf))
    return levels


@pytest.fixture()
def demo_config_file(tmp_path):
    path = tmp_path / "demo.json"
    path.write_text(json.dumps(DEMO_CONFIG, indent=2))
    return path


@cache
def coframes_at(config: str, ns: int):
    """The coframe set of a shipped config (a path from the repository root) on
    its window at ns x ns."""
    cfg = load_config(ROOT / config)
    g = cfg.grid
    return PipelineData(cfg, Grid(g.s_min, g.s_max, g.t_min, g.t_max, ns, ns)).cf


def s_first_march(w1, w2, w12, profile) -> FrameField:
    """The s-first frame march of (w1, w2, w12), the one `two_path_residual`
    compares, stored over the grid."""
    grid = w1.grid
    x = np.empty(grid.shape + (3,))
    E = np.empty(grid.shape + (3, 3))
    for node, (xn, En) in _frame_moves(grid, profile, _components(w12, w1, w2), s_first=True):
        x[node], E[node] = xn, En
    return FrameField(grid, x, E)
