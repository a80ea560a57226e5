"""The frame checks reduce over blocks of rows to the whole-array values.

`two_path_residual` takes its max one line of the s-first march at a
time, and `FrameField.orthonormality_error` and
`FrameField.min_handedness` take their max or min one block of
`surface_embed._BLOCK_ROWS` grid rows at a time.  The reference functions
below are the whole-array expressions they replace, word for word; the
block results must equal them exactly, on the base frame and on the
companion at t0 = 1, on grids whose row count is below, at, one past and
not a multiple of the block size.  A NaN or inf planted in the last block
must reach the result and fail the check rows (an inf frame entry makes
the handedness NaN), and no reduction may hold a grid-sized temporary.
"""
import json
import tracemalloc

import numpy as np
import pytest

from bonnet import cli
from bonnet import surface_embed as se
from bonnet.bonnet_solver import HInitialData, integrate_h
from bonnet.forms2d import Grid
from bonnet.lax_psi import PsiBranch, psi_field_from_branch
from bonnet.q_family import QFamily
from bonnet.surface_embed import FrameField, integrate_frame
from conftest import s_first_march

B = se._BLOCK_ROWS
# (family, psi branch, s-window)
CASES = {
    "rational_plus": (QFamily("rational", 1, 1.0), dict(case="rational_upper"), (1.0, 2.0)),
    "trig_minus": (QFamily("trig", -1, 1.0), dict(case="trig_appendix", eta=0.3), (-2.0, -1.0)),
}
# rows below, at, one past and not a multiple of the block size; ns != nt
SHAPES = ((B // 2 + 1, 9), (B, 24), (B + 1, 40), (2 * B + 11, 13))


# ---------------------------------------------------------------------------
# the whole-array expressions


def ref_two_path_residual(cf, frame):
    other = s_first_march(cf.omega1, cf.omega2, cf.omega12, cf.profile)
    return max(
        float(np.max(np.abs(frame.x - other.x))),
        float(np.max(np.abs(frame.frames - other.frames))),
    )


def ref_orthonormality_error(frame):
    gram = frame.frames @ np.ascontiguousarray(np.swapaxes(frame.frames, -1, -2))
    return float(np.max(np.abs(gram - np.eye(3))))


def ref_min_handedness(frame):
    det = np.linalg.det(frame.frames)
    return float(np.min(np.where(np.isinf(det), np.nan, det)))


# ---------------------------------------------------------------------------
# the surfaces


def build(name, shape):
    """(profile, coframes, base frame, deformed frame at t0 = 1) of one case."""
    fam, branch, (s_min, s_max) = CASES[name]
    grid = Grid(s_min, s_max, 0.0, 1.0, *shape)
    psi = psi_field_from_branch(PsiBranch(family=fam, **branch), grid)
    ics = HInitialData(s0=s_min, H0=0.0, H0p=1.0, H0pp=0.0, tau_c=1.0)
    profile = integrate_h(ics, fam, grid, substeps=8)
    cf = se.build_coframes(profile, psi)
    deformed = se.build_deformed_surface(cf, se.integrate_deformation(cf, 1.0))
    return profile, cf, integrate_frame(cf), deformed


@pytest.fixture(scope="module", params=[(c, s) for c in CASES for s in SHAPES],
                ids=lambda p: f"{p[0]}-{p[1][0]}x{p[1][1]}")
def surface(request):
    return build(*request.param)


def test_block_reductions_equal_the_whole_array_ones(surface):
    profile, cf, frame, deformed = surface
    assert frame.grid.ns != frame.grid.nt
    for surf in (frame, deformed):
        assert surf.orthonormality_error() == ref_orthonormality_error(surf)
        assert surf.min_handedness() == ref_min_handedness(surf)
    res = se.two_path_residual(cf, frame)
    assert res == ref_two_path_residual(cf, frame)
    assert 0.0 < res < 1e-2


# ---------------------------------------------------------------------------
# a non-finite frame


def planted(frame, where, bad):
    """A copy of `frame` with `bad` at one node of the last block of x and/or frames."""
    x, frames = np.array(frame.x), np.array(frame.frames)
    i, j = frame.grid.ns - 1, frame.grid.nt // 2
    if where in ("x", "both"):
        x[i, j, 1] = bad
    if where in ("frames", "both"):
        frames[i, j, 1, 1] = bad
    return FrameField(frame.grid, x, frames)


def same(value, ref):
    return value == ref or (np.isnan(value) and np.isnan(ref))


@pytest.fixture(scope="module")
def level(tmp_path_factory):
    """A demo pipeline level of 2 B + 11 rows, its frame marched."""
    data = {
        "family": {"kind": "rational", "sign": 1, "a": 1.0},
        "psi": {"case": "rational_upper", "sigma": 0.0},
        "h_initial": {"s0": 1.0, "H0": 0.0, "H0p": 1.0, "H0pp": 0.0, "tau_c": 1.0},
        "grid": {"s_min": 1.0, "s_max": 2.0, "t_min": 0.0, "t_max": 1.0,
                 "ns": 2 * B + 11, "nt": 13},
        "t0": 1.0,
    }
    path = tmp_path_factory.mktemp("cfg") / "cfg.json"
    path.write_text(json.dumps(data))
    cfg = cli.load_config(path)
    pipeline = cli.PipelineData(cfg, cfg.grid)
    pipeline.frame  # noqa: B018 - march once, before any copy is planted
    return cfg, pipeline


def passes(cfg, pipeline, name) -> bool:
    row = next(r for r in cli.CHECKS if r.name == name)
    value, scale, details = pipeline.evaluate(row)
    return cli._judge(cfg, row, [value], scale, details, [cfg.grid.h_max])["passed"]


@pytest.mark.parametrize("where", ["x", "frames", "both"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_node_in_the_last_block_fails_the_frame_rows(level, where, bad):
    cfg, pipeline = level
    clean = pipeline.__dict__["frame"]
    assert all(passes(cfg, pipeline, n)
               for n in ("frame.two_path", "frame.orthonormality", "frame.handedness"))
    frame = planted(clean, where, bad)
    pipeline.__dict__["frame"] = frame
    try:
        with np.errstate(invalid="ignore"):
            two_path = se.two_path_residual(pipeline.cf, frame)
            ortho, hand = frame.orthonormality_error(), frame.min_handedness()
            assert same(ortho, ref_orthonormality_error(frame))
            assert same(hand, ref_min_handedness(frame))
            # the builtin max of the whole-array route loses a NaN of frames behind a
            # finite x; the block route keeps it
            assert np.isnan(two_path) if np.isnan(bad) else two_path == np.inf
            assert not passes(cfg, pipeline, "frame.two_path")
            if where != "x":
                assert not np.isfinite(ortho) and np.isnan(hand)
                assert not passes(cfg, pipeline, "frame.orthonormality")
                # an inf entry gives a +inf det, which the min would pass over
                assert not passes(cfg, pipeline, "frame.handedness")
                if np.isnan(bad):
                    assert np.isnan(ortho)
            else:
                assert ortho == clean.orthonormality_error()
                assert hand == clean.min_handedness()
    finally:
        pipeline.__dict__["frame"] = clean


# ---------------------------------------------------------------------------
# memory


def traced_peak(fn):
    """(result, bytes fn held at its peak above what was allocated before it)."""
    tracemalloc.start()  # numpy buffers are traced too
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture(scope="module")
def fine():
    """The demo rational surface on a 129 x 129 grid."""
    profile, cf, frame, _ = build("rational_plus", (129, 129))
    return profile, cf, frame


def test_frame_reductions_hold_no_grid_sized_temporary(fine):
    profile, cf, frame = fine
    nt = frame.grid.nt
    block = B * nt * 9 * 8  # bytes of one block of frames
    grid_frames = frame.frames.nbytes
    assert grid_frames >= 4 * block

    # two_path: the s-first march is compared a line at a time and not stored
    other, march = traced_peak(
        lambda: s_first_march(cf.omega1, cf.omega2, cf.omega12, cf.profile))
    assert march >= other.x.nbytes + other.frames.nbytes
    del other
    _, peak = traced_peak(lambda: se.two_path_residual(cf, frame))
    assert peak <= 2 * block < march

    # orthonormality and handedness: a few blocks, whatever ns is
    tall = FrameField(Grid(1.0, 3.0, 0.0, 1.0, 2 * frame.grid.ns, nt),
                      np.concatenate([frame.x, frame.x]),
                      np.concatenate([frame.frames, frame.frames]))
    for surf in (frame, tall):
        _, peak = traced_peak(surf.orthonormality_error)
        assert peak <= 4 * block
        _, peak = traced_peak(surf.min_handedness)
        assert peak <= 2 * B * nt * 8 + 4096  # a block of dets
