"""The output writers reproduce the per-node reference loops byte for byte.

The reference functions below write one node (or one profile sample, one
vertex, one triangle) per Python call, as the package once did.  The
package formats a block of rows per call; every byte, line endings
included, must be equal.  psi.csv and profile.csv end their lines in
CRLF, as the csv module writes them; forms.csv and the OBJ meshes in LF.

The float encoder behind every writer is checked against "%.17g" itself:
on drawn values, on a table of the values whose text is easiest to get
wrong, and for its memory per block.  The integer encoder behind the OBJ
faces is checked against "%d" the same way.
"""
import csv
import dataclasses
import io
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bonnet.bonnet_solver import HInitialData, integrate_h, write_profile_csv
from bonnet.cli import _forms_csv
from bonnet.forms2d import ROWS_PER_WRITE, Grid, ScalarField, _write_rows, write_scalar_csv
from bonnet.lax_psi import PsiBranch, psi_field_from_branch
from bonnet.q_family import QFamily
from bonnet.surface_embed import build_coframes, export_obj, fundamental_forms, integrate_frame
from bonnet.text17 import _DIGITS4, _INT4, format_int_rows, format_rows

FAM = QFamily("rational", 1, 1.0)
ICS = HInitialData(1.0, 0.0, 1.0, 0.0, 1.0)
# 30 rows fit in one block; 4225 rows span two, the second one partial
SHAPES = ((5, 6), (65, 65))
# values whose 17-digit text is easy to get wrong
SPECIALS = (-0.0, 5e-324, -2.2250738585072014e-308, 1e300, -1e-300, 0.1, -1.0 / 3.0)


def _around(x):
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


# every power of ten 1e-8 ... 1e18 with both neighbours, which holds the
# edges 1e-6 and 1e17 of the encoder's fast range; exact ties at the 17th
# digit (a quarter past 16 integer digits, an eighth past 15: 1.25e15 is
# spaced by quarters, so its eighths are not doubles); zero, the smallest
# subnormal and the largest double
TIES = ([(1.25e15 + j / 4, Fraction(5 * 10 ** 15 + j, 4)) for j in range(1, 16, 2)]
        + [(1.25e14 + j / 8, Fraction(10 ** 15 + j, 8)) for j in range(1, 16, 2)])
EDGES = tuple(
    [float(v) for k in range(-8, 19) for v in _around(float(f"1e{k}"))]
    + [x for x, _ in TIES]
    + [0.0, -0.0, 5e-324, 1.7976931348623157e308]
)
SPIKES = np.array(SPECIALS + EDGES + tuple(-v for v in EDGES))


def spiked(values, start=0):
    """Copy of values with SPIKES, from SPIKES[start] on, over its first entries."""
    out = np.array(values, dtype=float)
    spikes = np.roll(SPIKES, -start)[:out.size]
    out.flat[:spikes.size] = spikes
    return out


def percent_rows(rows, sep, prefix):
    return "".join(prefix + sep.join("%.17g" % v for v in row) + "\n" for row in rows)


def ref_write_scalar_csv(f, path, value_name="value"):
    s, t = f.grid.s_nodes(), f.grid.t_nodes()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s", "t", value_name])
        for i in range(f.grid.ns):
            for j in range(f.grid.nt):
                writer.writerow(
                    [f"{s[i]:.17g}", f"{t[j]:.17g}", f"{f.values[i, j]:.17g}"]
                )


def ref_write_profile_csv(profile, path):
    cols = ("s", "H", "Hp", "J", "E", "A", "B", "C", "Q")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for i in range(profile.s.size):
            writer.writerow([f"{getattr(profile, c)[i]:.17g}" for c in cols])


def ref_forms_csv(path, ff):
    g = ff.grid
    s, t = g.s_nodes(), g.t_nodes()
    with open(path, "w", newline="") as fh:
        fh.write("s,t,E,L,M,N\n")
        for i in range(g.ns):
            for j in range(g.nt):
                fh.write(
                    f"{s[i]:.17g},{t[j]:.17g},{ff.gss.values[i, j]:.17g},"
                    f"{ff.L.values[i, j]:.17g},{ff.M.values[i, j]:.17g},"
                    f"{ff.N.values[i, j]:.17g}\n"
                )


def ref_export_obj(frame, path):
    ns, nt = frame.grid.shape
    lines = []
    for row in frame.x.reshape(-1, 3):
        lines.append(f"v {row[0]:.17g} {row[1]:.17g} {row[2]:.17g}")
    for i in range(ns - 1):
        base = i * nt
        for j in range(nt - 1):
            v00 = base + j + 1
            v01 = v00 + 1
            v10 = v00 + nt
            v11 = v10 + 1
            lines.append(f"f {v00} {v10} {v11}")
            lines.append(f"f {v00} {v11} {v01}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def surface(shape):
    grid = Grid(1.0, 2.0, 0.0, 1.0, *shape)
    psi = psi_field_from_branch(PsiBranch("rational_upper", FAM), grid)
    profile = integrate_h(ICS, FAM, grid)
    return grid, psi, profile


def assert_same_bytes(tmp_path, write, ref_write, crlf):
    new, old = tmp_path / "new", tmp_path / "ref"
    write(new)
    ref_write(old)
    data = new.read_bytes()
    assert data == old.read_bytes()
    lines = data.count(b"\n")
    assert data.count(b"\r\n") == (lines if crlf else 0)
    return lines


def test_blocks_cover_a_partial_block():
    rows = SHAPES[-1][0] * SHAPES[-1][1]
    assert ROWS_PER_WRITE < rows and rows % ROWS_PER_WRITE != 0
    assert SHAPES[0][0] * SHAPES[0][1] < ROWS_PER_WRITE


@pytest.mark.parametrize("shape", SHAPES)
def test_scalar_csv_matches_reference(tmp_path, shape):
    grid, psi, _ = surface(shape)
    f = ScalarField(grid, spiked(psi.values))
    lines = assert_same_bytes(tmp_path, lambda p: write_scalar_csv(f, p, "psi"),
                              lambda p: ref_write_scalar_csv(f, p, "psi"), crlf=True)
    assert lines == 1 + grid.ns * grid.nt


@pytest.mark.parametrize("shape", SHAPES)
def test_profile_csv_matches_reference(tmp_path, shape):
    # one profile sample per node of the 2-D grid, so both files have as
    # many rows as the node-wise ones
    _, _, profile = surface((shape[0] * shape[1], 5))
    lines = assert_same_bytes(tmp_path, lambda p: write_profile_csv(profile, p),
                              lambda p: ref_write_profile_csv(profile, p), crlf=True)
    assert lines == 1 + profile.s.size


@pytest.mark.parametrize("shape", SHAPES)
def test_forms_csv_matches_reference(tmp_path, shape):
    grid, psi, profile = surface(shape)
    forms = fundamental_forms(profile, psi)
    # each coefficient takes the next stretch of spikes, so a 5 x 6 grid
    # still writes every one of them
    forms = dataclasses.replace(forms, **{
        name: ScalarField(grid, spiked(getattr(forms, name).values, 30 * k))
        for k, name in enumerate(("gss", "L", "M", "N"))})
    lines = assert_same_bytes(tmp_path, lambda p: _forms_csv(p, forms),
                              lambda p: ref_forms_csv(p, forms), crlf=False)
    assert lines == 1 + shape[0] * shape[1]


@pytest.mark.parametrize("shape", SHAPES)
def test_obj_matches_reference(tmp_path, shape):
    _, psi, profile = surface(shape)
    frame = integrate_frame(build_coframes(profile, psi))
    frame = dataclasses.replace(frame, x=spiked(frame.x))
    ns, nt = shape
    lines = assert_same_bytes(tmp_path, lambda p: export_obj(frame, p),
                              lambda p: ref_export_obj(frame, p), crlf=False)
    assert lines == ns * nt + 2 * (ns - 1) * (nt - 1)


def test_spikes_hold_exact_ties_and_both_range_edges():
    for x, exact in TIES:
        assert Fraction(x) == exact
    for edge in (1e-6, 1e17):
        assert {np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)} <= set(EDGES)


@pytest.mark.parametrize("sep, prefix", [(",", ""), (" ", "v ")])
@pytest.mark.parametrize("ncols", range(1, 7))
def test_encoder_matches_percent_on_the_spikes(ncols, sep, prefix):
    rows = np.resize(SPIKES, (-(-SPIKES.size // ncols), ncols))
    assert format_rows(rows, sep, prefix).decode() == percent_rows(rows, sep, prefix)


ROWS = st.integers(1, 6).flatmap(lambda ncols: st.lists(
    st.lists(st.floats() | st.floats(-1e18, 1e18), min_size=ncols, max_size=ncols),
    min_size=1, max_size=30))


@settings(max_examples=300, deadline=None)
@given(ROWS, st.sampled_from([(",", ""), (" ", "v ")]))
def test_encoder_matches_percent_on_any_floats(rows, style):
    sep, prefix = style
    fh = io.StringIO()
    _write_rows(fh, np.array(rows, dtype=float), sep, prefix)
    assert fh.getvalue() == percent_rows(rows, sep, prefix)


def test_digit_table_spells_every_four_digit_chunk():
    spelled = _DIGITS4.view(np.uint8).reshape(5, 10000, 4)
    for i in range(10000):
        text = f"{i:04d}"
        for keep in range(5):
            expected = (text[:keep] + text[keep:].rstrip("0")).ljust(4, "\0")
            assert spelled[keep, i].tobytes() == expected.encode()


def percent_d_rows(rows, sep, prefix):
    return "".join(prefix + sep.join("%d" % v for v in row) + "\n" for row in rows)


# both edges of each four-digit chunk and of the table's range 0 <= x < 1e8,
# the largest OBJ index the size cap allows, and the ends of int64
INT_EDGES = (0, 1, 9, 10, 999, 1000, 9999, 10000, 10001, 99999, 100000, 1000000, 9999999,
             10000000, 12340567, 99999999, 10 ** 8, 10 ** 8 + 1, 2 ** 22, 2 ** 22 + 1, 2 ** 32,
             2 ** 63 - 1, -1, -9999, -10000, -10 ** 8, -2 ** 63)


@pytest.mark.parametrize("sep, prefix", [(",", ""), (" ", "f ")])
@pytest.mark.parametrize("ncols", range(1, 7))
def test_int_encoder_matches_percent_on_the_edges(ncols, sep, prefix):
    values = np.array(INT_EDGES, dtype=np.int64)
    for rows in (np.resize(values, (-(-values.size // ncols), ncols)),
                 np.resize(values[1:15], (ncols, ncols))):  # every value on the table
        assert format_int_rows(rows, sep, prefix).decode() == percent_d_rows(
            rows.tolist(), sep, prefix)


INT_ROWS = st.integers(1, 6).flatmap(lambda ncols: st.lists(
    st.lists(st.integers(-2 ** 63, 2 ** 63 - 1) | st.integers(0, 10 ** 8 + 1)
             | st.sampled_from(INT_EDGES), min_size=ncols, max_size=ncols),
    min_size=1, max_size=30))


@settings(max_examples=300, deadline=None)
@given(INT_ROWS, st.sampled_from([(",", ""), (" ", "f ")]))
def test_int_encoder_matches_percent_on_any_int64(rows, style):
    sep, prefix = style
    fh = io.StringIO()
    _write_rows(fh, np.array(rows, dtype=np.int64), sep, prefix)
    assert fh.getvalue() == percent_d_rows(rows, sep, prefix)


def test_int_table_spells_every_four_digit_chunk():
    spelled = _INT4.view(np.uint8).reshape(10000, 4)
    for i in range(10000):
        text = f"{i:04d}"
        lead = len(text) - len(text.lstrip("0"))  # all four of 0000
        assert spelled[i].tobytes() == ("\0" * lead + text[lead:]).encode()


def test_block_writer_memory_does_not_grow_with_the_file(tmp_path):
    rng = np.random.default_rng(0)
    peaks = []
    for n in (65, 505):
        rows = rng.standard_normal((n * n, 6)) * 10.0 ** rng.integers(-6, 17, (n * n, 6))
        rows[::97] = 0.0  # every block takes the fallback too
        with open(tmp_path / "rows.csv", "w") as fh:
            tracemalloc.start()  # numpy buffers are traced too
            try:
                _write_rows(fh, rows)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert max(peaks) <= 2_000_000
    assert max(peaks) <= 1.1 * min(peaks)
