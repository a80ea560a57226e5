"""The output writers reproduce the per-node reference loops byte for byte.

The reference functions below write one node (or one profile sample, one
vertex, one triangle) per Python call, as the package once did.  The
package formats a block of rows per call; every byte, line endings
included, must be equal.  psi.csv and profile.csv end their lines in
CRLF, as the csv module writes them; forms.csv and the OBJ meshes in LF.
"""
import csv

import pytest

from bonnet.bonnet_solver import HInitialData, integrate_h_on_grid, write_profile_csv
from bonnet.cli import _forms_csv
from bonnet.forms2d import ROWS_PER_WRITE, Grid, ScalarField, write_scalar_csv
from bonnet.lax_psi import PsiBranch, psi_field_from_branch
from bonnet.q_family import QFamily
from bonnet.surface_embed import export_obj, fundamental_forms, integrate_frame

FAM = QFamily("rational", 1, 1.0)
ICS = HInitialData(1.0, 0.0, 1.0, 0.0, 1.0)
# 30 rows fit in one block; 4225 rows span two, the second one partial
SHAPES = ((5, 6), (65, 65))
# values whose 17-digit text is easy to get wrong
SPECIALS = (-0.0, 5e-324, -2.2250738585072014e-308, 1e300, -1e-300, 0.1, -1.0 / 3.0)


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
                    f"{s[i]:.17g},{t[j]:.17g},{ff.E.values[i, j]:.17g},"
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
    profile = integrate_h_on_grid(ICS, FAM, grid)
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
    values = psi.psi.values.copy()
    values.flat[:len(SPECIALS)] = SPECIALS
    f = ScalarField(grid, values)
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
    _, psi, profile = surface(shape)
    forms = fundamental_forms(profile, psi)
    lines = assert_same_bytes(tmp_path, lambda p: _forms_csv(p, forms),
                              lambda p: ref_forms_csv(p, forms), crlf=False)
    assert lines == 1 + shape[0] * shape[1]


@pytest.mark.parametrize("shape", SHAPES)
def test_obj_matches_reference(tmp_path, shape):
    _, psi, profile = surface(shape)
    frame = integrate_frame(profile, psi)
    ns, nt = shape
    lines = assert_same_bytes(tmp_path, lambda p: export_obj(frame, p),
                              lambda p: ref_export_obj(frame, p), crlf=False)
    assert lines == ns * nt + 2 * (ns - 1) * (nt - 1)
