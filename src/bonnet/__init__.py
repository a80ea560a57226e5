"""Bonnet surfaces from closed-form data, with every identity checked.

The pipeline: pick a closed-form branch of Q(s) (q_family), the
matching rotation angle psi(s, t) of the compatible first-order pair
(lax_psi), integrate the mean-curvature profile H(s) (bonnet_solver),
assemble coframes and integrate the moving frame to an immersion, then
rotate the coframe through tau(s, t) to produce the isometric,
mean-curvature-preserving companions (surface_embed).  forms2d supplies
the grid calculus that turns each identity into a measurable residual.
Every error the pipeline raises on data it cannot take is a DataError.
"""

from .bonnet_solver import HInitialData, SurfaceProfile, integrate_h
from .forms2d import DataError, Grid, OneForm, ScalarField, observed_order
from .lax_psi import PsiBranch, integrate_lax, psi_field_from_branch
from .q_family import QFamily, SingularityGuard
from .surface_embed import (
    FrameField,
    Forms,
    build_coframes,
    build_deformed_surface,
    fundamental_forms,
    integrate_deformation,
    integrate_frame,
)

__version__ = "0.1.0"

__all__ = [
    "Grid",
    "ScalarField",
    "OneForm",
    "observed_order",
    "DataError",
    "QFamily",
    "SingularityGuard",
    "PsiBranch",
    "psi_field_from_branch",
    "integrate_lax",
    "HInitialData",
    "SurfaceProfile",
    "integrate_h",
    "FrameField",
    "Forms",
    "build_coframes",
    "integrate_frame",
    "fundamental_forms",
    "integrate_deformation",
    "build_deformed_surface",
    "__version__",
]
