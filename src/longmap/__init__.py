"""Quandle colorings of 1-tangles and the longitudinal mapping over SU(2)."""

from .quaternions import Quaternion, rotate
from .quandles import (
    SphereQuandle,
    ConjClassQuandle,
    DihedralQuandle,
    GAlexQuandle,
    EisQuandle,
    iso_sphere_to_conj,
    eis_to_galex,
    axiom_check,
)
from .tangles import WirtingerCode, TangleDiagram, torus2n, fig8, longitude_word
from .colorings import (
    Coloring,
    star_polygon,
    star_beta,
    torus_interval,
    torus_theta_interval,
    fig8_betas,
    fig8_coloring,
    solve_colorings,
    fox_colorings,
    rotate_coloring,
    reflect_coloring,
    residual,
)
from .longitudes import (
    LongitudeValue,
    eval_word,
    galex_lift,
    t2n_closed_form,
    fig8_closed_form,
    qn_check,
)

__version__ = "0.1.0"
