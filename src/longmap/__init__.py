"""Quandle colorings of 1-tangles and the longitudinal mapping over SU(2).

The package's names are imported from their modules on first use (PEP 562),
so ``import longmap`` imports no numpy; ``longmap.cli`` relies on this.
"""

import importlib

_EXPORTS = {
    "scalar": ("Quaternion", "star_beta", "fig8_betas", "LongitudeValue",
               "t2n_closed_form", "fig8_closed_form"),
    "quaternions": ("rotate",),
    "quandles": ("SphereQuandle", "ConjClassQuandle", "DihedralQuandle",
                 "GAlexQuandle", "EisQuandle", "iso_sphere_to_conj",
                 "eis_to_galex", "axiom_check"),
    "tangles": ("WirtingerCode", "TangleDiagram", "torus2n", "fig8",
                "longitude_word", "torus_interval", "torus_theta_interval"),
    "colorings": ("Coloring", "star_polygon", "fig8_coloring",
                  "solve_colorings", "fox_colorings", "rotate_coloring",
                  "reflect_coloring", "residual"),
    "longitudes": ("eval_word", "galex_lift", "qn_check"),
}
_MODULES = (*_EXPORTS, "errors", "verification")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    # the value is cached in the module's globals, so this runs once a name
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__),
                        name)
    elif name in _MODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_MODULES})
