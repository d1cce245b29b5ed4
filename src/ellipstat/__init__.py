"""Generalized ellipsoids and the elliptical geometry of linear models.

The package is organized around one geometric object, the generalized
ellipsoid (center + orthogonal frame + radii in [0, inf]), and the
statistical constructions that live on it: data and confidence
ellipsoids, hypothesis-error summaries for multivariate models,
canonical discriminant projections, and the kissing-ellipsoid family of
shrinkage estimators (ridge, Bayes, BLUP, multivariate meta-analysis).
Figures are emitted as deterministic SVG.

Importing the package loads none of its modules: each module, and each
name re-exported from one, is imported on first use (PEP 562), so a cold
`ellip` process loads only what its subcommand runs.
"""

import importlib

__version__ = "0.1.0"

_MODULES = ("cli", "datasets", "distributions", "gellipsoid", "kissing",
            "linmod", "mlm", "numkernel", "render", "statellipse")
_REEXPORTS = {
    "gellipsoid": ("GEllipsoid", "Signature", "conjugate_axes", "dual",
                   "from_generator", "from_moment", "from_precision",
                   "linear_image", "project", "signature", "volume"),
    "statellipse": ("GroupedSample", "Sample", "coverage_radius",
                    "data_ellipsoid", "marginal_decomposition", "mean_cov",
                    "pooled_within_cov"),
}
_SOURCE = {name: module for module, names in _REEXPORTS.items()
           for name in names}

__all__ = [*_MODULES, *_SOURCE]


def __getattr__(name):
    if name in _MODULES:
        # importing a submodule binds it in the package's namespace
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"),
                    name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
