"""Eyring-Kramers predictions and cross-validation for Witten Laplacians
of confining Morse-Bott potentials.

The exported names are resolved on first use (PEP 562): `import metastab`
imports no submodule, and so no scipy, until a name is read.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "potential": ("Potential", "parse_potential", "check_confinement"),
    "manifolds": ("CriticalManifold", "manifold_point", "manifold_sphere",
                  "manifold_parametrized", "verify_critical",
                  "classify_index", "negative_direction_field"),
    "sublevel": ("sample_grid", "components", "classify_separating"),
    "labeling": ("run_labeling", "check_generic", "SaddleRecord"),
    "kramers": ("prefactor", "radial_predict", "predict_all"),
    "spectral": ("assemble_witten", "assemble_radial", "smallest_eigs",
                 "count_small"),
    "quasimodes": ("agmon_distance", "build_gluing", "build_psi",
                   "rayleigh"),
    "sde": ("LangevinConfig", "simulate_exit", "arrhenius_fit"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
