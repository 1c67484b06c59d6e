"""Symplectic-leaf stratification data for the standard Poisson structure on
compact symmetric spaces, from Satake-diagram input, with an independent
numerical verification engine on SU(n)."""

__version__ = "0.1.0"

from .rootsys import RootSystem, WeylElement, build_root_system
from .satake import SatakeDiagram, RealFormData, real_form_data, builtin_catalog
from .atlas import AtlasReport, atlas

__all__ = [
    "RootSystem",
    "WeylElement",
    "build_root_system",
    "SatakeDiagram",
    "RealFormData",
    "real_form_data",
    "builtin_catalog",
    "AtlasReport",
    "atlas",
    "__version__",
]
