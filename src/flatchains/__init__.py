"""Exact computation with chains mod p on finite cell complexes.

Masses and flat norms with provably optimal witnesses, slicing and
restriction calculus on box chains, grid deformation with certified
homotopy identities, cycle extraction from curve systems, and the cone
construction on simplicial chains, plus a file format and CLI tying it
together.

Each public name below, apart from those of `base`, is imported from its
module on first access, so importing the package (or the CLI) does not
load modules a caller never uses.  `cli` and `boxes` bind this same
resolver as their own `__getattr__`, so every public name also reads as
an attribute of those two modules.  The function `cone` shares its
module's name, and importing `flatchains.cone` makes Python bind the
package attribute to the module; the package's module class turns that
binding into the function.
"""

import sys as _sys
from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

from .base import (FillInfeasibleError, InternalDefectError, PreconditionError,
                   as_fraction, canonical_residue, norm_mod_p)

__version__ = "0.1.0"

# defining module -> the public names loaded from it on first access
_LAZY_MODULES = {
    "arrangement": ("arrangement_complex", "compile_chain"),
    "boxes": ("BoxCell", "BoxChain"),
    "boxgrid": ("grid_chain",),
    "boxmass": ("slice_mass_integral", "slice_mass_star"),
    "cone": ("ConeMassReport", "Simplex", "SimplicialChain", "boundary_simplicial", "cone",
             "cone_mass_report"),
    "core": ("CellularMap", "Complex", "IntChain", "ModPChain", "ValidationReport", "mass_p",
             "push_forward", "validate_complex"),
    "curves": ("CurveItem", "CurvePath", "CurveSystem", "PreprocessTrace",
               "cycle_representative", "decompose_paths_loops",
               "extract_cycle_indices", "preprocess", "system_boundary"),
    "fileio": ("ChainFile", "ParseError", "format_number", "load_chainfile",
               "parse_chainfile", "save_chainfile", "serialize_chainfile"),
    "flatnorm": ("FlatWitness", "fill_mod_p", "flat_norm_int", "flat_norm_mod_p",
                 "flat_norm_under_refinement", "isoperimetric_ratio"),
    "rounding": ("DeformationResult", "deform"),
}
_LAZY = {name: module for module, names in _LAZY_MODULES.items() for name in names}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    # `cli` and `boxes` resolve through this function too: a name read
    # there, while patched on its module, must not rebind the package's
    globals().setdefault(name, value)
    return value


def __dir__() -> list:
    return sorted({*globals(), *_LAZY})


class _Package(_ModuleType):
    def __setattr__(self, name, value):
        # the import system binds a loaded submodule as a package attribute
        if name == "cone" and isinstance(value, _ModuleType):
            value = value.cone
        super().__setattr__(name, value)


_sys.modules[__name__].__class__ = _Package


# the public names: those imported from base above, and the lazy ones
__all__ = sorted({*_LAZY, *(name for name, value in globals().items()
                            if getattr(value, "__module__", None) == f"{__name__}.base")})
