"""Exact computation with chains mod p on finite cell complexes.

Masses and flat norms with provably optimal witnesses, slicing and
restriction calculus on box chains, grid deformation with certified
homotopy identities, cycle extraction from curve systems, and the cone
construction on simplicial chains, plus a file format and CLI tying it
together.

Each public name below, apart from those of `core`, is imported from its
module on first access, so importing the package (or the CLI) does not
load modules a caller never uses.  The function `cone` shares its
module's name, and importing `flatchains.cone` makes Python bind the
package attribute to the module; the package's module class turns that
binding into the function.
"""

import sys as _sys
from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

from .core import (CellularMap, Complex, FillInfeasibleError, IntChain,
                   InternalDefectError, ModPChain, PreconditionError,
                   ValidationReport, as_fraction, canonical_residue, mass_p,
                   norm_mod_p, push_forward, validate_complex)

__version__ = "0.1.0"

# defining module -> the public names loaded from it on first access
_LAZY_MODULES = {
    "boxes": ("BoxCell", "BoxChain", "DeformationResult", "arrangement_complex",
              "compile_chain", "deform", "grid_chain", "slice_mass_integral",
              "slice_mass_star"),
    "cone": ("ConeMassReport", "Simplex", "SimplicialChain", "boundary_simplicial", "cone",
             "cone_mass_report"),
    "curves": ("CurveItem", "CurvePath", "CurveSystem", "PreprocessTrace",
               "cycle_representative", "decompose_paths_loops",
               "extract_cycle_indices", "preprocess", "system_boundary"),
    "fileio": ("ChainFile", "ParseError", "format_number", "load_chainfile",
               "parse_chainfile", "save_chainfile", "serialize_chainfile"),
    "flatnorm": ("FlatWitness", "fill_mod_p", "flat_norm_int", "flat_norm_mod_p",
                 "flat_norm_under_refinement", "isoperimetric_ratio"),
}
_LAZY = {name: module for module, names in _LAZY_MODULES.items() for name in names}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
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


__all__ = [
    "BoxCell", "BoxChain", "CellularMap", "ChainFile", "Complex",
    "ConeMassReport", "CurveItem", "CurvePath", "CurveSystem",
    "DeformationResult", "FillInfeasibleError", "FlatWitness", "IntChain",
    "InternalDefectError", "ModPChain", "ParseError", "PreconditionError",
    "PreprocessTrace", "Simplex", "SimplicialChain", "ValidationReport",
    "arrangement_complex", "as_fraction", "boundary_simplicial",
    "canonical_residue", "compile_chain", "cone", "cone_mass_report",
    "cycle_representative", "decompose_paths_loops", "deform",
    "extract_cycle_indices", "fill_mod_p", "flat_norm_int",
    "flat_norm_mod_p", "flat_norm_under_refinement",
    "format_number", "grid_chain", "isoperimetric_ratio",
    "load_chainfile", "mass_p", "norm_mod_p", "parse_chainfile",
    "preprocess", "push_forward", "save_chainfile",
    "serialize_chainfile", "slice_mass_integral", "slice_mass_star",
    "system_boundary", "validate_complex",
]
