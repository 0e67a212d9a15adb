"""Exact computation with chains mod p on finite cell complexes.

Masses and flat norms with provably optimal witnesses, slicing and
restriction calculus on box chains, grid deformation with certified
homotopy identities, cycle extraction from curve systems, and the cone
construction on simplicial chains, plus a file format and CLI tying it
together.
"""

from .boxes import (BoxCell, BoxChain, DeformationResult, arrangement_complex,
                    compile_chain, deform, grid_chain, slice_mass_integral,
                    slice_mass_star)
from .cone import (ConeMassReport, Simplex, SimplicialChain,
                   boundary_simplicial, cone, cone_mass_report)
from .core import (CellularMap, Complex, IntChain, InternalDefectError,
                   ModPChain, PreconditionError, ValidationReport,
                   as_fraction, canonical_residue, mass_p, norm_mod_p,
                   push_forward, validate_complex)
from .curves import (CurveItem, CurvePath, CurveSystem, PreprocessTrace,
                     cycle_representative, decompose_paths_loops,
                     extract_cycle_indices, preprocess, system_boundary)
from .fileio import (ChainFile, ParseError, format_number, load_chainfile,
                     parse_chainfile, save_chainfile, serialize_chainfile)
from .flatnorm import (FillInfeasibleError, FlatWitness, fill_mod_p,
                       flat_norm_int, flat_norm_mod_p,
                       flat_norm_under_refinement, isoperimetric_ratio)

__version__ = "0.1.0"

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
