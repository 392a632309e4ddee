"""Exact arithmetic toolkit for no-signalling boxes."""

from .boxes import (Box, BoxShape, InvalidBoxError, ShapeError,
                    ValidationReport, has_unique_completion, marginal, mix,
                    product, tensor, validate)
from .comm import (BoxUse, CommProtocol, Message, SharedRandomness,
                   evaluate_comm_protocol, min_oneway_comm_with_SR, protocol4)
from .dd import EnumerationCapError, extreme_rays
from .extend import (ExtensionPolytope, all_extensions_factorize,
                     build_extension_polytope, product_extension)
from .families import (dbox, local_deterministic, make_named_box, pr,
                       svetlichny_box, two_way_vertex, uniform, xyplusz,
                       xyz_box)
from .fileio import (ParseError, load_box, load_functional, load_wiring,
                     save_box, save_functional, save_wiring)
from .locality import (BellFunctional, DeterministicStrategy, LocalModel,
                       SeparatingCertificate, TwoWayStrategy, chsh,
                       chsh_functional, convex_membership, correlator,
                       enumerate_local_strategies, enumerate_twoway_strategies,
                       evaluate_functional, is_local, is_two_way_local,
                       svetlichny, svetlichny_functional)
from .polytope import (HPolytope, KBoxCensus, KBoxClass, OrbitClass, VRep,
                       build_hrep, classify_vertices, dimension,
                       enumerate_vertices, is_extremal, kbox_census, lift_box)
from .relabel import (Relabelling, apply_relabelling, canonical_form,
                      equivalent_under_relabelling, generators, group, inverse, orbit)
from .simplex import LPResult, find_nonneg_solution, maximize
from .wiring import (Component, PartyProgram, Step, Wiring, WiringError,
                     evaluate_wiring, preset, protocol3_error)

__all__ = [
    "BellFunctional", "Box", "BoxShape", "BoxUse", "CommProtocol", "Component",
    "DeterministicStrategy", "EnumerationCapError", "ExtensionPolytope",
    "HPolytope", "InvalidBoxError", "KBoxCensus", "KBoxClass", "LPResult",
    "LocalModel", "Message", "OrbitClass", "ParseError", "PartyProgram",
    "Relabelling", "SeparatingCertificate", "ShapeError", "SharedRandomness",
    "Step", "TwoWayStrategy", "VRep", "ValidationReport", "Wiring",
    "WiringError", "all_extensions_factorize", "apply_relabelling",
    "build_extension_polytope", "build_hrep", "canonical_form", "chsh",
    "chsh_functional", "classify_vertices", "convex_membership", "correlator",
    "dbox", "dimension", "enumerate_local_strategies",
    "enumerate_twoway_strategies", "enumerate_vertices",
    "equivalent_under_relabelling", "evaluate_comm_protocol",
    "evaluate_functional", "evaluate_wiring", "extreme_rays",
    "find_nonneg_solution", "generators", "group", "has_unique_completion",
    "inverse", "is_extremal", "is_local", "is_two_way_local", "kbox_census",
    "lift_box",
    "load_box", "load_functional", "load_wiring", "local_deterministic",
    "make_named_box", "marginal", "maximize", "min_oneway_comm_with_SR",
    "mix", "orbit", "pr", "preset", "product", "product_extension",
    "protocol3_error", "protocol4", "save_box", "save_functional",
    "save_wiring", "svetlichny", "svetlichny_box", "svetlichny_functional",
    "tensor", "two_way_vertex", "uniform", "validate", "xyplusz", "xyz_box",
]
