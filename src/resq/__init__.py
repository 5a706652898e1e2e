"""Workbench for finite residuated semigroups and their relational representations."""

from .algebra import (
    Check,
    FiniteResiduatedSemigroup,
    Report,
    enumerate_algebras,
    generate_concrete,
    infer_residuals,
    parse_algebra,
    serialize,
    validate,
)
from .completion import Quantale, build_quantale, closed_sets, embed, m_closure, quantale_residuals
from .errors import ResqError
from .lambek import Sequent, countermodel_search, derivable, evaluate, parse_sequent
from .pointalg import build_point_algebra, frp_probe, reduct
from .relations import Interpretation
from .relrep import generators, hat, represent, represent_pipeline, unitalize
from .verifier import (
    Exhausted,
    check_representation,
    check_union_transitive,
    search_representation,
)

__all__ = [
    "FiniteResiduatedSemigroup",
    "Check",
    "Report",
    "Quantale",
    "Interpretation",
    "Sequent",
    "Exhausted",
    "ResqError",
    "parse_algebra",
    "serialize",
    "validate",
    "infer_residuals",
    "enumerate_algebras",
    "generate_concrete",
    "build_quantale",
    "closed_sets",
    "m_closure",
    "quantale_residuals",
    "embed",
    "generators",
    "hat",
    "unitalize",
    "represent",
    "represent_pipeline",
    "check_representation",
    "check_union_transitive",
    "search_representation",
    "build_point_algebra",
    "reduct",
    "frp_probe",
    "parse_sequent",
    "derivable",
    "evaluate",
    "countermodel_search",
]
