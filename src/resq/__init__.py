"""Workbench for finite residuated semigroups and their relational representations.

The names in ``__all__`` load on first use (PEP 562): ``import resq`` imports
no submodule, and ``resq.build_quantale`` imports ``resq.completion`` alone.
"""

from importlib import import_module

# each export, in the order of __all__, with the module that defines it
_HOME = {
    "FiniteResiduatedSemigroup": "algebra",
    "Check": "algebra",
    "Report": "algebra",
    "Quantale": "completion",
    "Interpretation": "relations",
    "Sequent": "lambek",
    "Exhausted": "verifier",
    "ResqError": "errors",
    "parse_algebra": "algebra",
    "validate": "algebra",
    "infer_residuals": "algebra",
    "generate_concrete": "algebra",
    "build_quantale": "completion",
    "closed_sets": "completion",
    "quantale_residuals": "completion",
    "embed": "completion",
    "hat": "relrep",
    "unitalize": "relrep",
    "represent_pipeline": "relrep",
    "check_representation": "verifier",
    "check_union_transitive": "verifier",
    "search_representation": "verifier",
    "build_point_algebra": "pointalg",
    "reduct": "pointalg",
    "frp_probe": "pointalg",
    "parse_sequent": "lambek",
    "derivable": "lambek",
    "evaluate": "lambek",
    "countermodel_search": "lambek",
}
__all__ = list(_HOME)


def __getattr__(name: str):
    """The export name from its home module, imported on first access and
    then bound here; any other name raises AttributeError."""
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
