"""Finite factored sets: combinatorics, orthogonality, and temporal inference.

``import factoredsets`` loads the math core: partitions, factored sets,
histories and orthogonality, characteristic polynomials, distributions and
agency.  The database search (``inference``) and the text formats
(``fileformat``) are built on that core and load when one of their names is
first used (PEP 562), so a program that never searches or reads a file does
not pay to compile them.
"""

from importlib import import_module as _import_module
from pathlib import Path as _Path
from types import ModuleType as _ModuleType

from .agency import (
    ObservesVerdict,
    counterfactable,
    event_partition,
    history_join,
    observes_event,
    observes_partition,
    relatively_counterfactable,
)
from .factored import (
    FactoredSet,
    count_factorizations,
    enumerate_factorizations,
    factor_size_multisets,
    grid_factored_set,
    iter_bits,
    trivial_factorization,
)
from .partitions import (
    GroundSet,
    Partition,
    ValidationError,
    bell_number,
    common_refinement,
    format_partition,
    iter_partitions,
    parse_partition,
)
from .polynomial import (
    IrrDecomposition,
    SetPolynomial,
    characteristic_polynomial,
    cond_orth_by_divisibility,
    format_polynomial,
    irreducible_components,
    restricted_polynomial,
)
from .probability import (
    DEFAULT_SEED,
    FactoredDistribution,
    FundamentalTheoremReport,
    conditional_independence_holds,
    fundamental_theorem_check,
    is_distribution_on_factored_set,
    prob,
    random_distribution,
)
from .structure import (
    TemporalRelation,
    TemporalVerdict,
    before,
    block_histories,
    cond_before,
    cond_orthogonal,
    cond_orthogonal_given_subset,
    generates,
    history,
    history_factors,
    orthogonal,
    splice_components,
)

# The core never imports these modules; each name here resolves on first use.
_LAZY = {
    "fileformat": (
        "FactoredSetFile",
        "ParseError",
        "format_database_file",
        "format_factored_set_file",
        "load_database_file",
        "load_distribution_file",
        "load_factored_set_file",
        "parse_database_text",
        "parse_distribution_text",
        "parse_factored_set_text",
        "resolve_model",
    ),
    "inference": (
        "ConsistencyVerdict",
        "InferenceVerdict",
        "Model",
        "ModelCheckReport",
        "OrthogonalityDatabase",
        "SearchBounds",
        "Truncation",
        "infer_before",
        "is_complete",
        "is_consistent_up_to_bound",
        "models_database",
        "pullback",
        "search_models",
    ),
}
_LAZY_OWNER = {name: module for module, names in _LAZY.items() for name in names}

__version__ = "0.1.0"


def data_path(name: str) -> _Path:
    """Filesystem path of a bundled example file (e.g. ``ex1.ffs``)."""
    return _Path(__file__).with_name("data") / name


__all__ = sorted(
    [
        name
        for name, value in globals().items()
        if not name.startswith("_") and not isinstance(value, _ModuleType)
    ]
    + list(_LAZY_OWNER)
)


def __getattr__(name: str):
    """Import the module that defines a lazy name, and bind the name here."""
    if name in _LAZY:  # the submodule itself; importing it binds it here
        return _import_module(f".{name}", __name__)
    module = _LAZY_OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY) | set(_LAZY_OWNER))
