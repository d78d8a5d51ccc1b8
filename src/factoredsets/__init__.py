"""Finite factored sets: combinatorics, orthogonality, and temporal inference."""

from pathlib import Path as _Path

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
from .fileformat import (
    FactoredSetFile,
    ParseError,
    format_database_file,
    format_factored_set_file,
    load_database_file,
    load_distribution_file,
    load_factored_set_file,
    parse_database_text,
    parse_distribution_text,
    parse_factored_set_text,
    resolve_model,
)
from .inference import (
    ConsistencyVerdict,
    InferenceVerdict,
    Model,
    ModelCheckReport,
    OrthogonalityDatabase,
    SearchBounds,
    Truncation,
    infer_before,
    is_complete,
    is_consistent_up_to_bound,
    models_database,
    pullback,
    search_models,
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

__version__ = "0.1.0"


def data_path(name: str) -> _Path:
    """Filesystem path of a bundled example file (e.g. ``ex1.ffs``)."""
    return _Path(__file__).with_name("data") / name
