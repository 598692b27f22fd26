"""Coded map-reduce shuffle schemes from star/integer coded arrays."""

from importlib import resources

from .arrays import (
    STAR,
    ArrayFormatError,
    ArrayStats,
    CodedArray,
    TruncationError,
    ValidationReport,
    Violation,
    compute_stats,
    parse_array,
    truncate_columns,
    validate_l_cyclic,
    validate_mra,
    validate_pda,
)
from .constructors import (
    ConstructionError,
    GcParameters,
    SearchBudgetExceeded,
    algorithm1,
    algorithm2,
    lex_rank,
    lex_unrank,
    nnc_pda,
    shift_symbols,
)
from .mapreduce import (
    DecodeReport,
    JobPreconditionError,
    JobSpec,
    MapReduceGraph,
    ShuffleTranscript,
    access_pattern,
    choose_iv_bits,
    computation_load,
    mrg_canonical,
    mrg_ct,
    mrg_gc,
    mrg_nnc,
    run_job,
)
from .metrics import (
    LoadCurve,
    be_corners,
    be_load,
    be_lower_bound,
    ct_load,
    format_rational,
    gc_load,
    gc_lower_bound,
    gc_lower_envelope,
    load_from_array,
    lower_convex_envelope,
    nnc_load,
)

__version__ = "0.1.0"


# Resolved once, as a directory of this package: the fixtures directory has
# no __init__.py, and resolving it as a resource package of its own lists the
# directory on every lookup.
_FIXTURES = resources.files(__name__) / "fixtures"


def load_fixture(name: str) -> CodedArray:
    """Load one of the packaged golden arrays by file stem."""
    return parse_array(_FIXTURES.joinpath(f"{name}.txt").read_text())


def fixture_names() -> list[str]:
    """Stems of all packaged golden arrays."""
    return sorted(
        p.name[:-4] for p in _FIXTURES.iterdir() if p.name.endswith(".txt")
    )
