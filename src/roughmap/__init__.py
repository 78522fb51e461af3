"""Relation mappings between finite universes, with rough approximations
and an exhaustive claim-checking engine.

The core objects are bitmask-backed: a Universe of n indexed elements, a
Subset as one mask, a BinRelation as one packed int, and a Partition stored
canonically as a restricted-growth string.  A map between universes
induces an image relation that keeps a pair (f(x), f(y)) only when x and
y are equivalent and cut equal exact fractions out of their fibers; the
claims registry pins down what that construction does and does not
preserve, and the search module hunts for counterexamples exhaustively.
"""

__version__ = "0.1.0"

from . import kernels
from .structures import (
    BinRelation,
    Classification,
    Partition,
    Subset,
    Universe,
    make_universe,
    partition_from_blocks,
)
from .mappings import (
    DegreeRatio,
    SurjMap,
    degree_table,
    fiber_condition,
    including_degree,
    make_map,
    relmap,
)
from .approx import (
    approximations,
    boundary,
    is_definable,
    lower_approx,
    upper_approx,
)
from .enumeration import (
    bell,
    stirling2,
    surjection_count,
)
from .claims import (
    Claim,
    GroupContext,
    Instance,
    Outcome,
    REGISTRY,
    Verdict,
    evaluate,
    get_claim,
    list_claims,
)
from .search import RawInstance, SearchReport, Tally, falsify, verify
from .replay import ReplayReport, replay_examples
from .docio import (
    ParsedInstance,
    emit_instance_doc,
    parse_instance,
    parse_instance_doc,
    render_relation,
    render_subset,
    report_doc,
)
from . import errors
from .errors import (
    BadElementError,
    BadImageError,
    BadInstanceError,
    BadLabelsError,
    EmptyReferenceError,
    EmptyUniverseError,
    IoError,
    MixedUniverseError,
    NotAPartitionError,
    NotEquivalenceError,
    ParseError,
    RoughmapError,
    ValidationError,
    WorkerCrashError,
)

__all__ = [
    "__version__",
    "kernels",
    "errors",
    "RoughmapError",
    "EmptyUniverseError",
    "BadLabelsError",
    "MixedUniverseError",
    "NotAPartitionError",
    "NotEquivalenceError",
    "BadElementError",
    "BadImageError",
    "EmptyReferenceError",
    "BadInstanceError",
    "ParseError",
    "ValidationError",
    "IoError",
    "WorkerCrashError",
    "Universe",
    "Subset",
    "BinRelation",
    "Partition",
    "Classification",
    "make_universe",
    "partition_from_blocks",
    "SurjMap",
    "DegreeRatio",
    "make_map",
    "including_degree",
    "degree_table",
    "fiber_condition",
    "relmap",
    "lower_approx",
    "upper_approx",
    "approximations",
    "is_definable",
    "boundary",
    "bell",
    "stirling2",
    "surjection_count",
    "Claim",
    "Instance",
    "Verdict",
    "Outcome",
    "GroupContext",
    "REGISTRY",
    "evaluate",
    "get_claim",
    "list_claims",
    "RawInstance",
    "SearchReport",
    "Tally",
    "falsify",
    "verify",
    "ReplayReport",
    "replay_examples",
    "ParsedInstance",
    "parse_instance",
    "parse_instance_doc",
    "emit_instance_doc",
    "render_relation",
    "render_subset",
    "report_doc",
]
