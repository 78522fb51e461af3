"""Relation mappings between finite universes, with rough approximations
and an exhaustive claim-checking engine.

The core objects are bitmask-backed: a Universe of n indexed elements, a
Subset as one mask, a BinRelation as one packed int, and a Partition stored
canonically as a restricted-growth string.  A map between universes
induces an image relation that keeps a pair (f(x), f(y)) only when x and
y are equivalent and cut equal exact fractions out of their fibers; the
claims registry pins down what that construction does and does not
preserve, and the search module hunts for counterexamples exhaustively.

Records are namedtuples or plain classes and annotations use the builtin
forms, so the import loads neither `dataclasses` nor `typing`: with the
modules they import, those were about a third of a fresh interpreter's
`import roughmap`.
"""

__version__ = "0.1.0"

from . import errors, kernels
from .errors import (
    RoughmapError, EmptyUniverseError, BadLabelsError, MixedUniverseError, NotAPartitionError,
    NotEquivalenceError, BadElementError, BadImageError, EmptyReferenceError, BadInstanceError,
    ParseError, ValidationError, IoError, WorkerCrashError,
)
from .structures import Universe, Subset, BinRelation, Partition, Classification, make_universe, partition_from_blocks
from .mappings import SurjMap, DegreeRatio, make_map, including_degree, degree_table, fiber_condition, relmap
from .approx import lower_approx, upper_approx, approximations, is_definable, boundary
from .enumeration import bell, stirling2, surjection_count
from .claims import Claim, Instance, Verdict, Outcome, GroupContext, REGISTRY, evaluate, get_claim, list_claims
from .search import RawInstance, SearchReport, Tally, falsify, verify
from .replay import ReplayReport, replay_examples
from .docio import (
    ParsedInstance, parse_instance, parse_instance_doc, emit_instance_doc, render_relation, render_subset, report_doc,
)

# the names imported above; of the submodules that importing binds here,
# only kernels and errors are public
__all__ = [
    "__version__", "kernels", "errors",
    *(name for name, value in globals().items() if name[0] != "_" and not isinstance(value, type(kernels))),
]
