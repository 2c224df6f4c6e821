"""Dynamic slicing: backward/forward slices, chops, pruning, relevant
slicing, implicit dependences, multithreaded extensions."""

from .engine import backward_closure, forward_closure
from .implicit import (
    CriterionRecorder,
    ImplicitDependence,
    ImplicitSearchResult,
    PredicateSwitcher,
    find_implicit_dependences,
)
from .multithreaded import (
    CrossThreadDependence,
    cross_thread_dependences,
    multithreaded_backward_slice,
)
from .pruning import PrunedSlice, classify_outputs, kept_pcs, prune_slice
from .relevant import RelevantSlice, branches_with_potential_stores, relevant_slice
from .slicer import (
    DATA_KINDS,
    DEFAULT_KINDS,
    MULTITHREADED_KINDS,
    DynamicSlice,
    backward_slice,
    chop,
    forward_slice,
    last_instance_of_line,
    slice_at_last_output,
)

__all__ = [
    "backward_closure",
    "forward_closure",
    "CriterionRecorder",
    "ImplicitDependence",
    "ImplicitSearchResult",
    "PredicateSwitcher",
    "find_implicit_dependences",
    "CrossThreadDependence",
    "cross_thread_dependences",
    "multithreaded_backward_slice",
    "PrunedSlice",
    "classify_outputs",
    "kept_pcs",
    "prune_slice",
    "RelevantSlice",
    "branches_with_potential_stores",
    "relevant_slice",
    "DATA_KINDS",
    "DEFAULT_KINDS",
    "MULTITHREADED_KINDS",
    "DynamicSlice",
    "backward_slice",
    "chop",
    "forward_slice",
    "last_instance_of_line",
    "slice_at_last_output",
]
