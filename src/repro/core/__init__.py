"""The CCDP placement algorithm (paper Figures 1 and 2)."""

from .algorithm import CCDPPlacer, DEFAULT_POPULARITY_CUTOFF
from .cache_struct import TRGIndex, chunk_line_span
from .compound import CompoundNode
from .global_order import GlobalLayout, LayoutAtom, order_globals
from .heap_prep import HeapPrepResult, preprocess_heap_objects
from .placement_engine import ArrayCompoundMerger, ArrayPlacementEngine
from .placement_map import HeapDecision, PlacementMap, PlacementStats

__all__ = [
    "ArrayCompoundMerger",
    "ArrayPlacementEngine",
    "CCDPPlacer",
    "CompoundNode",
    "DEFAULT_POPULARITY_CUTOFF",
    "GlobalLayout",
    "HeapDecision",
    "HeapPrepResult",
    "LayoutAtom",
    "PlacementMap",
    "PlacementStats",
    "TRGIndex",
    "chunk_line_span",
    "order_globals",
    "preprocess_heap_objects",
]
