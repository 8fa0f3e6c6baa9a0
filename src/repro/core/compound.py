"""Compound nodes, the unit of the Phase 6 merge (paper, Figure 2).

A *compound node* is "a set of objects that have been grouped together in
the cache during data placement" (Phase 3).  Member entities carry fixed
relative byte offsets; merging two nodes
(:class:`~repro.core.placement_engine.ArrayCompoundMerger`) scans every
cache-line start location for the incoming node, picks the
minimum-conflict location against the already-placed node and the fixed
``Stack_Const`` image, and coalesces the TRGselect edges of the merged
pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CompoundNode:
    """A group of entities with fixed relative cache offsets.

    Attributes:
        node_id: Identity within the placement run.
        offsets: Entity id -> byte offset.  Before the node is *anchored*
            the offsets are relative to the node's own origin; afterwards
            they are absolute cache offsets.
        anchored: Whether the node has been placed against the
            ``Stack_Const`` image (Figure 2's "has never been processed"
            check).
    """

    node_id: int
    offsets: dict[int, int] = field(default_factory=dict)
    anchored: bool = False

    def entities(self) -> list[int]:
        """Member entity ids."""
        return list(self.offsets)
