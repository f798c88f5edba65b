"""Aggregation-based closedness checking: the paper's core contribution.

A cell of a data cube is *closed* iff there is no ``*`` dimension on which all
of the cell's tuples share a single value.  Section 3.2 of the paper shows how
to decide this without ever re-reading the cell's tuple list, by carrying two
small summaries through the normal aggregation machinery:

* **Representative Tuple ID** (Definition 6) — the minimum tuple id of the
  group; distributive (Lemma 2).
* **Closed Mask** (Definition 7) — a ``D``-bit mask whose bit ``d`` is set iff
  all tuples of the group share one value on dimension ``d``; algebraic
  (Lemma 3): the merged mask keeps bit ``d`` only if every part has the bit set
  *and* the parts' representative tuples agree on dimension ``d``.

Together with the cell's **All Mask** (Definition 8 — bit set on ``*``
dimensions) the *closedness measure* is ``ClosedMask & AllMask``
(Definition 9): the cell is closed iff this is zero.

This module implements the measure as :class:`ClosednessState` plus the merge
algebra, the per-partition shortcut :func:`closedness_of_tids`, and the *Tree
Mask* bookkeeping used by the Star-family closed pruning (Section 4.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .cell import Cell, all_mask, fixed_mask
from .errors import IncrementalError
from .relation import Relation


def full_mask(num_dims: int) -> int:
    """A mask with the low ``num_dims`` bits set."""
    return (1 << num_dims) - 1


def prefix_mask(num_bits: int) -> int:
    """A mask with bits ``0 .. num_bits-1`` set (used for tree-level prefixes)."""
    return (1 << num_bits) - 1


@dataclass
class ClosednessState:
    """The closedness measure of one aggregation group.

    Attributes
    ----------
    rep_tid:
        Representative Tuple ID — the smallest tuple id aggregated into the
        group, or ``None`` for an empty group (the paper's ``NULL``).
    closed_mask:
        Closed Mask over all ``D`` dimensions as an integer bit set.  For an
        empty group the mask is the all-ones mask (neutral element of the
        bitwise-and merge).
    """

    rep_tid: Optional[int]
    closed_mask: int

    @classmethod
    def empty(cls, num_dims: int) -> "ClosednessState":
        """The neutral element: merging it into any state leaves it unchanged."""
        return cls(rep_tid=None, closed_mask=full_mask(num_dims))

    @classmethod
    def for_tuple(cls, tid: int, num_dims: int) -> "ClosednessState":
        """State of a single tuple: every dimension trivially shares one value."""
        return cls(rep_tid=tid, closed_mask=full_mask(num_dims))

    def copy(self) -> "ClosednessState":
        return ClosednessState(self.rep_tid, self.closed_mask)

    @property
    def is_empty(self) -> bool:
        return self.rep_tid is None

    def merge(self, other: "ClosednessState", relation: Relation) -> None:
        """Fold ``other`` (a disjoint part) into this state, in place.

        Implements the algebraic recurrence of Lemma 3: bit ``d`` survives only
        if both parts have it set and their representative tuples carry the
        same value on dimension ``d``.  The representative tuple id becomes the
        minimum of the two.
        """
        if other.rep_tid is None:
            return
        if self.rep_tid is None:
            self.rep_tid = other.rep_tid
            self.closed_mask = other.closed_mask
            return

        mask = self.closed_mask & other.closed_mask
        if mask:
            columns = relation.columns
            own_tid = self.rep_tid
            other_tid = other.rep_tid
            dim = 0
            probe = mask
            while probe:
                if probe & 1:
                    if columns[dim][own_tid] != columns[dim][other_tid]:
                        mask &= ~(1 << dim)
                probe >>= 1
                dim += 1
        self.closed_mask = mask
        if other.rep_tid < self.rep_tid:
            self.rep_tid = other.rep_tid

    def add_tuple(self, tid: int, relation: Relation) -> None:
        """Fold a single tuple into this state (a common fast path)."""
        if self.rep_tid is None:
            self.rep_tid = tid
            self.closed_mask = full_mask(relation.num_dimensions)
            return
        mask = self.closed_mask
        if mask:
            columns = relation.columns
            own_tid = self.rep_tid
            dim = 0
            probe = mask
            while probe:
                if probe & 1:
                    if columns[dim][own_tid] != columns[dim][tid]:
                        mask &= ~(1 << dim)
                probe >>= 1
                dim += 1
        self.closed_mask = mask
        if tid < self.rep_tid:
            self.rep_tid = tid

    def closedness(self, cell_all_mask: int) -> int:
        """The closedness measure ``ClosedMask & AllMask`` (Definition 9)."""
        return self.closed_mask & cell_all_mask

    def is_closed(self, cell_all_mask: int) -> bool:
        """``True`` iff the cell owning this state is closed."""
        return (self.closed_mask & cell_all_mask) == 0

    def is_closed_for(self, cell: Cell) -> bool:
        """Convenience wrapper computing the All Mask from the cell itself."""
        return self.is_closed(all_mask(cell))


def closedness_of_tids(tids: Sequence[int], relation: Relation) -> ClosednessState:
    """Closedness state of an explicit tuple-id group.

    This is the non-incremental formulation used by the oracle and by
    algorithms that have a tuple-id list at hand (BUC partitions, StarArray
    leaf pools): bit ``d`` is kept iff all tuples agree with the first tuple on
    dimension ``d``.
    """
    if not tids:
        return ClosednessState.empty(relation.num_dimensions)
    num_dims = relation.num_dimensions
    columns = relation.columns
    first = tids[0]
    rep = min(tids)
    mask = 0
    for dim in range(num_dims):
        column = columns[dim]
        value = column[first]
        if all(column[tid] == value for tid in tids):
            mask |= 1 << dim
    return ClosednessState(rep_tid=rep, closed_mask=mask)


def closed_cell_state(cell: Cell, rep_tid: Optional[int]) -> ClosednessState:
    """Reconstruct the closedness state of a *closed* cell after the fact.

    For a closed cell the Closed Mask needs no recomputation: every tuple of
    the cell shares the cell's value on each fixed dimension (bit set), and
    closedness means no ``*`` dimension has a single shared value (bit
    clear) — so ``ClosedMask == fixed_mask(cell)`` exactly.  Together with the
    representative tuple id the algorithms already record per cell
    (:attr:`repro.core.cube.CellStats.rep_tid`), the full measure state of
    Definition 9 is recovered without touching a single tuple list.

    This is what makes a materialised closed cube *mergeable*: the
    reconstructed states feed straight into :meth:`ClosednessState.merge`
    (Lemma 3), which is how :mod:`repro.incremental.merge` repairs closedness
    when folding appended tuples into a base cube.

    Raises :class:`~repro.core.errors.IncrementalError` when ``rep_tid`` is
    missing — a cube computed without representative-tuple tracking cannot be
    merged incrementally.
    """
    if rep_tid is None:
        raise IncrementalError(
            f"cell {cell!r} carries no representative tuple id; only cubes "
            "computed with rep_tid tracking (the closed algorithms) support "
            "incremental merge"
        )
    return ClosednessState(rep_tid=rep_tid, closed_mask=fixed_mask(cell))


def merge_states(
    states: Iterable[ClosednessState], relation: Relation
) -> ClosednessState:
    """Merge an iterable of part states into a fresh combined state."""
    result = ClosednessState.empty(relation.num_dimensions)
    for state in states:
        result.merge(state, relation)
    return result


def shared_value_dimensions(state: ClosednessState) -> int:
    """Alias making call sites read naturally: the Closed Mask of a state."""
    return state.closed_mask


# --------------------------------------------------------------------------- #
# Tree Mask helpers (Section 4.3)                                              #
# --------------------------------------------------------------------------- #


def tree_mask_after_collapse(tree_mask: int, collapsed_dim: int) -> int:
    """Tree Mask of a child tree: inherit the parent's and set the collapsed bit."""
    return tree_mask | (1 << collapsed_dim)


def closed_pruning_applies(closed_mask: int, tree_mask: int) -> bool:
    """Lemma 5: prune the subtree if ``ClosedMask & TreeMask`` is non-zero.

    A non-zero intersection means some already-collapsed dimension has a value
    shared by every tuple below this node, so every cell the subtree could emit
    is covered by the cell that fixes that shared value.
    """
    return (closed_mask & tree_mask) != 0
