"""Inverted per-dimension index over the materialised cells of a cube.

The closed cube answers a query on *any* cell of the lattice through the
quotient-cube closure property (see :meth:`repro.core.cube.CubeResult.
closure_query`): the answer is carried by the materialised specialisation with
the maximum count.  Finding that cell by scanning every materialised cell is
``O(cells)`` per query, which is what makes a naive serving layer collapse
under load.

:class:`CubeIndex` turns the lookup into a posting-list intersection.  For
every dimension ``d`` it keeps a mapping ``value -> {slots}`` of the cells
that *fix* ``d`` to ``value``.  The materialised specialisations of a query
cell are exactly the intersection of the posting lists of its fixed
dimensions, so a point lookup touches only the cells sharing the query's
rarest fixed value instead of the whole cube.  The all-``*`` (apex) query is
answered from a precomputed best slot without touching any posting list.

The index is the slot half of the cube's **versioned, append-only store**
(the other half is the cell map of :class:`~repro.core.cube.CubeResult`).
Every cell owns one slot for life — its insertion position in the parallel
slot lists and its id in the add-only posting sets — and the slot holds the
cell's *latest* statistics.  Growing a cell never mutates a
:class:`~repro.core.cube.CellStats`: the slot is re-pointed at the new object
and the superseded one is appended to the store's supersession log.  So
maintenance costs O(changed cells), the posting sets — and with them every
live lookup — are exactly what indexing the cube from scratch would give, and
a version of the store is two lengths: :class:`PinnedIndex` answers at one by
ignoring slots at or beyond the pinned slot count and reading statistics
superseded since out of the log's tail.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from ..core.cell import Cell
from ..core.cube import CellStats, CubeResult
from ..core.errors import QueryError


class CubeIndex:
    """Posting-list index over materialised cells, one list per (dim, value).

    Cells are addressed by *slot* — their insertion position.  :meth:`cell_at`
    / :meth:`stats_at` translate a slot back to the cell and its latest
    aggregated statistics.

    :meth:`add_cells` is the only mutation.  It runs under an internal mutex,
    so two maintenance callers can never interleave half-applied posting
    updates.  Lookups stay lock-free: the concurrent serving layer
    (:mod:`repro.server`) appends to a served index only inside
    :meth:`repro.query.engine.QueryEngine.publish`, under the engine's write
    lock, and every reader — live or pinned — holds the read side.
    """

    def __init__(self, num_dims: int, items: Iterable[Tuple[Cell, CellStats]]) -> None:
        self._reset(num_dims)
        self.add_cells(items)

    def _reset(self, num_dims: int) -> None:
        self.num_dims = num_dims
        self._cells: List[Cell] = []
        self._stats: List[CellStats] = []
        #: Per dimension: fixed value -> set of slots fixing that value.
        self._postings: List[Dict[int, Set[int]]] = [{} for _ in range(num_dims)]
        #: Cell -> slot.
        self._slot_of: Dict[Cell, int] = {}
        #: The supersession log, oldest first, as two parallel lists: which
        #: slot was re-pointed, and the statistics it held until then.
        self._superseded_slots: List[int] = []
        self._superseded_stats: List[CellStats] = []
        #: Slot of the maximum-count cell: the closure of the apex query.
        self._best_slot: Optional[int] = None
        #: Serialises :meth:`add_cells` callers against each other.
        self._mutate_lock = threading.Lock()
        #: ``(slots filled, per-dimension buffers)`` behind
        #: :meth:`columns_view`; the buffers carry spare capacity beyond the
        #: filled prefix.  One attribute, so readers see a matching pair.
        self._columns: Optional[Tuple[int, List[object]]] = None

    @classmethod
    def from_cube(cls, cube: CubeResult) -> "CubeIndex":
        """Index every materialised cell of ``cube``."""
        return cls(cube.num_dims, cube.items())

    @classmethod
    def from_snapshot_state(
        cls,
        num_dims: int,
        cells: List[Cell],
        stats: List[CellStats],
        postings: Iterable[Mapping[int, Iterable[int]]],
        best_slot: Optional[int],
        slot_ints: Optional[List[int]] = None,
    ) -> "CubeIndex":
        """Reconstruct an index from persisted state, skipping the re-index.

        The v2 snapshot format (:mod:`repro.storage.snapshot`) persists the
        posting lists and the pre-scored apex slot it derived while writing
        the live cells in slot order; this constructor reinstates them
        wholesale — set construction and one slot-map comprehension, all
        C-speed — instead of replaying the per-cell :meth:`add_cells` loop.
        ``stats`` must be the same :class:`CellStats` objects the owning cube
        holds (shared, as :meth:`add_cells` would share them), in slot order
        matching ``cells``.

        Takes ownership of the ``cells`` / ``stats`` lists and of any posting
        map whose slot collections are already ``set``\\ s (callers that
        interned their slot ints keep that sharing; plain iterables are
        copied into fresh sets).
        """
        if len(cells) != len(stats):
            raise QueryError(
                f"{len(cells)} cells with {len(stats)} stats entries"
            )
        index = cls.__new__(cls)
        index._reset(num_dims)
        index._cells = cells
        index._stats = stats
        index._postings = [
            {
                value: slots if isinstance(slots, set) else set(slots)
                for value, slots in dim_postings.items()
            }
            for dim_postings in postings
        ]
        if len(index._postings) != num_dims:
            raise QueryError(
                f"{len(index._postings)} posting maps for {num_dims} dimensions"
            )
        # ``slot_ints`` lets the caller share one canonical int object per
        # slot between the slot map and its (pre-interned) posting sets.
        if slot_ints is not None and len(slot_ints) == len(cells):
            index._slot_of = dict(zip(cells, slot_ints))
        else:
            index._slot_of = {cell: slot for slot, cell in enumerate(cells)}
        if len(index._slot_of) != len(cells):
            raise QueryError("duplicate cells in persisted index state")
        index._best_slot = best_slot
        return index

    def compacted(self) -> "CubeIndex":
        """An independent copy with the same slots and an empty log."""
        return CubeIndex.from_snapshot_state(
            self.num_dims,
            list(self._cells),
            list(self._stats),
            [
                {value: set(slots) for value, slots in dim_postings.items()}
                for dim_postings in self._postings
            ],
            self._best_slot,
            slot_ints=list(self._slot_of.values()),
        )

    # ------------------------------------------------------------------ #
    # Maintenance                                                         #
    # ------------------------------------------------------------------ #

    def add_cells(self, items: Iterable[Tuple[Cell, CellStats]]) -> None:
        """Record the given statistics: a new slot per new cell, the next
        version of the slot of a cell already indexed.

        Superseded statistics move to the log, where views pinned before
        this call still find them; nothing is mutated and nothing is
        re-indexed.  The stats objects are shared with the caller, not
        copied, and must never be mutated afterwards.  An already built
        :meth:`columns_view` is extended by the appended tail.
        """
        with self._mutate_lock:
            cells = self._cells
            all_stats = self._stats
            slot_of = self._slot_of
            postings = self._postings
            best = self._best_slot
            best_count = -1 if best is None else all_stats[best].count
            for cell, stats in items:
                slot = slot_of.get(cell)
                if slot is None:
                    if len(cell) != self.num_dims:
                        raise QueryError(
                            f"cell {cell!r} has {len(cell)} entries, "
                            f"expected {self.num_dims}"
                        )
                    slot = len(cells)
                    cells.append(cell)
                    all_stats.append(stats)
                    slot_of[cell] = slot
                    for dim, value in enumerate(cell):
                        if value is not None:
                            postings[dim].setdefault(value, set()).add(slot)
                else:
                    self._superseded_slots.append(slot)
                    self._superseded_stats.append(all_stats[slot])
                    all_stats[slot] = stats
                if stats.count > best_count:
                    best, best_count = slot, stats.count
            self._best_slot = best
            if self._columns is not None:
                self.columns_view()

    # ------------------------------------------------------------------ #
    # Slot translation                                                    #
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._slot_of)

    @property
    def superseded(self) -> int:
        """Statistics records superseded so far (the length of the log)."""
        return len(self._superseded_slots)

    def cell_at(self, slot: int) -> Cell:
        return self._cells[slot]

    def stats_at(self, slot: int) -> CellStats:
        return self._stats[slot]

    def postings_size(self) -> int:
        """Total number of slot entries across all posting lists (for reports)."""
        return sum(
            len(slots) for postings in self._postings for slots in postings.values()
        )

    # ------------------------------------------------------------------ #
    # Lookups                                                             #
    # ------------------------------------------------------------------ #

    def specialisation_slots(self, cell: Cell) -> Set[int]:
        """Slots of the materialised cells that are specialisations of ``cell``.

        Computed as the intersection of the posting lists of the query's fixed
        dimensions, starting from the smallest list.  A fixed value never seen
        by the cube short-circuits to the empty set.  The apex query (no fixed
        dimension) matches every slot.
        """
        if len(cell) != self.num_dims:
            raise QueryError(
                f"query cell {cell!r} has {len(cell)} entries, expected {self.num_dims}"
            )
        lists: List[Set[int]] = []
        for dim, value in enumerate(cell):
            if value is None:
                continue
            slots = self._postings[dim].get(value)
            if slots is None:
                return set()
            lists.append(slots)
        if not lists:
            return set(self._slot_of.values())
        lists.sort(key=len)
        result = set(lists[0])
        for slots in lists[1:]:
            result &= slots
            if not result:
                break
        return result

    def specialisations(self, cell: Cell) -> Iterator[Tuple[Cell, CellStats]]:
        """The materialised specialisations of ``cell`` with their stats."""
        for slot in self.specialisation_slots(cell):
            yield self._cells[slot], self._stats[slot]

    def closure_slot(self, cell: Cell) -> Optional[int]:
        """Slot of the closure of ``cell``: its maximum-count specialisation.

        ``None`` when no materialised cell specialises ``cell`` — i.e. the
        query cell is empty or was pruned by the iceberg condition.
        """
        if len(cell) != self.num_dims:
            raise QueryError(
                f"query cell {cell!r} has {len(cell)} entries, expected {self.num_dims}"
            )
        if all(value is None for value in cell):
            return self._best_slot
        best: Optional[int] = None
        for slot in self.specialisation_slots(cell):
            if best is None or self._stats[slot].count > self._stats[best].count:
                best = slot
        return best

    def closure(self, cell: Cell) -> Optional[Tuple[Cell, CellStats]]:
        """The closure cell and its stats, or ``None`` when unanswerable."""
        slot = self.closure_slot(cell)
        if slot is None:
            return None
        return self._cells[slot], self._stats[slot]

    def columns_view(self) -> Optional[List[object]]:
        """Per-dimension ``int64`` arrays over the indexed cells, by slot.

        ``arrays[dim][slot]`` is the cell's fixed value on ``dim``, with
        ``-1`` standing in for ``*`` (value codes are non-negative by
        construction — see :mod:`repro.core.encode`).  Returns ``None`` when
        the active column backend is not vectorized, which tells callers to
        take their per-slot reference path.

        Built over every slot on first use; afterwards only the slots
        appended since are converted (:meth:`add_cells` does so as part of
        the append), into buffers that grow by doubling — so neither a
        publish nor the first slice after one pays for the whole cube again.
        """
        from ..core.columns import get_backend

        np = get_backend().np
        if np is None:
            return None
        cells = self._cells
        total = len(cells)
        filled, columns = self._columns or (0, None)
        if columns is None or filled < total:
            tail = cells[filled:total]
            fresh = [
                np.fromiter(
                    (-1 if cell[dim] is None else cell[dim] for cell in tail),
                    dtype=np.int64,
                    count=len(tail),
                )
                for dim in range(self.num_dims)
            ]
            if columns is None:
                columns = fresh
            elif self.num_dims and total > len(columns[0]):
                capacity = max(total, 2 * len(columns[0]))
                grown = [np.empty(capacity, dtype=np.int64) for _ in columns]
                for new, old, part in zip(grown, columns, fresh):
                    new[:filled] = old[:filled]
                    new[filled:total] = part
                columns = grown
            else:
                # Writes land beyond every view handed out so far.
                for old, part in zip(columns, fresh):
                    old[filled:total] = part
            self._columns = (total, columns)
        return [column[:total] for column in columns]

    def values_on_dimension(self, dim: int) -> Mapping[int, Set[int]]:
        """The posting map of one dimension (used by slice enumeration)."""
        if not 0 <= dim < self.num_dims:
            raise QueryError(f"dimension {dim} outside 0..{self.num_dims - 1}")
        return self._postings[dim]


class PinnedIndex:
    """One version of a :class:`CubeIndex`: the store as of the moment of pinning.

    Cells are never removed and superseded statistics are logged, so that
    moment is recoverable from the live store: its cells are the slots below
    the slot count it had then, and a slot's statistics of the time are the
    first ones logged for it *since* (the live ones when there are none).
    The pin therefore copies nothing — it remembers two lengths and the apex
    slot, and folds the log's tail into a small overlay as it grows.

    Exposes the read surface :class:`repro.query.engine.QueryEngine` and
    :func:`repro.vector.kernels.slice_targets` use.  Readers of a pin take
    the same read lock as readers of the live index (the pinning engine
    shares its lock), so a lookup never runs beside a half-applied append.
    """

    def __init__(self, store: CubeIndex) -> None:
        self._store = store
        self.num_dims = store.num_dims
        #: Slot count of the store when pinned; later slots are invisible.
        self.limit = len(store)
        self._best_slot = store._best_slot
        #: Slot -> its statistics at the pinned version, for the slots
        #: re-pointed since; covers the log up to ``_log_seen``.
        self._overlay: Dict[int, CellStats] = {}
        self._log_seen = store.superseded

    def __len__(self) -> int:
        """Materialised cells at the pinned version."""
        return self.limit

    def cell_at(self, slot: int) -> Cell:
        return self._store._cells[slot]

    def stats_at(self, slot: int) -> CellStats:
        store = self._store
        overlay = self._overlay
        end = store.superseded
        if end > self._log_seen:
            # First supersession since the pin wins: it holds what the slot
            # had at the pinned version.  (Concurrent readers fold the same
            # entries in the same order, so racing here is benign.)
            slots = store._superseded_slots
            stats = store._superseded_stats
            for position in range(self._log_seen, end):
                overlay.setdefault(slots[position], stats[position])
            self._log_seen = end
        return overlay.get(slot) or store._stats[slot]

    def columns_view(self) -> Optional[List[object]]:
        return self._store.columns_view()

    def specialisation_slots(self, cell: Cell) -> Set[int]:
        """As :meth:`CubeIndex.specialisation_slots`, at the pinned version."""
        slots = self._store.specialisation_slots(cell)
        limit = self.limit
        if len(self._store) == limit:
            return slots
        return {slot for slot in slots if slot < limit}

    def closure_slot(self, cell: Cell) -> Optional[int]:
        store = self._store
        if store.superseded == self._log_seen and len(store) == self.limit:
            return store.closure_slot(cell)  # nothing published since the pin
        if len(cell) != self.num_dims:
            raise QueryError(
                f"query cell {cell!r} has {len(cell)} entries, expected {self.num_dims}"
            )
        if all(value is None for value in cell):
            return self._best_slot
        best: Optional[int] = None
        best_count = -1
        for slot in self.specialisation_slots(cell):
            count = self.stats_at(slot).count
            if count > best_count:
                best, best_count = slot, count
        return best

    def closure(self, cell: Cell) -> Optional[Tuple[Cell, CellStats]]:
        slot = self.closure_slot(cell)
        if slot is None:
            return None
        return self._store._cells[slot], self.stats_at(slot)
