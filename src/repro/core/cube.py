"""Cube results: the common output container of every cubing algorithm.

A :class:`CubeResult` maps group-by cells (see :mod:`repro.core.cell`) to
their aggregated statistics (:class:`CellStats`).  Besides acting as the
return type of every algorithm, it provides the operations the evaluation
needs:

* equality / diff between cubes (used by the correctness tests),
* point and roll-up queries,
* the *quotient-cube closure query* — answering a query on any (possibly
  non-materialised) cell from the closed cube alone, which is what makes the
  closed cube a lossless compression,
* cube size accounting in cells and estimated bytes (Figures 13 and 14),
* incremental maintenance — :meth:`CubeResult.merge` folds appended tuples
  into this cube by aggregation-based checking
  (:mod:`repro.incremental.merge`).

Together with its closure index (:class:`repro.query.index.CubeIndex`) a cube
is one **versioned, append-only store**.  A :class:`CellStats` is never
mutated once recorded: maintenance hands :meth:`CubeResult.apply` a *new*
stats object per added or grown cell, the cell map and the cell's index slot
are re-pointed at it, and the index logs the superseded object.  That makes
one maintenance step cost O(changed cells) — nothing is cloned, nothing is
re-indexed — and lets readers pin a version by remembering two lengths
(:class:`repro.query.index.PinnedIndex`).  ``docs/PAPER_NOTES.md`` ("closedness
+ monotone counts make publish O(delta)") has the argument for why an
append-only store is all that append-only maintenance of a closed cube needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .cell import (
    Cell,
    cell_arity,
    format_cell,
    is_specialisation,
    sort_key,
    tuple_matches,
)
from .errors import ValidationError
from .measures import MeasureSet
from .relation import Relation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..incremental.merge import MergeReport


@dataclass
class CellStats:
    """Aggregated statistics of one output cell.

    ``count`` is always present (it is both the iceberg measure and the basis
    of closedness).  ``measures`` holds any payload measure values keyed by
    measure name.  ``rep_tid`` is the representative tuple id when the
    producing algorithm tracked one (the closed algorithms do); it is not part
    of cube equality.

    Treat instances as immutable once they are in a cube: pinned readers and
    the index's supersession log keep referring to the object they were given.
    """

    count: int
    measures: Dict[str, float] = field(default_factory=dict)
    rep_tid: Optional[int] = None

    def key(self) -> Tuple:
        """The part of the stats that participates in cube equality."""
        return (self.count, tuple(sorted(self.measures.items())))


#: Rough per-cell storage cost model used for the cube-size figures: one
#: 32-bit word per dimension value plus one 64-bit word for the count.  The
#: absolute constant does not matter for the figures (they compare sizes of
#: two cubes over the same schema); it just keeps the reported unit in bytes.
BYTES_PER_DIM = 4
BYTES_PER_COUNT = 8


class CubeResult:
    """A set of output cells with their aggregated statistics."""

    def __init__(self, num_dims: int, name: str = "") -> None:
        self.num_dims = num_dims
        self.name = name
        #: Every live cell's *latest* statistics.
        self._cells: Dict[Cell, CellStats] = {}
        #: Lazily built closure index (see :meth:`closure_index`); once built
        #: it is extended by :meth:`add` / :meth:`apply`, so reads never
        #: observe a stale view and serving engines keep their index across
        #: incremental merges.
        self._closure_index: Optional[object] = None
        #: The payload measure set the producing run aggregated, attached by
        #: :meth:`repro.algorithms.base.CubingAlgorithm.run`.  Incremental
        #: maintenance uses it to reconstruct mergeable measure states from
        #: the finalised per-cell values (see :meth:`merge`).
        self.measure_set: Optional[MeasureSet] = None

    # ------------------------------------------------------------------ #
    # Mutation                                                            #
    # ------------------------------------------------------------------ #

    def add(
        self,
        cell: Cell,
        count: int,
        measures: Optional[Dict[str, float]] = None,
        rep_tid: Optional[int] = None,
    ) -> None:
        """Record an output cell.

        Adding the same cell twice is always a bug in a cubing algorithm
        (every group-by cell must be produced exactly once), so it raises
        :class:`ValidationError` rather than silently overwriting.
        """
        if len(cell) != self.num_dims:
            raise ValidationError(
                f"cell {cell!r} has {len(cell)} entries, expected {self.num_dims}"
            )
        if cell in self._cells:
            raise ValidationError(f"cell {cell!r} emitted twice")
        stats = CellStats(count, dict(measures or {}), rep_tid)
        self._cells[cell] = stats
        if self._closure_index is not None:
            self._closure_index.add_cells([(cell, stats)])

    def apply(self, slots: Sequence[Tuple[Cell, CellStats]]) -> None:
        """Record the next version of each given cell (the maintenance write).

        The counterpart of :meth:`add` for incremental merges, which
        legitimately *grow* existing cells: every ``(cell, stats)`` pair
        either adds a new cell or supersedes the cell's current statistics.
        Nothing is mutated — the cell map, and a live closure index's slot
        for the cell, are re-pointed at the given stats object — so the cost
        is O(len(slots)) and earlier versions stay readable through
        :class:`repro.query.index.PinnedIndex`.
        """
        self._cells.update(slots)
        if self._closure_index is not None:
            self._closure_index.add_cells(slots)

    def merge(
        self,
        relation: Relation,
        start_tid: int,
        measures: Optional[MeasureSet] = None,
    ) -> "MergeReport":
        """Fold the tuples ``start_tid..`` of ``relation`` into this cube.

        This cube must be the *full closed* cube (``closed=True, min_sup=1``)
        of ``relation``'s first ``start_tid`` tuples, computed with
        representative-tuple tracking; ``relation`` is the grown fact table
        (see :meth:`repro.core.relation.Relation.append_rows`).  ``measures``
        overrides the measure set used to merge payload values; by default
        the cube's own :attr:`measure_set` is used.

        Applies the result to this cube (cells added and superseded, never
        removed — appending tuples can only create or grow closed cells)
        through :meth:`apply`, which keeps a live closure index current.  A
        *served* cube is not merged this way: its maintainer evaluates the
        merge with ``apply=False`` and lands the slots inside
        :meth:`repro.query.engine.QueryEngine.publish`.  See
        :mod:`repro.incremental.merge` for the algorithm and the argument
        for its exactness.
        """
        from ..incremental.merge import merge_closed_cubes

        return merge_closed_cubes(self, relation, start_tid, measures=measures)

    def clone(self) -> "CubeResult":
        """An independent copy of the store, without superseded statistics.

        The compacting rebuild: appends leave one superseded statistics
        record behind per grown cell (kept for pinned views), and once those
        outnumber the live cells the maintainer swaps in a clone
        (:meth:`repro.query.engine.QueryEngine.swap_store`) — an O(closed
        cube) step, all of it C-speed container copies, amortised over the
        appends that made it necessary.  The clone has its own cell map and,
        when this cube's closure index is built, its own copy of that (same
        slots, empty log); the :class:`CellStats` objects are shared, which
        is safe because they are immutable.  Writes to either cube never show
        in the other.
        """
        other = CubeResult(self.num_dims, name=self.name)
        other._cells = dict(self._cells)
        if self._closure_index is not None:
            other._closure_index = self._closure_index.compacted()
        other.measure_set = self.measure_set
        return other

    # ------------------------------------------------------------------ #
    # Container protocol                                                  #
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._cells)

    def __contains__(self, cell: Cell) -> bool:
        return cell in self._cells

    def __iter__(self) -> Iterator[Cell]:
        return iter(self._cells)

    def __getitem__(self, cell: Cell) -> CellStats:
        return self._cells[cell]

    def get(self, cell: Cell) -> Optional[CellStats]:
        return self._cells.get(cell)

    def items(self) -> Iterable[Tuple[Cell, CellStats]]:
        return self._cells.items()

    def cells(self) -> List[Cell]:
        """All cells in a stable, human-friendly order."""
        return sorted(self._cells, key=sort_key)

    # ------------------------------------------------------------------ #
    # Comparison                                                          #
    # ------------------------------------------------------------------ #

    def same_cells(self, other: "CubeResult") -> bool:
        """``True`` iff both cubes contain exactly the same cells and counts."""
        if self.num_dims != other.num_dims or len(self) != len(other):
            return False
        for cell, stats in self._cells.items():
            other_stats = other.get(cell)
            if other_stats is None or other_stats.key() != stats.key():
                return False
        return True

    def diff(self, other: "CubeResult", limit: int = 20) -> str:
        """Human-readable difference report, used in test failure messages."""
        lines: List[str] = []
        missing = [cell for cell in self._cells if cell not in other._cells]
        extra = [cell for cell in other._cells if cell not in self._cells]
        changed = [
            cell
            for cell, stats in self._cells.items()
            if cell in other._cells and other._cells[cell].key() != stats.key()
        ]
        for label, cells in (("missing", missing), ("extra", extra), ("changed", changed)):
            for cell in sorted(cells, key=sort_key)[:limit]:
                lines.append(f"{label}: {cell}")
        if not lines:
            lines.append("(no differences)")
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    # Queries                                                             #
    # ------------------------------------------------------------------ #

    def count_of(self, cell: Cell) -> Optional[int]:
        """Count of a materialised cell, or ``None`` if it is not in the cube."""
        stats = self._cells.get(cell)
        return stats.count if stats is not None else None

    def closure_index(self):
        """The lazily built inverted index used by :meth:`closure_query`.

        Returns a :class:`repro.query.index.CubeIndex` over the current
        cells, built on first use and thereafter extended by :meth:`add` /
        :meth:`apply` — the same object stays valid across incremental
        merges, which is what lets serving engines keep their index warm
        while the cube grows.  The import is deferred
        to keep the package layering one-way at import time (``repro.query``
        builds on ``repro.core``; the core only reaches back at call time).
        """
        if self._closure_index is None:
            from ..query.index import CubeIndex

            self._closure_index = CubeIndex.from_cube(self)
        return self._closure_index

    def closure_query(self, cell: Cell) -> Optional[CellStats]:
        """Answer a query on ``cell`` from a *closed* cube (quotient semantics).

        The answer for any cell equals the answer of its closure — the most
        specific closed cell that is a specialisation of it with the same
        tuple set.  From the closed cube alone the closure is the closed
        specialisation of ``cell`` with the **maximum count** (any closed cell
        that specialises ``cell`` aggregates a subset of its tuples; the
        closure aggregates all of them).  Returns ``None`` when ``cell`` is
        empty or was pruned by the iceberg condition.

        Resolution is backed by the inverted :meth:`closure_index`; see
        :meth:`closure_query_scan` for the unindexed baseline.
        """
        found = self.closure_index().closure(cell)
        return found[1] if found is not None else None

    def closure_query_scan(self, cell: Cell) -> Optional[CellStats]:
        """Linear-scan closure resolution (the pre-index baseline).

        Kept as the reference implementation: the correctness tests check the
        index against it, and ``benchmarks/bench_query_throughput.py`` uses it
        as the naive per-query cost the serving layer is measured against.
        """
        best: Optional[CellStats] = None
        for other, stats in self._cells.items():
            if is_specialisation(cell, other):
                if best is None or stats.count > best.count:
                    best = stats
        return best

    def cells_at_arity(self, arity: int) -> List[Cell]:
        """Cells of the ``arity``-dimensional cuboids."""
        return [cell for cell in self._cells if cell_arity(cell) == arity]

    # ------------------------------------------------------------------ #
    # Size accounting (Figures 13-14)                                     #
    # ------------------------------------------------------------------ #

    def size_cells(self) -> int:
        """Number of materialised cells."""
        return len(self._cells)

    def size_bytes(self) -> int:
        """Estimated storage footprint under the flat-record cost model."""
        per_cell = self.num_dims * BYTES_PER_DIM + BYTES_PER_COUNT
        return len(self._cells) * per_cell

    def size_megabytes(self) -> float:
        """Estimated storage footprint in MB (the unit used by the paper)."""
        return self.size_bytes() / (1024.0 * 1024.0)

    # ------------------------------------------------------------------ #
    # Rendering                                                           #
    # ------------------------------------------------------------------ #

    def to_rows(self) -> List[Tuple[Cell, int]]:
        """(cell, count) pairs in stable order; convenient for tests and demos."""
        return [(cell, self._cells[cell].count) for cell in self.cells()]

    def to_named_rows(self, relation: Relation) -> List[Tuple[Dict[str, object], int]]:
        """(coordinates, count) pairs with decoded values keyed by dimension name.

        Aggregated (``*``) dimensions are omitted from the coordinate mapping,
        mirroring how the named session API (:mod:`repro.session`) renders
        answers.
        """
        names = relation.schema.dimension_names
        rows: List[Tuple[Dict[str, object], int]] = []
        for cell in self.cells():
            coords = {
                names[dim]: relation.decode(dim, code)
                for dim, code in enumerate(cell)
                if code is not None
            }
            rows.append((coords, self._cells[cell].count))
        return rows

    def format(
        self, relation: Optional[Relation] = None, limit: Optional[int] = None
    ) -> str:
        """Pretty-print the cube, optionally decoding values via ``relation``."""
        names = relation.schema.dimension_names if relation is not None else None
        decoders = relation.decoders if relation is not None else None
        lines = []
        for cell in self.cells()[: limit if limit is not None else len(self._cells)]:
            stats = self._cells[cell]
            rendered = format_cell(cell, names, decoders)
            lines.append(f"{rendered} : count={stats.count}" +
                         ("" if not stats.measures else f" {stats.measures}"))
        if limit is not None and len(self._cells) > limit:
            lines.append(f"... ({len(self._cells) - limit} more cells)")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" {self.name!r}" if self.name else ""
        return f"CubeResult({label} dims={self.num_dims}, cells={len(self._cells)})"


def count_matching_tuples(relation: Relation, cell: Cell) -> int:
    """Count base-table tuples aggregating into ``cell`` (brute force)."""
    return sum(1 for row in relation.rows() if tuple_matches(cell, row))
