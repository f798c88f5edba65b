"""Fact-table substrate: schemas, dictionary encoding, and the Relation class.

Every cubing algorithm in this package operates on a :class:`Relation` — an
in-memory, column-oriented fact table whose dimension values have been
dictionary-encoded to small non-negative integers.  The encoding mirrors what
the original C++ systems (BUC, MM-Cubing, Star-Cubing) assume: dimension values
are dense integer ids, tuples are addressed by tuple id (``tid``), and one or
more numeric measure columns ride along with the dimensions.

The class deliberately keeps its internals simple (lists of ints) so that the
algorithms can index into columns directly without paying attribute or method
dispatch costs inside their hot loops.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import EncodingError, SchemaError


@dataclass(frozen=True)
class Schema:
    """Names and order of the dimension and measure columns of a relation."""

    dimension_names: Tuple[str, ...]
    measure_names: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        names = list(self.dimension_names) + list(self.measure_names)
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in schema: {names}")
        if not self.dimension_names:
            raise SchemaError("a schema needs at least one dimension")

    @property
    def num_dimensions(self) -> int:
        return len(self.dimension_names)

    @property
    def num_measures(self) -> int:
        return len(self.measure_names)

    def dimension_index(self, name: str) -> int:
        """Index of the dimension called ``name``."""
        try:
            return self.dimension_names.index(name)
        except ValueError as exc:
            raise SchemaError(f"unknown dimension {name!r}") from exc

    def measure_index(self, name: str) -> int:
        """Index of the measure column called ``name``."""
        try:
            return self.measure_names.index(name)
        except ValueError as exc:
            raise SchemaError(f"unknown measure {name!r}") from exc


@dataclass
class Relation:
    """An integer-encoded fact table.

    Attributes
    ----------
    schema:
        The :class:`Schema` describing the columns.
    columns:
        One list per dimension, each of length ``num_tuples``, holding the
        dictionary-encoded value of that dimension for every tuple.
    measure_columns:
        One list per measure column, each of length ``num_tuples``.
    decoders:
        Per dimension, a mapping from integer code back to the original value.
        Relations built directly from integer data have identity decoders.
    """

    schema: Schema
    columns: List[List[int]]
    measure_columns: List[List[float]] = field(default_factory=list)
    decoders: List[Dict[int, object]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.columns) != self.schema.num_dimensions:
            raise SchemaError(
                f"{len(self.columns)} dimension columns for a schema with "
                f"{self.schema.num_dimensions} dimensions"
            )
        lengths = {len(col) for col in self.columns}
        if len(lengths) > 1:
            raise SchemaError(f"dimension columns have inconsistent lengths: {lengths}")
        if len(self.measure_columns) != self.schema.num_measures:
            raise SchemaError(
                f"{len(self.measure_columns)} measure columns for a schema with "
                f"{self.schema.num_measures} measures"
            )
        for col in self.measure_columns:
            if len(col) != self.num_tuples:
                raise SchemaError("measure column length does not match tuple count")
        if not self.decoders:
            self.decoders = [
                {code: code for code in set(col)} for col in self.columns
            ]

    def __getstate__(self) -> Dict[str, object]:
        # The cached column store stays behind when a relation is pickled to
        # a refresh worker: it is derived state, doubles the payload, and
        # holds the backend's module object, which cannot be pickled at all.
        state = dict(self.__dict__)
        state.pop("_column_store", None)
        return state

    # ------------------------------------------------------------------ #
    # Construction helpers                                                #
    # ------------------------------------------------------------------ #

    @classmethod
    def from_rows(
        cls,
        rows: Sequence[Sequence[object]],
        dimension_names: Optional[Sequence[str]] = None,
        measures: Optional[Mapping[str, Sequence[float]]] = None,
    ) -> "Relation":
        """Build a relation from row-oriented raw data, dictionary-encoding values.

        Parameters
        ----------
        rows:
            A sequence of tuples of raw (hashable) dimension values.
        dimension_names:
            Optional column names; defaults to ``d0, d1, ...``.
        measures:
            Optional mapping from measure name to a per-tuple value sequence.
        """
        if not rows:
            raise SchemaError("cannot build a relation from zero rows")
        num_dims = len(rows[0])
        if any(len(row) != num_dims for row in rows):
            raise SchemaError("all rows must have the same number of dimensions")
        if dimension_names is None:
            dimension_names = [f"d{i}" for i in range(num_dims)]
        measures = dict(measures or {})
        schema = Schema(tuple(dimension_names), tuple(measures.keys()))

        encoders: List[Dict[object, int]] = [{} for _ in range(num_dims)]
        columns: List[List[int]] = [[] for _ in range(num_dims)]
        for row in rows:
            for dim, raw in enumerate(row):
                encoder = encoders[dim]
                code = encoder.get(raw)
                if code is None:
                    code = len(encoder)
                    encoder[raw] = code
                columns[dim].append(code)

        measure_columns = []
        for name, values in measures.items():
            values = list(values)
            if len(values) != len(rows):
                raise SchemaError(
                    f"measure {name!r} has {len(values)} values for {len(rows)} rows"
                )
            measure_columns.append([float(v) for v in values])

        decoders = [
            {code: raw for raw, code in encoder.items()} for encoder in encoders
        ]
        return cls(schema, columns, measure_columns, decoders)

    @classmethod
    def from_columns(
        cls,
        columns: Sequence[Sequence[int]],
        dimension_names: Optional[Sequence[str]] = None,
        measures: Optional[Mapping[str, Sequence[float]]] = None,
    ) -> "Relation":
        """Build a relation from already integer-encoded dimension columns."""
        if not columns:
            raise SchemaError("cannot build a relation with zero dimensions")
        if dimension_names is None:
            dimension_names = [f"d{i}" for i in range(len(columns))]
        measures = dict(measures or {})
        schema = Schema(tuple(dimension_names), tuple(measures.keys()))
        int_columns = [list(map(int, col)) for col in columns]
        for col in int_columns:
            if any(v < 0 for v in col):
                raise EncodingError("encoded dimension values must be non-negative")
        measure_columns = [list(map(float, vals)) for vals in measures.values()]
        return cls(schema, int_columns, measure_columns)

    @classmethod
    def from_csv(
        cls,
        path: str,
        dimension_names: Sequence[str],
        measure_names: Sequence[str] = (),
        delimiter: str = ",",
    ) -> "Relation":
        """Load a relation from a CSV file with a header row.

        Columns named in ``dimension_names`` are dictionary-encoded; columns in
        ``measure_names`` are parsed as floats; other columns are ignored.
        """
        rows: List[Tuple[object, ...]] = []
        measure_values: Dict[str, List[float]] = {name: [] for name in measure_names}
        with open(path, newline="") as handle:
            reader = csv.DictReader(handle, delimiter=delimiter)
            if reader.fieldnames is None:
                raise SchemaError(f"CSV file {path!r} has no header row")
            missing = [
                name
                for name in list(dimension_names) + list(measure_names)
                if name not in reader.fieldnames
            ]
            if missing:
                raise SchemaError(f"CSV file {path!r} is missing columns {missing}")
            for record in reader:
                rows.append(tuple(record[name] for name in dimension_names))
                for name in measure_names:
                    measure_values[name].append(float(record[name]))
        return cls.from_rows(rows, dimension_names, measure_values)

    # ------------------------------------------------------------------ #
    # Basic accessors                                                     #
    # ------------------------------------------------------------------ #

    @property
    def num_tuples(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    @property
    def num_dimensions(self) -> int:
        return self.schema.num_dimensions

    def column_store(self) -> "object":
        """Cached columnar views of this relation (see :mod:`repro.core.columns`).

        The canonical storage stays plain lists — algorithms index
        ``columns[dim][tid]`` directly — but vectorized kernels go through
        the store's typed buffers, extended by the new tail after appends.
        """
        from .columns import column_store

        return column_store(self)

    def cardinality(self, dim: int) -> int:
        """Number of distinct values appearing in dimension ``dim``."""
        from .columns import column_store

        store = column_store(self)
        if store.backend.np is not None and self.num_tuples >= 1024:
            return int(store.backend.np.unique(store.dimension(dim)).size)
        return len(set(self.columns[dim]))

    def cardinalities(self) -> Tuple[int, ...]:
        """Per-dimension distinct value counts."""
        return tuple(self.cardinality(dim) for dim in range(self.num_dimensions))

    def value(self, tid: int, dim: int) -> int:
        """Encoded value of tuple ``tid`` on dimension ``dim``."""
        return self.columns[dim][tid]

    def row(self, tid: int) -> Tuple[int, ...]:
        """The full encoded dimension tuple of tuple ``tid``."""
        return tuple(self.columns[dim][tid] for dim in range(self.num_dimensions))

    def rows(self) -> Iterable[Tuple[int, ...]]:
        """Iterate over all encoded dimension tuples in tid order."""
        for tid in range(self.num_tuples):
            yield self.row(tid)

    def measure_value(self, tid: int, measure: int) -> float:
        """Value of measure column ``measure`` for tuple ``tid``."""
        return self.measure_columns[measure][tid]

    def decode(self, dim: int, code: int) -> object:
        """Original raw value behind an encoded dimension value."""
        try:
            return self.decoders[dim][code]
        except KeyError as exc:
            raise EncodingError(
                f"code {code} is not a known value of dimension "
                f"{self.schema.dimension_names[dim]!r}"
            ) from exc

    def encoder(self, dim: int) -> Dict[object, int]:
        """The value dictionary of dimension ``dim``: raw value -> code.

        The inverse of :attr:`decoders`; built lazily and cached (the
        dictionaries are append-only once the relation exists).  This is the
        encode half of the value-dictionary layer the named session API
        (:mod:`repro.session`) uses to translate raw query values.
        """
        encoders = getattr(self, "_encoders", None)
        if encoders is None:
            encoders = [None] * self.num_dimensions
            object.__setattr__(self, "_encoders", encoders)
        if encoders[dim] is None:
            encoders[dim] = {raw: code for code, raw in self.decoders[dim].items()}
        return encoders[dim]

    def encode(self, dim: int, raw: object) -> int:
        """Code of raw value ``raw`` on dimension ``dim``.

        Raises :class:`EncodingError` when the value never appears in the
        relation; use :meth:`try_encode` for the non-raising variant.
        """
        code = self.encoder(dim).get(raw)
        if code is None:
            raise EncodingError(
                f"value {raw!r} does not appear in dimension "
                f"{self.schema.dimension_names[dim]!r}"
            )
        return code

    def try_encode(self, dim: int, raw: object) -> Optional[int]:
        """Code of ``raw`` on dimension ``dim``, or ``None`` if it never appears."""
        return self.encoder(dim).get(raw)

    def decode_cell(self, cell: Sequence[Optional[int]]) -> Tuple[object, ...]:
        """Decode a group-by cell to raw values (``None`` entries stay ``None``)."""
        return tuple(
            None if code is None else self.decode(dim, code)
            for dim, code in enumerate(cell)
        )

    # ------------------------------------------------------------------ #
    # Append (incremental growth)                                         #
    # ------------------------------------------------------------------ #

    def append_rows(
        self,
        rows: Sequence[Sequence[object]],
        measures: Optional[Mapping[str, Sequence[float]]] = None,
    ) -> Tuple[int, int]:
        """Append raw rows in place, growing the value dictionaries append-only.

        ``rows`` carry raw dimension values (one entry per dimension, schema
        order); values already in a dimension's dictionary reuse their code,
        unseen values are assigned the next free code — existing codes are
        never reassigned, so every previously computed cube, index, and cached
        answer over this relation stays valid.  ``measures`` maps each measure
        column name to the per-row values (required exactly when the schema
        declares measures).

        Returns the ``(start_tid, end_tid)`` half-open tid range of the
        appended tuples — the delta window incremental maintenance
        (:mod:`repro.incremental`) sweeps.
        """
        start_tid = self.num_tuples
        if not rows:
            # Explicit no-op: an empty append returns the empty tid window
            # without validating measures or touching any column, mirroring
            # the no-op AppendReport of ServingCube.append([]).
            return start_tid, start_tid
        num_dims = self.num_dimensions
        if any(len(row) != num_dims for row in rows):
            raise SchemaError(
                f"appended rows must have {num_dims} dimension values each"
            )
        measures = dict(measures or {})
        if set(measures) != set(self.schema.measure_names):
            raise SchemaError(
                f"appended measures {sorted(measures)} do not match the "
                f"schema's {list(self.schema.measure_names)}"
            )
        measure_values: List[List[float]] = []
        for name in self.schema.measure_names:
            values = [float(v) for v in measures[name]]
            if len(values) != len(rows):
                raise SchemaError(
                    f"measure {name!r} has {len(values)} values for "
                    f"{len(rows)} appended rows"
                )
            measure_values.append(values)

        # Encode into staging buffers first: a mid-row failure (e.g. an
        # unhashable value) must leave the relation untouched, not with
        # unequal column lengths.  Dictionary growth is safe to apply while
        # staging — extra codes for rows that never land are harmless, codes
        # are never reassigned.
        encoders = [self.encoder(dim) for dim in range(num_dims)]
        staged: List[List[int]] = [[] for _ in range(num_dims)]
        for row in rows:
            for dim, raw in enumerate(row):
                encoder = encoders[dim]
                code = encoder.get(raw)
                if code is None:
                    code = len(encoder)
                    encoder[raw] = code
                    self.decoders[dim][code] = raw
                staged[dim].append(code)
        for dim, codes in enumerate(staged):
            self.columns[dim].extend(codes)
        for index, values in enumerate(measure_values):
            self.measure_columns[index].extend(values)
        return start_tid, self.num_tuples

    # ------------------------------------------------------------------ #
    # Transformations                                                     #
    # ------------------------------------------------------------------ #

    def reorder_dimensions(self, order: Sequence[int]) -> "Relation":
        """Return a new relation with dimensions permuted into ``order``.

        ``order`` must be a permutation of ``range(num_dimensions)``.  Measure
        columns are carried over unchanged.  Used by the dimension-ordering
        heuristics of Section 5.5.
        """
        if sorted(order) != list(range(self.num_dimensions)):
            raise SchemaError(f"{order!r} is not a permutation of the dimensions")
        schema = Schema(
            tuple(self.schema.dimension_names[d] for d in order),
            self.schema.measure_names,
        )
        columns = [self.columns[d] for d in order]
        decoders = [self.decoders[d] for d in order]
        return Relation(schema, columns, self.measure_columns, decoders)

    def select(self, tids: Sequence[int]) -> "Relation":
        """Return a new relation containing only the given tuple ids (in order)."""
        if isinstance(tids, range) and tids.step == 1:
            # The delta-window case (appends select a contiguous suffix):
            # one C-speed slice per column instead of a per-tid loop.
            start, stop = tids.start, tids.stop
            columns = [col[start:stop] for col in self.columns]
            measure_columns = [col[start:stop] for col in self.measure_columns]
            return Relation(self.schema, columns, measure_columns, self.decoders)
        from .columns import column_store

        store = column_store(self)
        if store.backend.np is not None and len(tids) >= 1024:
            np = store.backend.np
            index = np.asarray(tids, dtype=np.int64)
            columns = [
                store.dimension(dim)[index].tolist()
                for dim in range(self.num_dimensions)
            ]
            measure_columns = [
                store.measure(m)[index].tolist()
                for m in range(self.schema.num_measures)
            ]
            return Relation(self.schema, columns, measure_columns, self.decoders)
        columns = [[col[tid] for tid in tids] for col in self.columns]
        measure_columns = [[col[tid] for tid in tids] for col in self.measure_columns]
        return Relation(self.schema, columns, measure_columns, self.decoders)

    def project(self, dims: Sequence[int]) -> "Relation":
        """Return a new relation keeping only the given dimensions (plus measures)."""
        if not dims:
            raise SchemaError("projection needs at least one dimension")
        schema = Schema(
            tuple(self.schema.dimension_names[d] for d in dims),
            self.schema.measure_names,
        )
        columns = [self.columns[d] for d in dims]
        decoders = [self.decoders[d] for d in dims]
        return Relation(schema, columns, self.measure_columns, decoders)

    def to_csv(self, path: str, decode: bool = True) -> None:
        """Write the relation to a CSV file with a header row."""
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(
                list(self.schema.dimension_names) + list(self.schema.measure_names)
            )
            for tid in range(self.num_tuples):
                row: List[object] = []
                for dim in range(self.num_dimensions):
                    code = self.columns[dim][tid]
                    row.append(self.decode(dim, code) if decode else code)
                for measure in range(self.schema.num_measures):
                    row.append(self.measure_columns[measure][tid])
                writer.writerow(row)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Relation(dims={self.schema.dimension_names}, "
            f"tuples={self.num_tuples}, cardinalities={self.cardinalities()})"
        )
