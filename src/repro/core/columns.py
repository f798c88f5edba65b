"""Columnar backend seam: NumPy acceleration with a pure-Python fallback.

The hot paths of this package (cubing partition passes, closedness repair in
:mod:`repro.incremental.merge`, slice enumeration in :mod:`repro.query`) are
per-tuple Python loops over :class:`~repro.core.relation.Relation` columns.
This module provides the *one* capability seam those paths accelerate
through:

* :class:`ColumnBackend` — ``numpy`` when the optional dependency is
  importable, else a pure-Python fallback built on :mod:`array` (``'q'`` for
  dimension codes, ``'d'`` for measures).  The package installs with zero
  dependencies on the 3.8 floor; NumPy only ever *speeds things up*.
* :class:`ColumnStore` — cached, append-aware columnar views of one
  relation's dimension and measure columns under a backend.  The relation's
  canonical storage stays plain Python lists (every algorithm indexes
  ``columns[dim][tid]`` directly); the store keeps typed, capacity-doubling
  buffers beside them and extends each by the column's new tail when the
  relation grows, so no kernel pays O(relation) because of an append.

Backend selection is capability-detected once at import and can be forced
for tests and benchmarks: the ``REPRO_COLUMN_BACKEND=python`` environment
variable pins the fallback process-wide, :func:`set_default_backend` /
:func:`use_backend` switch it at runtime.  Every vectorized kernel
(:mod:`repro.vector.kernels`) consults :func:`get_backend` per call, so the
two code paths are swappable under one test — which is exactly how the
lattice-exhaustive suites prove them bit-identical.
"""

from __future__ import annotations

import os
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Optional, Sequence, Tuple

_FORCED = os.environ.get("REPRO_COLUMN_BACKEND", "").strip().lower()

try:  # pragma: no cover - exercised via both CI matrix legs
    if _FORCED in ("python", "fallback"):
        raise ImportError("REPRO_COLUMN_BACKEND pins the pure-Python fallback")
    import numpy as _numpy
except ImportError:  # pragma: no cover - the no-numpy leg
    _numpy = None

#: Whether the optional NumPy dependency imported successfully.
HAS_NUMPY = _numpy is not None


class ColumnBackend:
    """One columnar capability level: typed arrays plus (maybe) NumPy.

    Attributes
    ----------
    name:
        ``"numpy"`` or ``"python"``.
    np:
        The imported ``numpy`` module, or ``None`` for the fallback.  Kernels
        branch on this exactly once per call; everything downstream of a
        ``None`` check is the per-tuple reference path.
    """

    __slots__ = ("name", "np")

    def __init__(self, name: str, np: Optional[object]) -> None:
        self.name = name
        self.np = np

    @property
    def vectorized(self) -> bool:
        """Whether this backend can run the NumPy kernels."""
        return self.np is not None

    def int_array(self, values: Sequence[int]) -> Sequence[int]:
        """A typed snapshot of integer codes (``int64`` / ``array('q')``)."""
        if self.np is not None:
            return self.np.asarray(values, dtype=self.np.int64)
        return array("q", values)

    def float_array(self, values: Sequence[float]) -> Sequence[float]:
        """A typed snapshot of measure values (``float64`` / ``array('d')``)."""
        if self.np is not None:
            return self.np.asarray(values, dtype=self.np.float64)
        return array("d", values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ColumnBackend({self.name!r})"


#: The accelerated backend, present only when NumPy imported.
NUMPY_BACKEND: Optional[ColumnBackend] = (
    ColumnBackend("numpy", _numpy) if HAS_NUMPY else None
)
#: The dependency-free fallback, always available.
PYTHON_BACKEND = ColumnBackend("python", None)

_default_backend: ColumnBackend = NUMPY_BACKEND or PYTHON_BACKEND


def get_backend() -> ColumnBackend:
    """The process-wide default backend (NumPy when available)."""
    return _default_backend


def set_default_backend(name: str) -> ColumnBackend:
    """Pin the default backend by name (``"numpy"`` / ``"python"``).

    Raises :class:`ValueError` for an unknown name and when ``"numpy"`` is
    requested without the dependency installed.
    """
    global _default_backend
    if name == "python":
        _default_backend = PYTHON_BACKEND
    elif name == "numpy":
        if NUMPY_BACKEND is None:
            raise ValueError("numpy backend requested but numpy is not importable")
        _default_backend = NUMPY_BACKEND
    else:
        raise ValueError(f"unknown column backend {name!r}")
    return _default_backend


@contextmanager
def use_backend(name: str) -> Iterator[ColumnBackend]:
    """Temporarily pin the default backend (test/benchmark scaffolding)."""
    global _default_backend
    previous = _default_backend
    backend = set_default_backend(name)
    try:
        yield backend
    finally:
        _default_backend = previous


class ColumnStore:
    """Cached, append-aware columnar views of one relation under one backend.

    :meth:`repro.core.relation.Relation.append_rows` only ever *extends*
    columns, so each typed buffer is kept across appends and extended by the
    column's new tail alone: an access after a 4-row append converts 4
    elements, whatever the relation's size.  Buffers grow by doubling, a view
    is the filled prefix ``buffer[:n]``, and tail writes land beyond every
    view handed out so far — a view taken earlier stays valid (and keeps its
    length) across later appends, including a reallocation, which leaves the
    old buffer to its views.  Under the fallback backend the accessors return
    the relation's own lists (plain-list indexing *is* the fastest
    dependency-free path), so the store never copies unless it accelerates.
    """

    __slots__ = ("relation", "backend", "_dims", "_measures")

    def __init__(self, relation: object, backend: Optional[ColumnBackend] = None) -> None:
        self.relation = relation
        self.backend = backend if backend is not None else get_backend()
        #: Per column: ``(elements filled, buffer)``.  One tuple, replaced
        #: whole, so a concurrent reader sees a matching pair.
        self._dims: Dict[int, Tuple[int, object]] = {}
        self._measures: Dict[int, Tuple[int, object]] = {}

    def _view(
        self,
        cache: Dict[int, Tuple[int, object]],
        key: int,
        column: Sequence[object],
        convert: Callable[[Sequence[object]], object],
    ) -> object:
        total = len(column)
        filled, buffer = cache.get(key) or (0, None)
        if buffer is None or total < filled:
            # First use (or the column was replaced by a shorter one).
            buffer = convert(column)
        elif total > filled:
            if total > len(buffer):
                grown = self.backend.np.empty(
                    max(total, 2 * len(buffer)), dtype=buffer.dtype
                )
                grown[:filled] = buffer[:filled]
                buffer = grown
            buffer[filled:total] = convert(column[filled:total])
        else:
            return buffer[:total]
        cache[key] = (total, buffer)
        return buffer[:total]

    def dimension(self, dim: int) -> Sequence[int]:
        """Columnar view of one dimension column (current length)."""
        column = self.relation.columns[dim]
        if self.backend.np is None:
            return column
        return self._view(self._dims, dim, column, self.backend.int_array)

    def measure(self, index: int) -> Sequence[float]:
        """Columnar view of one measure column (current length)."""
        column = self.relation.measure_columns[index]
        if self.backend.np is None:
            return column
        return self._view(self._measures, index, column, self.backend.float_array)

    def dimensions(self) -> list:
        """Views of every dimension column, in schema order."""
        return [self.dimension(dim) for dim in range(self.relation.num_dimensions)]


def column_store(relation: object) -> ColumnStore:
    """The relation's cached :class:`ColumnStore` for the current backend.

    One store is stashed per relation; switching the default backend (a test
    concern) transparently replaces it so stale views of the other backend
    can never leak across a :func:`use_backend` boundary.
    """
    store = getattr(relation, "_column_store", None)
    backend = get_backend()
    if store is None or store.backend is not backend:
        store = ColumnStore(relation, backend)
        object.__setattr__(relation, "_column_store", store)
    return store
