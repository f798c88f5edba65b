"""Cell model for group-by cells of a data cube.

A *cell* over a ``D``-dimensional relation is represented as a plain tuple of
length ``D`` whose entries are either an integer dimension code or ``None``
(the paper's ``*`` / "all" value).  Plain tuples keep the hot paths of the
cubing algorithms cheap (hashable, comparable, no attribute overhead) while
this module provides the vocabulary around them:

* construction helpers (:func:`make_cell`, :func:`cell_from_mapping`),
* the *All Mask* of a cell (Definition 8 of the paper),
* cover / specialisation relations between cells (Definition 3),
* human-readable formatting against a schema.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import SchemaError

#: Type alias for a group-by cell: one entry per dimension, ``None`` meaning
#: the aggregated ``*`` value.
Cell = Tuple[Optional[int], ...]

#: The symbol used when rendering an aggregated dimension.
STAR = "*"


def make_cell(num_dims: int, assignment: Dict[int, int]) -> Cell:
    """Build a cell with ``num_dims`` dimensions from a sparse assignment.

    ``assignment`` maps dimension index to the fixed value; every other
    dimension becomes ``*``.

    >>> make_cell(4, {0: 3, 2: 1})
    (3, None, 1, None)
    """
    if not all(0 <= dim < num_dims for dim in assignment):
        raise SchemaError(
            f"assignment {assignment!r} references dimensions outside 0..{num_dims - 1}"
        )
    return tuple(assignment.get(dim) for dim in range(num_dims))


def cell_from_mapping(num_dims: int, values: Sequence[Optional[int]]) -> Cell:
    """Coerce a sequence of per-dimension values into a :data:`Cell`.

    The sequence must have exactly ``num_dims`` entries.
    """
    values = tuple(values)
    if len(values) != num_dims:
        raise SchemaError(
            f"cell has {len(values)} entries but the schema has {num_dims} dimensions"
        )
    return values


def apex_cell(num_dims: int) -> Cell:
    """The all-``*`` cell (the apex cuboid's single cell)."""
    return (None,) * num_dims


def cell_dimensions(cell: Cell) -> Tuple[int, ...]:
    """Indices of the dimensions on which ``cell`` is fixed (non-``*``)."""
    return tuple(dim for dim, value in enumerate(cell) if value is not None)


def cell_arity(cell: Cell) -> int:
    """Number of non-``*`` dimensions (the ``k`` of a k-dimensional cell)."""
    return sum(1 for value in cell if value is not None)


def all_mask(cell: Cell) -> int:
    """The *All Mask* of a cell (Definition 8).

    Bit ``d`` is set iff the cell has ``*`` on dimension ``d``.  The mask is
    returned as a Python integer used as a bit set.
    """
    mask = 0
    for dim, value in enumerate(cell):
        if value is None:
            mask |= 1 << dim
    return mask


def fixed_mask(cell: Cell) -> int:
    """The complement of the :func:`all_mask`: bit ``d`` set iff ``d`` is fixed.

    For a *closed* cell this is exactly its Closed Mask (Definition 7): every
    tuple of the cell shares the cell's value on each fixed dimension, and —
    because the cell is closed — no ``*`` dimension has a single shared value.
    That equality is what makes the closedness state of a closed cell
    reconstructible after the fact (see :func:`repro.core.closedness.
    closed_cell_state`) and hence closed cubes mergeable
    (:mod:`repro.incremental`).
    """
    mask = 0
    for dim, value in enumerate(cell):
        if value is not None:
            mask |= 1 << dim
    return mask


def is_specialisation(general: Cell, specific: Cell) -> bool:
    """``True`` iff ``general`` <= ``specific`` in the paper's ``V(c) <= V(c')`` order.

    Every fixed dimension of ``general`` must carry the same value in
    ``specific``; ``specific`` may fix additional dimensions.  A cell is a
    specialisation of itself.
    """
    if len(general) != len(specific):
        raise SchemaError("cells being compared must have the same dimensionality")
    for g_value, s_value in zip(general, specific):
        if g_value is not None and g_value != s_value:
            return False
    return True


def is_strict_specialisation(general: Cell, specific: Cell) -> bool:
    """``True`` iff ``general < specific`` (specialisation and not equal)."""
    return general != specific and is_specialisation(general, specific)


def merge_cells(first: Cell, second: Cell) -> Optional[Cell]:
    """Least upper bound of two cells if they are compatible, else ``None``.

    Two cells are compatible when they agree on every dimension fixed by both.
    The merge fixes the union of their fixed dimensions.
    """
    if len(first) != len(second):
        raise SchemaError("cells being merged must have the same dimensionality")
    merged: List[Optional[int]] = []
    for f_value, s_value in zip(first, second):
        if f_value is None:
            merged.append(s_value)
        elif s_value is None or s_value == f_value:
            merged.append(f_value)
        else:
            return None
    return tuple(merged)


def meet_cells(first: Cell, second: Cell) -> Cell:
    """Greatest common generalisation of two cells (the lattice *meet*).

    A dimension is fixed in the meet iff both cells fix it to the same value;
    every other dimension becomes ``*``.  Unlike :func:`merge_cells` (the
    join, which may not exist) the meet always exists — in the worst case it
    is the apex cell.  It is what the Lemma 3 merge of two closedness states
    computes: over a union of two relations, a cell's closure is the meet of
    its closures on each side (see :mod:`repro.incremental.merge`).
    """
    if len(first) != len(second):
        raise SchemaError("cells being met must have the same dimensionality")
    return tuple(
        f_value if f_value is not None and f_value == s_value else None
        for f_value, s_value in zip(first, second)
    )


def generalisations(cell: Cell) -> Iterable[Cell]:
    """All generalisations of ``cell``: every subset of its fixed dimensions kept.

    Yields ``2^arity`` cells, including ``cell`` itself and the apex.  This is
    the single-cell reference enumeration (used by tests as an oracle); the
    incremental merge enumerates the generalisations of *all* appended rows
    at once, each shared cell once, with the top-down sweep of
    :func:`repro.vector.kernels.delta_support_sweep`.
    """
    from itertools import combinations

    fixed = [dim for dim, value in enumerate(cell) if value is not None]
    for arity in range(len(fixed) + 1):
        for kept in combinations(fixed, arity):
            keep = set(kept)
            yield tuple(
                value if dim in keep else None for dim, value in enumerate(cell)
            )


def project_cell(cell: Cell, dims: Iterable[int]) -> Cell:
    """Keep only the dimensions in ``dims`` fixed; every other dimension becomes ``*``."""
    keep = set(dims)
    return tuple(value if dim in keep else None for dim, value in enumerate(cell))


def tuple_matches(cell: Cell, row: Sequence[int]) -> bool:
    """``True`` iff the base-table ``row`` aggregates into ``cell``."""
    for value, row_value in zip(cell, row):
        if value is not None and value != row_value:
            return False
    return True


def format_cell(cell: Cell, dimension_names: Optional[Sequence[str]] = None,
                decoders: Optional[Sequence[Dict[int, object]]] = None) -> str:
    """Render a cell as ``(dim=value, ...)`` text.

    ``dimension_names`` supplies labels; ``decoders`` optionally maps integer
    codes back to the original values (as produced by
    :class:`repro.core.relation.Relation`).
    """
    parts = []
    for dim, value in enumerate(cell):
        name = dimension_names[dim] if dimension_names else f"d{dim}"
        if value is None:
            rendered = STAR
        elif decoders is not None:
            rendered = str(decoders[dim].get(value, value))
        else:
            rendered = str(value)
        parts.append(f"{name}={rendered}")
    return "(" + ", ".join(parts) + ")"


def sort_key(cell: Cell) -> Tuple:
    """Stable ordering key: by arity, then by dimension pattern, then values."""
    return (
        cell_arity(cell),
        tuple(0 if value is None else 1 for value in cell),
        tuple(-1 if value is None else value for value in cell),
    )
