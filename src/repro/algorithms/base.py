"""Common plumbing for cubing algorithms: options, the ABC, and the registry.

Every algorithm in :mod:`repro.algorithms` is a subclass of
:class:`CubingAlgorithm` and is registered under one or more names (the names
used in the paper's figures, e.g. ``"c-cubing-star"`` or ``"qc-dfs"``).  The
public API (:mod:`repro.core.api`) and the benchmark harness look algorithms up
through :func:`get_algorithm` so that figure specifications can refer to them
by name.
"""

from __future__ import annotations

import difflib
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Type

from ..core.cube import CubeResult
from ..core.errors import AlgorithmError, UnknownAlgorithmError
from ..core.measures import IcebergCondition, MeasureSet
from ..core.ordering import resolve_order
from ..core.relation import Relation


@dataclass(frozen=True)
class CubingOptions:
    """Options shared by every cubing algorithm.

    Attributes
    ----------
    min_sup:
        The iceberg threshold on ``count`` (Definition 2).  ``1`` computes the
        full (closed) cube.
    closed:
        When ``True`` the algorithm emits only closed cells; algorithms that
        cannot compute closed cubes reject this flag.
    measures:
        Payload measures aggregated alongside ``count``.
    iceberg:
        Full iceberg condition; when ``None`` it is derived from ``min_sup``.
    dimension_order:
        Ordering strategy for order-sensitive algorithms — a strategy name
        (``"original"``, ``"cardinality"``, ``"entropy"``), an explicit
        permutation, a callable, or ``None``.
    initial_collapsed:
        Dimensions to treat as collapsed from the start (their output value is
        always ``*``).  Used by the partitioned-computation driver
        (Section 6.3) to compute the ``*``-slice of a partitioning dimension.
    """

    min_sup: int = 1
    closed: bool = False
    measures: MeasureSet = field(default_factory=MeasureSet)
    iceberg: Optional[IcebergCondition] = None
    dimension_order: object = None
    initial_collapsed: Sequence[int] = ()

    def resolved_iceberg(self) -> IcebergCondition:
        """The iceberg condition, built from ``min_sup`` when not given explicitly."""
        if self.iceberg is not None:
            if self.iceberg.min_sup != self.min_sup:
                raise AlgorithmError(
                    "iceberg.min_sup and options.min_sup disagree "
                    f"({self.iceberg.min_sup} vs {self.min_sup})"
                )
            return self.iceberg
        return IcebergCondition(min_sup=self.min_sup)

    def with_overrides(self, **kwargs: object) -> "CubingOptions":
        """A copy of these options with some fields replaced."""
        return replace(self, **kwargs)  # type: ignore[arg-type]


@dataclass
class RunResult:
    """A cube together with bookkeeping the benchmark harness cares about."""

    cube: CubeResult
    elapsed_seconds: float
    algorithm: str
    stats: Dict[str, int] = field(default_factory=dict)


class CubingAlgorithm(ABC):
    """Base class of every cubing algorithm.

    Subclasses implement :meth:`compute`; the base class provides option
    validation, timing (:meth:`run`), and dimension-order resolution.
    """

    #: Primary registry name.
    name: str = "abstract"
    #: ``True`` when the algorithm can emit closed cubes.
    supports_closed: bool = False
    #: ``True`` when the algorithm can emit non-closed (iceberg) cubes.
    supports_non_closed: bool = True
    #: ``True`` when the algorithm can aggregate payload measures alongside
    #: ``count`` (the star family aggregates count only).
    supports_measures: bool = True
    #: ``True`` when the result depends on the dimension order option.
    order_sensitive: bool = False

    def __init__(self, options: Optional[CubingOptions] = None) -> None:
        self.options = options or CubingOptions()
        #: Per-run counters (pruning events, nodes built, ...) exposed to the
        #: benchmark harness; subclasses update this inside ``compute``.
        self.counters: Dict[str, int] = {}

    # ------------------------------------------------------------------ #

    def validate_options(self) -> None:
        """Reject option combinations the algorithm cannot honour."""
        if self.options.closed and not self.supports_closed:
            raise AlgorithmError(
                f"{self.name} cannot compute closed cubes; "
                "use one of the C-Cubing variants or QC-DFS"
            )
        if not self.options.closed and not self.supports_non_closed:
            raise AlgorithmError(
                f"{self.name} only computes closed cubes; set closed=True"
            )
        if self.options.measures and not self.supports_measures:
            raise AlgorithmError(
                f"{self.name} aggregates count only; payload measures are not "
                "supported (use the MM family, BUC, or the naive oracle)"
            )
        if self.options.min_sup < 1:
            raise AlgorithmError("min_sup must be at least 1")
        collapsed = list(self.options.initial_collapsed)
        if len(set(collapsed)) != len(collapsed):
            raise AlgorithmError("initial_collapsed contains duplicates")

    def validate_against_relation(self, relation: Relation) -> None:
        """Reject options that are inconsistent with the input relation.

        Called by :meth:`run` once the relation is known, so that bad indices
        fail here with a clear message instead of deep inside an algorithm's
        recursion (typically as an opaque ``IndexError``).
        """
        arity = relation.num_dimensions
        bad = [
            dim
            for dim in self.options.initial_collapsed
            if not isinstance(dim, int) or not 0 <= dim < arity
        ]
        if bad:
            raise AlgorithmError(
                f"initial_collapsed references dimensions {bad} outside the "
                f"relation's range 0..{arity - 1} "
                f"(dimensions: {list(relation.schema.dimension_names)})"
            )

    def resolve_order(self, relation: Relation) -> List[int]:
        """Concrete dimension processing order for this run."""
        return resolve_order(relation, self.options.dimension_order)

    # ------------------------------------------------------------------ #

    @abstractmethod
    def compute(self, relation: Relation) -> CubeResult:
        """Compute the (closed) iceberg cube of ``relation``."""

    def run(self, relation: Relation) -> RunResult:
        """Validate options, compute the cube, and time the computation."""
        self.validate_options()
        self.validate_against_relation(relation)
        self.counters = {}
        start = time.perf_counter()
        cube = self.compute(relation)
        elapsed = time.perf_counter() - start
        # Retain the measure set on the result so finalised per-cell values
        # stay reconstructible into mergeable states post-run (the contract
        # incremental maintenance and snapshot reload rely on).
        cube.measure_set = self.options.measures
        return RunResult(cube, elapsed, self.name, dict(self.counters))

    def bump(self, counter: str, amount: int = 1) -> None:
        """Increment a named per-run counter."""
        self.counters[counter] = self.counters.get(counter, 0) + amount


# --------------------------------------------------------------------------- #
# Registry                                                                     #
# --------------------------------------------------------------------------- #

_REGISTRY: Dict[str, Type[CubingAlgorithm]] = {}

#: Name reserved for planner-resolved algorithm selection (see
#: :func:`resolve_algorithm`); never a registry key itself.
AUTO_ALGORITHM = "auto"


def register_algorithm(
    cls: Type[CubingAlgorithm], aliases: Iterable[str] = ()
) -> Type[CubingAlgorithm]:
    """Register an algorithm class under its ``name`` and any aliases."""
    for key in [cls.name, *aliases]:
        normalized = key.lower()
        if normalized == AUTO_ALGORITHM:
            raise AlgorithmError(
                f"{AUTO_ALGORITHM!r} is reserved for planner-based selection"
            )
        existing = _REGISTRY.get(normalized)
        if existing is not None and existing is not cls:
            raise AlgorithmError(
                f"algorithm name {normalized!r} already registered for "
                f"{existing.__name__}"
            )
        _REGISTRY[normalized] = cls
    return cls


def get_algorithm(
    name: str, options: Optional[CubingOptions] = None
) -> CubingAlgorithm:
    """Instantiate a registered algorithm by name (primary name or alias)."""
    cls = _REGISTRY.get(name.lower())
    if cls is None:
        suggestions = difflib.get_close_matches(
            name.lower(), sorted(_REGISTRY), n=1, cutoff=0.4
        )
        hint = f"; did you mean {suggestions[0]!r}?" if suggestions else ""
        raise UnknownAlgorithmError(
            f"unknown algorithm {name!r}{hint} "
            f"(available: {available_algorithms()}; pass {AUTO_ALGORITHM!r} "
            "to let the planner choose)"
        )
    return cls(options)


def available_algorithms(include_aliases: bool = False) -> List[str]:
    """Registered algorithm names.

    By default only *primary* names are returned (one per algorithm, the names
    used in the paper's figures and in error messages); with
    ``include_aliases=True`` every accepted spelling is included.
    """
    if include_aliases:
        return sorted(_REGISTRY)
    return sorted({cls.name for cls in _REGISTRY.values()})


def algorithms_supporting_closed() -> List[str]:
    """Primary names of the algorithms that can emit closed cubes."""
    return sorted({cls.name for cls in _REGISTRY.values() if cls.supports_closed})


def algorithm_capabilities() -> Dict[str, Dict[str, object]]:
    """Capability metadata per primary algorithm name.

    Each entry reports what the planner (and callers) may assume about the
    algorithm: whether it can emit closed / non-closed cubes, whether its
    result depends on the dimension order option, and which alias spellings
    resolve to it.
    """
    capabilities: Dict[str, Dict[str, object]] = {}
    for key, cls in _REGISTRY.items():
        entry = capabilities.setdefault(
            cls.name,
            {
                "supports_closed": cls.supports_closed,
                "supports_non_closed": cls.supports_non_closed,
                "supports_measures": cls.supports_measures,
                "order_sensitive": cls.order_sensitive,
                "aliases": [],
            },
        )
        if key != cls.name.lower():
            entry["aliases"].append(key)  # type: ignore[union-attr]
    for entry in capabilities.values():
        entry["aliases"] = sorted(entry["aliases"])  # type: ignore[arg-type]
    return capabilities


# --------------------------------------------------------------------------- #
# Planner hook                                                                 #
# --------------------------------------------------------------------------- #

#: Signature of an auto-planner: given the input relation and the run options,
#: return the registry name of the algorithm to use.
Planner = Callable[[Relation, CubingOptions], str]

_PLANNER: Optional[Planner] = None


def register_planner(planner: Planner) -> Planner:
    """Install the planner consulted when an algorithm is named ``"auto"``."""
    global _PLANNER
    _PLANNER = planner
    return planner


def resolve_algorithm(name: str, relation: Relation, options: CubingOptions) -> str:
    """Resolve ``name`` to a concrete registry name, planning when ``"auto"``.

    Non-``"auto"`` names pass through unchanged (including unknown ones —
    :func:`get_algorithm` reports those).  ``"auto"`` consults the planner
    registered via :func:`register_planner`; the default planner
    (:mod:`repro.session.planner`) is loaded lazily on first use.
    """
    if name.lower() != AUTO_ALGORITHM:
        return name
    if _PLANNER is None:
        from ..session import planner as _default_planner  # noqa: F401  (self-registers)
    if _PLANNER is None:  # pragma: no cover - defensive
        raise AlgorithmError("no auto-planner is registered")
    return _PLANNER(relation, options)
