"""Incremental cube maintenance: fold appended rows in instead of recomputing.

The serving stack (:mod:`repro.query`, :mod:`repro.session`) materialises a
closed cube once and answers every lattice query from it.  This package makes
that cube *maintainable* under appended fact rows:

* :mod:`repro.incremental.merge` — fold the appended tid window into a base
  closed cube by **aggregation-based checking**: one lattice sweep over the
  window yields every touched cell's delta count, representative tuple and
  Closed Mask (Definitions 6–9 are distributive aggregates), cells the base
  materialises take a pure add, and only the few candidates absent from the
  base need a closure probe and a Lemma 3 merge — without re-reading a
  single base tuple.
* :mod:`repro.incremental.maintainer` — the orchestration the session layer
  uses: append rows to the relation (growing dictionaries append-only),
  evaluate the merge of the new window against the live store, and publish
  the changed cells' new slots — O(delta), safe beside concurrent readers —
  invalidating exactly the cached answers they can affect.
* :mod:`repro.incremental.parallel` — the picklable work units and the
  ``spawn`` process pool (:func:`create_refresh_pool`) that let partition
  recomputes run outside the serving process's GIL.

See ``docs/PAPER_NOTES.md`` ("Appends by aggregation: three candidate
classes") for why the merge is correct and why aggregation-based checking
makes it cheap.
"""

from .maintainer import MAX_DELTA_DIMS, AppendReport, CubeMaintainer
from .merge import MergeReport, merge_closed_cubes
from .parallel import (
    CubingTask,
    CubingTaskResult,
    create_refresh_pool,
    run_cubing_task,
)

__all__ = [
    "AppendReport",
    "CubeMaintainer",
    "MAX_DELTA_DIMS",
    "MergeReport",
    "merge_closed_cubes",
    "CubingTask",
    "CubingTaskResult",
    "create_refresh_pool",
    "run_cubing_task",
]
