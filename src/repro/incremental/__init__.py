"""Incremental cube maintenance: merge delta cubes instead of recomputing.

The serving stack (:mod:`repro.query`, :mod:`repro.session`) materialises a
closed cube once and answers every lattice query from it.  This package makes
that cube *maintainable* under appended fact rows:

* :mod:`repro.incremental.merge` — fold a delta closed cube into a base
  closed cube with **aggregation-based closedness repair**: the paper's
  closedness measure (Definitions 6–9) is exactly reconstructible for closed
  cells (``ClosedMask == fixed_mask``), so merged cells are re-checked — and
  non-closed survivors collapsed onto their closed covers — through the same
  Lemma 3 merge algebra the in-run algorithms use, without re-reading a
  single tuple list.
* :mod:`repro.incremental.maintainer` — the orchestration the session layer
  uses: append rows to the relation (growing dictionaries append-only), plan
  and run a delta cube over only the new tuples, evaluate its merge against
  the live store, and publish the changed cells' new slots — O(delta), safe
  beside concurrent readers — invalidating exactly the cached answers they
  can affect.  ``executor`` offloads the cubing compute.
* :mod:`repro.incremental.parallel` — the picklable work units and the
  ``spawn`` process pool (:func:`create_refresh_pool`) that let delta cubes
  and partition recomputes run outside the serving process's GIL.

See ``docs/PAPER_NOTES.md`` ("Closed-cube merge needs closedness repair")
for why the merge is correct and why aggregation-based checking makes it
cheap.
"""

from .maintainer import MAX_DELTA_DIMS, AppendReport, CubeMaintainer
from .merge import MergeReport, merge_closed_cubes, support_generalisations
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
    "support_generalisations",
    "CubingTask",
    "CubingTaskResult",
    "create_refresh_pool",
    "run_cubing_task",
]
