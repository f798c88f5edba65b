"""Concurrency primitives shared by the serving layers.

One module, one primitive: :class:`~repro.concurrency.rwlock.RWLock`, the
reader-writer lock behind the publish discipline of the serving layers
(readers answer queries against the published cube version; a single writer
prepares the next version's changes aside and publishes them under a short
exclusive section).
See :mod:`repro.query.engine` and :mod:`repro.session.serving` for the two
layers that apply it, and :mod:`repro.server` for the asyncio front end that
relies on it.
"""

from .rwlock import RWLock

__all__ = ["RWLock"]
