"""Unique-identifier allocation for checkpointable objects.

Each checkpointable object carries a process-wide unique integer identifier
(paper Figure 1, ``newId()``). Identifiers are written to checkpoints so
that a sequence of incremental checkpoints can be folded back together
during recovery.
"""

from __future__ import annotations

import itertools
import threading


class IdAllocator:
    """Monotonically increasing identifier source.

    Thread-safe: the analysis engine and the checkpointing driver may
    allocate from different threads (the paper notes that checkpoints can
    be drained to stable storage asynchronously).
    """

    def __init__(self, start: int = 0) -> None:
        self._counter = itertools.count(start)
        self._lock = threading.Lock()
        self._last = start - 1

    def allocate(self) -> int:
        """Return the next unused identifier."""
        with self._lock:
            self._last = next(self._counter)
            return self._last

    @property
    def last_allocated(self) -> int:
        """The most recently handed-out identifier (``start - 1`` if none)."""
        with self._lock:
            return self._last

    def reset(self, start: int = 0) -> None:
        """Restart allocation at ``start``.

        Intended for tests and for recovery: after restoring an object
        table, the allocator is advanced past the largest restored id so
        new objects cannot collide with restored ones.
        """
        with self._lock:
            self._counter = itertools.count(start)
            self._last = start - 1

    def advance_past(self, used_id: int) -> None:
        """Ensure future allocations are strictly greater than ``used_id``."""
        with self._lock:
            if used_id >= self._last:
                self._counter = itertools.count(used_id + 1)
                self._last = used_id


#: Process-wide default allocator of checkpointable identifiers
#: (:class:`repro.core.checkpointable.Checkpointable`).
DEFAULT_ALLOCATOR = IdAllocator()
