"""Durable checkpoint stores.

The paper writes checkpoints to an output stream drained to stable storage;
this module supplies that substrate. A store holds a sequence of *epochs*,
each either a full checkpoint (a recovery base) or an incremental delta.
Recovery replays the most recent full checkpoint plus every delta after it.

:class:`FileStore` is crash-tolerant: each epoch file carries a magic
number, a length and a CRC-32, and recovery silently discards a torn tail
(a partially written final epoch), which is exactly the state a crash
mid-checkpoint leaves behind.

:class:`BackgroundWriter` implements the paper's "written from the output
stream to stable storage asynchronously": the application thread enqueues
epoch bytes and continues; a writer thread drains them to the underlying
store in order. Write failures are surfaced on the next ``append``,
``flush`` or ``close``.
"""

from __future__ import annotations

import json
import os
import queue
import struct
import threading
import time
import zlib
from typing import Dict, List, NamedTuple, Optional

from repro.core.errors import StorageError
from repro.core.lineage import (
    AUTO,
    MAIN_BRANCH,
    EpochRef,
    Lineage,
    LineageBook,
)
from repro.core.registry import DEFAULT_REGISTRY, ClassRegistry
from repro.core.restore import ObjectTable, replay_epochs
from repro.core.retry import RetryPolicy, RetryStats
from repro.obs.metrics import NULL_METRICS
from repro.obs.tracer import NULL_TRACER

FULL = "full"
INCREMENTAL = "incremental"

_MAGIC = b"RCKP"
_VERSION = 1
#: manifest format: 1 = classes only (implied-linear lineage),
#: 2 = classes + explicit epoch lineage map
MANIFEST_VERSION = 2
_SUPPORTED_MANIFESTS = (1, MANIFEST_VERSION)
_KIND_CODES = {FULL: 0, INCREMENTAL: 1}
_KIND_NAMES = {0: FULL, 1: INCREMENTAL}
# Compressed variants share the kind space; readers handle both
# transparently, so compressed and plain epochs can coexist in one store.
_COMPRESSED_CODES = {FULL: 2, INCREMENTAL: 3}
_COMPRESSED_NAMES = {2: FULL, 3: INCREMENTAL}
_HEADER = struct.Struct("<4sBBII")  # magic, version, kind, length, crc32


class Epoch(NamedTuple):
    """One stored checkpoint, with its place in the lineage graph.

    ``parent`` is the epoch this one's delta applies on top of (``None``
    for a root epoch); ``branch`` labels its line of descent; ``name``
    is an optional human-readable pin. Lineage lives *on the epoch
    record* — there is no separate branch table to keep crash-consistent.
    """

    index: int
    kind: str
    data: bytes
    parent: Optional[int] = None
    branch: str = MAIN_BRANCH
    name: Optional[str] = None

    def header(self) -> "EpochHeader":
        """This epoch's place in the graph, without its payload."""
        return EpochHeader(
            self.index, self.kind, self.parent, self.branch, self.name
        )


class EpochHeader(NamedTuple):
    """An epoch's lineage record with no payload attached.

    What :class:`FileStore` keeps in memory per verified epoch and builds
    its :class:`~repro.core.lineage.Lineage` from. It has no ``data``, so
    handing one to :func:`~repro.core.restore.replay_epochs` raises
    instead of replaying an empty delta; payloads come from
    :meth:`CheckpointStore.recovery_line`.
    """

    index: int
    kind: str
    parent: Optional[int] = None
    branch: str = MAIN_BRANCH
    name: Optional[str] = None


def _lineage_entry(epoch: Epoch) -> dict:
    """The manifest lineage entry of ``epoch``."""
    return {
        "parent": epoch.parent,
        "branch": epoch.branch,
        "kind": epoch.kind,
        "name": epoch.name,
    }


def _implied_lineage(index: int) -> dict:
    """Lineage of an epoch a manifest-v1 store wrote: strictly linear."""
    return {
        "parent": index - 1 if index > 0 else None,
        "branch": MAIN_BRANCH,
        "kind": None,
        "name": None,
    }


class CheckpointStore:
    """Interface shared by the in-memory and file-backed stores."""

    def append(
        self,
        kind: str,
        data: bytes,
        *,
        parent=AUTO,
        branch: Optional[str] = None,
        name: Optional[str] = None,
    ) -> int:
        """Store one checkpoint; returns its epoch index.

        ``parent=AUTO`` (the default) chains the epoch onto the head of
        ``branch`` (or of the newest epoch's branch), which reproduces
        the old linear behaviour exactly. An explicit parent index pins
        the epoch into the graph — the first commit after a session
        restore or fork does this. ``name`` pins the epoch under a
        store-unique checkpoint name.
        """
        raise NotImplementedError

    def epochs(self) -> List[Epoch]:
        """All intact epochs, oldest first."""
        raise NotImplementedError

    def epoch_map(self) -> Dict[int, Epoch]:
        """Every *individually* intact epoch, keyed by index.

        Unlike :meth:`epochs` this view does not stop at the first
        damaged or missing epoch — replica repair needs to see the
        intact epochs on the far side of a hole, because a peer may
        supply the missing link. The default derives the map from
        :meth:`epochs`; file-backed stores override it with a
        per-file tolerant read.
        """
        return {epoch.index: epoch for epoch in self.epochs()}

    def put_epoch(self, epoch: Epoch, overwrite: bool = False) -> None:
        """Write ``epoch`` at *its own* index (the read-repair primitive).

        Unlike :meth:`append`, which assigns the next index, this places
        a known epoch — copied byte-for-byte from a healthy replica —
        into its slot, lineage metadata included. ``overwrite`` allows
        replacing an existing (quarantined-first) divergent record.
        """
        raise StorageError(
            f"{type(self).__name__} does not support epoch repair"
        )

    def quarantine_epoch(self, index: int, reason: str = "") -> Optional[str]:
        """Move epoch ``index`` aside (never delete) before a repair.

        Returns a human-readable token for what was quarantined, or
        ``None`` when there was nothing at that index.
        """
        raise StorageError(
            f"{type(self).__name__} does not support epoch quarantine"
        )

    def lineage(self) -> Lineage:
        """The epoch graph of everything currently in the store."""
        return Lineage(self.epochs())

    def durability(self) -> str:
        """What :meth:`append` returning means for the epoch.

        ``"durable"`` (synchronously persisted) for a plain store; an
        asynchronous front reports ``"queued"`` and a replicated store
        ``"quorum"`` when only a write quorum acked.
        """
        return "durable"

    @property
    def last_commit(self) -> Optional[dict]:
        """Replica receipt of the newest append (``None``: not replicated)."""
        return None

    def flush(self, timeout: Optional[float] = None) -> None:
        """Block until every appended epoch is durable (no-op by default)."""

    def close(self) -> None:
        """Release resources; no further appends (no-op by default)."""

    def instrument(self, tracer, metrics) -> None:
        """Attach a tracer/metrics pair (a plain store emits nothing)."""

    def _compaction_store(self) -> "CheckpointStore":
        """The store :func:`compact` appends to and deletes from."""
        return self

    def recovery_line(
        self,
        at: Optional[EpochRef] = None,
        lineage: Optional[Lineage] = None,
    ) -> List[Epoch]:
        """The base chain of ``at`` (default: the newest epoch).

        For a linear store this is exactly the old "most recent full
        checkpoint plus every delta after it"; with branches it is the
        full-base-to-target chain resolved through the lineage graph.
        ``lineage`` is a :meth:`lineage` the caller already holds; the
        chain is then resolved in it instead of in a fresh one.
        """
        if lineage is None:
            lineage = self.lineage()
        if at is None:
            at = lineage.newest()
        return lineage.chain(at)

    def recover(
        self,
        registry: Optional[ClassRegistry] = None,
        at: Optional[EpochRef] = None,
        lineage: Optional[Lineage] = None,
    ) -> ObjectTable:
        """Rebuild the object table live at ``at`` (default: newest epoch).

        ``lineage`` is passed on to :meth:`recovery_line`.
        """
        registry = registry or DEFAULT_REGISTRY
        translation = self._serial_translation(registry)
        return replay_epochs(
            self.recovery_line(at, lineage), registry, translation
        )

    def materialize(
        self,
        target: EpochRef,
        registry: Optional[ClassRegistry] = None,
        lineage: Optional[Lineage] = None,
    ) -> ObjectTable:
        """The object table exactly as it was live at ``target``.

        ``target`` is an epoch index or a checkpoint name; the epoch's
        base chain is resolved through the lineage graph (``lineage``
        when given) and replayed.
        """
        return self.recover(registry, at=target, lineage=lineage)

    def _serial_translation(
        self, registry: ClassRegistry
    ) -> Optional[Dict[int, int]]:
        return None

    def __len__(self) -> int:
        return len(self.epochs())


class MemoryStore(CheckpointStore):
    """Volatile store for tests and examples within one process.

    ``append`` and ``epochs`` are safe to call concurrently — a
    :class:`BackgroundWriter` drains into this store from its own thread
    while the committing thread reads it, so index assignment and the
    epoch list are guarded by a lock.
    """

    def __init__(self) -> None:
        self._epochs: List[Epoch] = []
        # guarded by _lock alongside the epoch list itself
        self._book = LineageBook()
        #: divergent epochs set aside by :meth:`quarantine_epoch`
        self.quarantined: List[tuple] = []
        self._lock = threading.Lock()

    def append(
        self,
        kind: str,
        data: bytes,
        *,
        parent=AUTO,
        branch: Optional[str] = None,
        name: Optional[str] = None,
    ) -> int:
        if kind not in _KIND_CODES:
            raise StorageError(f"unknown checkpoint kind {kind!r}")
        with self._lock:
            index = len(self._epochs)
            parent, branch = self._book.resolve(parent, branch, name)
            self._epochs.append(
                Epoch(index, kind, bytes(data), parent, branch, name)
            )
            self._book.note(index, branch, name)
        return index

    def epochs(self) -> List[Epoch]:
        with self._lock:
            return list(self._epochs)

    def epoch_map(self) -> Dict[int, Epoch]:
        with self._lock:
            return {epoch.index: epoch for epoch in self._epochs}

    def put_epoch(self, epoch: Epoch, overwrite: bool = False) -> None:
        if epoch.kind not in _KIND_CODES:
            raise StorageError(f"unknown checkpoint kind {epoch.kind!r}")
        with self._lock:
            if epoch.index > len(self._epochs):
                raise StorageError(
                    f"cannot repair epoch {epoch.index}: store holds "
                    f"{len(self._epochs)} epoch(s) and a memory store "
                    "cannot represent a hole"
                )
            if epoch.index == len(self._epochs):
                self._epochs.append(epoch)
            else:
                if not overwrite:
                    raise StorageError(
                        f"epoch {epoch.index} already exists "
                        "(overwrite=True replaces it)"
                    )
                self._epochs[epoch.index] = epoch
            self._book.reset((e.index, e.branch, e.name) for e in self._epochs)

    def quarantine_epoch(self, index: int, reason: str = "") -> Optional[str]:
        """Keep a copy of the divergent record aside; the slot stays.

        A list-backed store cannot hole, so quarantine preserves the
        record in :attr:`quarantined` and leaves the slot for the
        ``put_epoch(..., overwrite=True)`` repair that follows.
        """
        with self._lock:
            if not 0 <= index < len(self._epochs):
                return None
            self.quarantined.append((index, reason, self._epochs[index]))
            return f"epoch-{index:06d} (copy kept in memory)"


class FileStore(CheckpointStore):
    """Directory-backed store: one framed file per epoch plus a manifest.

    The manifest records the ``{class qualname: serial}`` map of the writing
    process, so a *different* process (after a crash) can translate the
    serials in the stored streams to its own registry.

    Payloads live on disk only. Each file is verified (frame + CRC)
    before its :class:`EpochHeader` is trusted, and the verified header
    is cached against the file's stat signature, so repeated
    :meth:`lineage` calls on a long-lived store only read files that are
    new or have changed on disk. :meth:`recovery_line` reads (and
    CRC-checks) the payloads of the chain it returns and no others;
    :meth:`epochs` and :meth:`epoch_map` read every payload on each call.
    """

    def __init__(
        self,
        directory: str,
        registry: Optional[ClassRegistry] = None,
        compress: bool = False,
    ) -> None:
        self.directory = directory
        self._registry = registry or DEFAULT_REGISTRY
        #: zlib-compress epoch payloads on write (reads are transparent)
        self.compress = compress
        #: index -> (stat signature, EpochHeader of the verified file)
        self._verified: Dict[int, tuple] = {}
        #: next epoch index to assign; None until the first append scans
        self._next: Optional[int] = None
        # Guards ``_verified``, ``_next`` and the lineage maps: a
        # BackgroundWriter appends from its drain thread while the
        # committing thread reads ``epochs()``; unguarded, the verified-
        # cache dict mutates under iteration and two appends can claim
        # the same index.
        self._lock = threading.RLock()
        #: orphaned ``*.tmp`` files moved aside by this instance
        self.quarantined: List[str] = []
        #: index -> {"parent", "branch", "kind", "name"} (manifest v2)
        self._lineage: Dict[int, dict] = {}
        self._book = LineageBook()
        os.makedirs(directory, exist_ok=True)
        self._quarantine_orphans()
        self._load_lineage()

    def _load_lineage(self) -> None:
        """Load (and prune) the manifest's lineage map.

        A crash between the manifest write and the epoch write leaves a
        lineage entry with no epoch file; such entries are dropped here
        (they describe nothing durable). Epoch files with no entry — a
        manifest-v1 store written before lineage existed — get implied
        linear lineage when read.
        """
        try:
            with open(self.manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return  # fresh store, or damage _serial_translation reports
        version = manifest.get("format_version")
        if version not in _SUPPORTED_MANIFESTS:
            raise StorageError(
                f"unsupported manifest format_version {version!r} in "
                f"{self.directory!r} (this build supports "
                f"{list(_SUPPORTED_MANIFESTS)}); refusing to guess at "
                "the epoch lineage"
            )
        raw = manifest.get("lineage")
        if not isinstance(raw, dict):
            raw = {}
        present = {index for index, _ in self._epoch_files()}
        for key, entry in raw.items():
            try:
                index = int(key)
            except (TypeError, ValueError):
                continue
            if index not in present or not isinstance(entry, dict):
                continue
            self._lineage[index] = {
                "parent": entry.get("parent"),
                "branch": entry.get("branch") or MAIN_BRANCH,
                "kind": entry.get("kind"),
                "name": entry.get("name"),
            }
        self._rebuild_book()

    # -- paths --------------------------------------------------------------

    def _epoch_path(self, index: int) -> str:
        return os.path.join(self.directory, f"epoch-{index:06d}.ckpt")

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.directory, "manifest.json")

    @property
    def quarantine_dir(self) -> str:
        return os.path.join(self.directory, "quarantine")

    def _quarantine_orphans(self) -> None:
        """Move aside ``*.tmp`` leftovers of a crashed append.

        A crash between writing ``epoch-N.ckpt.tmp`` and the atomic
        ``os.replace`` leaves the temporary behind forever: it is never
        read (only ``*.ckpt`` files are), but it accumulates and shadows
        the real durability story. Opening the store quarantines such
        orphans instead of silently coexisting with them.
        """
        try:
            names = os.listdir(self.directory)
        except OSError:
            return
        for name in sorted(names):
            if not name.endswith(".tmp"):
                continue
            source = os.path.join(self.directory, name)
            target = os.path.join(self.quarantine_dir, name)
            try:
                os.makedirs(self.quarantine_dir, exist_ok=True)
                if os.path.exists(target):
                    stem = 0
                    while os.path.exists(f"{target}.{stem}"):
                        stem += 1
                    target = f"{target}.{stem}"
                os.replace(source, target)
            except OSError:
                continue  # a locked/vanished orphan is not worth failing for
            self.quarantined.append(target)

    # -- writing --------------------------------------------------------------

    def append(
        self,
        kind: str,
        data: bytes,
        *,
        parent=AUTO,
        branch: Optional[str] = None,
        name: Optional[str] = None,
    ) -> int:
        if kind not in _KIND_CODES:
            raise StorageError(f"unknown checkpoint kind {kind!r}")
        with self._lock:
            index = self._next_index()
            # An explicit parent must exist on disk; AUTO-resolved
            # parents come from the branch-tip map and always do.
            if parent is not AUTO and parent is not None:
                if not os.path.exists(self._epoch_path(parent)):
                    raise StorageError(
                        f"parent epoch {parent} does not exist in the store"
                    )
            parent, branch = self._book.resolve(parent, branch, name)
            epoch = Epoch(index, kind, bytes(data), parent, branch, name)
            # Lineage first, epoch second: every durable epoch then has
            # a durable lineage entry. The reverse order could leave an
            # epoch whose place in the graph nobody knows; this order
            # merely leaves a stale entry a reopen prunes.
            self._lineage[index] = _lineage_entry(epoch)
            self._write_manifest()
            try:
                self._write_epoch(epoch)
            except BaseException:
                # The epoch never became durable; its lineage entry must
                # not pollute AUTO resolution for the retrying caller.
                self._lineage.pop(index, None)
                raise
            self._next = index + 1
            self._book.note(index, branch, name)
        return index

    def _write_epoch(self, epoch: Epoch) -> None:
        """Frame ``epoch`` into its file and seed the header cache.

        Caller holds ``_lock``: the index counter, the durable file and
        the header-cache entry must appear atomically, or a concurrent
        append could reuse the index of a not-yet-durable epoch. The
        file appears whole or not at all (tmp write, fsync, rename).
        """
        if self.compress:
            payload = zlib.compress(epoch.data, level=6)
            code = _COMPRESSED_CODES[epoch.kind]
        else:
            payload = epoch.data
            code = _KIND_CODES[epoch.kind]
        header = _HEADER.pack(
            _MAGIC, _VERSION, code, len(payload), zlib.crc32(payload)
        )
        path = self._epoch_path(epoch.index)
        tmp_path = path + ".tmp"
        with open(tmp_path, "wb") as handle:
            handle.write(header)
            handle.write(payload)
            handle.flush()
            # race-ok: fsync under _lock is deliberate (see above)
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
        # We just wrote and framed this payload: its header is verified
        # by construction. The payload itself is not kept.
        signature = self._stat_signature(path)
        if signature is None:
            self._verified.pop(epoch.index, None)
        else:
            self._verified[epoch.index] = (signature, epoch.header())

    def _next_index(self) -> int:
        """The index the next append will use.

        The directory is scanned once; afterwards the counter advances in
        memory. Compaction only ever *removes* epochs below the newest
        index, so the cached counter stays correct across it — rescanning
        the directory on every append made long runs O(n²) in ``listdir``.
        """
        with self._lock:
            if self._next is None:
                used = [epoch_index for epoch_index, _ in self._epoch_files()]
                self._next = (max(used) + 1) if used else 0
            return self._next

    def _write_manifest(self) -> None:
        manifest = {
            "format_version": MANIFEST_VERSION,
            "classes": self._registry.name_to_serial(),
            "lineage": {
                str(index): entry
                for index, entry in sorted(self._lineage.items())
            },
        }
        tmp_path = self.manifest_path + ".tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
        os.replace(tmp_path, self.manifest_path)

    def remove(self, indices) -> None:
        """Delete the given epochs (compaction's deletion primitive).

        Removes the files, drops their header-cache and lineage
        entries, rewrites the manifest, and rebuilds the branch-tip and
        name maps. The next-index counter is *not* rewound: indices are
        never reused, so lineage references stay unambiguous forever.
        """
        doomed = set(indices)
        if not doomed:
            return
        with self._lock:
            for index in sorted(doomed):
                try:
                    os.remove(self._epoch_path(index))
                except OSError:
                    pass  # a leftover file only wastes space, never safety
                self._verified.pop(index, None)
                self._lineage.pop(index, None)
            self._rebuild_book()
            self._write_manifest()

    def _rebuild_book(self) -> None:
        """Recompute the lineage book from the files on disk.

        Caller holds ``_lock`` (or is the constructor). Used on open and
        after any operation that changes the epoch set out of append
        order (compaction, epoch repair).
        """
        entries = []
        for index, _ in self._epoch_files():
            meta = self._lineage.get(index) or _implied_lineage(index)
            entries.append((index, meta["branch"], meta.get("name")))
        self._book.reset(entries)

    # -- reading --------------------------------------------------------------

    def _epoch_files(self) -> List[tuple]:
        found = []
        for name in os.listdir(self.directory):
            if name.startswith("epoch-") and name.endswith(".ckpt"):
                try:
                    index = int(name[len("epoch-") : -len(".ckpt")])
                except ValueError:
                    continue
                found.append((index, os.path.join(self.directory, name)))
        found.sort()
        return found

    def _durable_prefix(self, payloads: bool) -> list:
        """Every epoch file's :meth:`_load` (``payloads``) or
        :meth:`_header`, oldest first, up to the first damaged one.

        Everything from the first unreadable epoch onward is ignored: a
        delta chain cannot be applied across a hole. Caller holds
        ``_lock``.
        """
        files = self._epoch_files()
        live = {index for index, _ in files}
        # Compaction (or external cleanup) removed the files; the cache
        # must not outlive them.
        for index in [i for i in self._verified if i not in live]:
            del self._verified[index]
        result = []
        for index, path in files:
            if payloads:
                record = self._load(index, path)
            else:
                record = self._header(index, path)
            if record is None:
                break
            result.append(record)
        return result

    def epochs(self) -> List[Epoch]:
        """Read intact epochs; a torn or corrupt epoch ends the sequence.

        Every payload is read from disk and CRC-checked on each call.
        """
        with self._lock:
            return self._durable_prefix(payloads=True)

    def lineage(self) -> Lineage:
        """The epoch graph of the durable prefix, built from headers.

        A file whose header was verified earlier (by this store's own
        append or an earlier read) is not read again unless its stat
        signature changed; no payload is kept.
        """
        with self._lock:
            return Lineage(self._durable_prefix(payloads=False))

    def recovery_line(
        self,
        at: Optional[EpochRef] = None,
        lineage: Optional[Lineage] = None,
    ) -> List[Epoch]:
        """The base chain of ``at``, with only its own payloads read.

        Each payload is read and CRC-checked now. A chain file that no
        longer verifies, or no longer holds the kind the lineage
        recorded, raises :class:`StorageError` rather than replaying
        bytes the lineage did not vouch for. The read refreshed the
        file's header-cache entry, so the next :meth:`lineage` sees the
        file as it is now (a damaged one ends the durable prefix).
        """
        chain = super().recovery_line(at, lineage)
        with self._lock:
            result = []
            for record in chain:
                path = self._epoch_path(record.index)
                epoch = self._load(record.index, path)
                if epoch is None or epoch.kind != record.kind:
                    raise StorageError(
                        f"epoch {record.index} in {self.directory!r} "
                        "changed or was damaged after its header was "
                        "verified; refusing to replay it"
                    )
                result.append(epoch)
            return result

    def epoch_map(self) -> Dict[int, Epoch]:
        """Every individually intact epoch, keyed by index.

        Unlike :meth:`epochs` this does not stop at the first damaged or
        missing file — a replica with a hole still exposes the intact
        epochs past it, so a peer-driven repair of the hole makes the
        whole suffix readable again without rewriting it.
        """
        with self._lock:
            result: Dict[int, Epoch] = {}
            for index, path in self._epoch_files():
                epoch = self._load(index, path)
                if epoch is not None:  # damaged: skip it, keep scanning
                    result[index] = epoch
            return result

    def _header(self, index: int, path: str) -> Optional[EpochHeader]:
        """Epoch ``index``'s verified header, or ``None`` if damaged.

        Caller holds ``_lock``. Served from the cache while the file's
        stat signature is unchanged; otherwise the file is read and
        CRC-checked again.
        """
        cached = self._verified.get(index)
        if cached is not None and cached[0] == self._stat_signature(path):
            return cached[1]
        epoch = self._load(index, path)
        return None if epoch is None else epoch.header()

    def _load(self, index: int, path: str) -> Optional[Epoch]:
        """Epoch ``index`` read and CRC-checked, or ``None`` if damaged.

        Caller holds ``_lock``. Refreshes the file's header-cache entry;
        the payload is returned, never cached.
        """
        signature = self._stat_signature(path)
        self._verified.pop(index, None)
        data = self._read_epoch(path)
        if data is None:
            return None
        meta = self._lineage.get(index) or _implied_lineage(index)
        epoch = Epoch(
            index, data[0], data[1], meta["parent"], meta["branch"],
            meta.get("name"),
        )
        if signature is not None:
            self._verified[index] = (signature, epoch.header())
        return epoch

    def __len__(self) -> int:
        return len(self.lineage())

    def put_epoch(self, epoch: Epoch, overwrite: bool = False) -> None:
        """Place ``epoch`` at its own index — the read-repair primitive.

        Writes the same frame :meth:`append` would have written (so a
        repaired replica is byte-identical to a healthy one when both
        use the same compression setting) plus the epoch's lineage
        entry, and refreshes the branch-tip/name maps and the next-index
        counter. ``overwrite=False`` refuses to touch an existing file.
        """
        if epoch.kind not in _KIND_CODES:
            raise StorageError(f"unknown checkpoint kind {epoch.kind!r}")
        with self._lock:
            path = self._epoch_path(epoch.index)
            if os.path.exists(path) and not overwrite:
                raise StorageError(
                    f"epoch {epoch.index} already exists in "
                    f"{self.directory!r} (overwrite=True replaces it)"
                )
            prior = self._lineage.get(epoch.index)
            epoch = epoch._replace(data=bytes(epoch.data))
            self._lineage[epoch.index] = _lineage_entry(epoch)
            self._write_manifest()
            try:
                self._write_epoch(epoch)
            except BaseException:
                if prior is None:
                    self._lineage.pop(epoch.index, None)
                else:
                    self._lineage[epoch.index] = prior
                raise
            if self._next is not None and epoch.index >= self._next:
                self._next = epoch.index + 1
            self._rebuild_book()

    def quarantine_epoch(self, index: int, reason: str = "") -> Optional[str]:
        """Move epoch ``index``'s file into ``quarantine/`` (never delete).

        The lineage entry is kept — the repair that follows rewrites it,
        and an unrepaired stale entry is pruned on the next reopen, the
        same way a crashed append's entry is.
        """
        with self._lock:
            path = self._epoch_path(index)
            if not os.path.exists(path):
                return None
            os.makedirs(self.quarantine_dir, exist_ok=True)
            target = os.path.join(self.quarantine_dir, os.path.basename(path))
            if os.path.exists(target):
                stem = 0
                while os.path.exists(f"{target}.{stem}"):
                    stem += 1
                target = f"{target}.{stem}"
            os.replace(path, target)
            self._verified.pop(index, None)
            self.quarantined.append(target)
            return target

    @staticmethod
    def _stat_signature(path: str) -> Optional[tuple]:
        """Identity of a file's current content, cheap enough to re-check.

        ``None`` (stat failed) disables caching for that file rather than
        risking a stale entry.
        """
        try:
            stat = os.stat(path)
        except OSError:
            return None
        return (stat.st_size, stat.st_mtime_ns, stat.st_ino)

    @staticmethod
    def _read_epoch(path: str):
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except OSError:
            return None
        if len(raw) < _HEADER.size:
            return None
        magic, version, kind_code, length, crc = _HEADER.unpack_from(raw)
        known = kind_code in _KIND_NAMES or kind_code in _COMPRESSED_NAMES
        if magic != _MAGIC or version != _VERSION or not known:
            return None
        payload = raw[_HEADER.size : _HEADER.size + length]
        if len(payload) != length or zlib.crc32(payload) != crc:
            return None
        if kind_code in _COMPRESSED_NAMES:
            try:
                return _COMPRESSED_NAMES[kind_code], zlib.decompress(payload)
            except zlib.error:
                return None  # CRC passed but the deflate stream is invalid
        return _KIND_NAMES[kind_code], payload

    def _serial_translation(
        self, registry: ClassRegistry
    ) -> Optional[Dict[int, int]]:
        try:
            with open(self.manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except OSError:
            raise StorageError(f"missing manifest in {self.directory!r}")
        except json.JSONDecodeError as exc:
            raise StorageError(f"corrupt manifest in {self.directory!r}: {exc}")
        classes = manifest.get("classes")
        if not isinstance(classes, dict):
            raise StorageError(f"malformed manifest in {self.directory!r}")
        return registry.serial_translation(classes)


class BackgroundWriter(CheckpointStore):
    """Asynchronous front for another store (one ordered writer thread).

    ``append`` returns as soon as the epoch is queued — the paper's
    non-blocking hand-off of checkpoint bytes to stable storage. Epochs
    are written in submission order. ``flush`` blocks until everything
    queued so far is durable; ``close`` flushes and stops the thread.

    Transient backing failures are retried in the writer thread when a
    :class:`~repro.core.retry.RetryPolicy` is supplied; an epoch is only
    declared failed once its policy is exhausted, so injected transient
    faults lose nothing. Remaining failures are **fail-stop**: once a
    backing write fails for good, no later epoch is written (an epoch
    written past a hole could never participate in a recovery line
    anyway). Epochs already queued at failure time are discarded and
    *counted*; the error — including that count — is raised, wrapped in
    :class:`StorageError`, by the next ``flush``, ``close`` or ``epochs``
    call, and every subsequent ``append`` raises permanently.

    If the writer *thread itself* dies (a bug, an interpreter shutdown
    race — anything outside the guarded backing write), the writer
    **degrades to synchronous writes** instead of silently dropping the
    queue: the next ``append``/``flush`` adopts every still-queued epoch,
    writes it in order on the calling thread, and all subsequent appends
    go straight to the backing store. Degradations are recorded in
    :attr:`degradation_events`.
    """

    _STOP = object()

    def __init__(
        self,
        backing: CheckpointStore,
        max_queued: int = 64,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.backing = backing
        self._retry = retry
        #: retry accounting (count + notes), shared with commit receipts
        self.retry_stats = RetryStats()
        self._queue: "queue.Queue" = queue.Queue(maxsize=max_queued)
        #: guards the failure/degradation state shared between the drain
        #: thread and caller threads (_error/_failed/_cause/dropped,
        #: degraded/degradation_events/sync_writes, _closed, obs hooks)
        self._state_lock = threading.Lock()
        self._error: Optional[BaseException] = None
        self._failed = False
        self._cause: Optional[str] = None
        #: epochs queued before the failure that were never written
        self.dropped = 0
        #: whether the writer fell back to synchronous writes
        self.degraded = False
        #: human-readable record of each degradation
        self.degradation_events: List[str] = []
        #: epochs written synchronously after degradation
        self.sync_writes = 0
        self._closed = False
        self._idle = threading.Event()
        self._idle.set()
        #: observability hooks; no-op singletons until :meth:`instrument`
        self.tracer = NULL_TRACER
        self.metrics = NULL_METRICS
        self._thread = threading.Thread(
            target=self._drain, name="checkpoint-writer", daemon=True
        )
        self._thread.start()

    def instrument(self, tracer, metrics) -> None:
        """Attach a tracer/metrics pair (only replaces no-op defaults).

        The drain thread reads these attributes without a lock, which is
        safe: both emit paths tolerate either the old or the new hook, and
        exporter errors never propagate out of the tracer.
        """
        with self._state_lock:
            if self.tracer is NULL_TRACER:
                self.tracer = tracer
            if self.metrics is NULL_METRICS:
                self.metrics = metrics

    # -- writer thread ---------------------------------------------------

    def _append_backing(self, kind: str, data: bytes, lineage: dict):
        """One backing write, under the retry policy when there is one.

        ``lineage`` carries the ``parent``/``branch``/``name`` keywords
        queued with the epoch. An ``AUTO`` parent is resolved by the
        backing store *at drain time* — the queue is FIFO, so the head
        of the target branch is exactly what it would have been had the
        append been synchronous. All-default lineage is not forwarded,
        so minimal ``append(kind, data)`` stores keep working behind
        the writer.
        """
        if (
            lineage["parent"] is AUTO
            and lineage["branch"] is None
            and lineage["name"] is None
        ):
            lineage = {}
        if self._retry is None:
            return self.backing.append(kind, data, **lineage)
        return self._retry.run(
            lambda: self.backing.append(kind, data, **lineage),
            on_retry=lambda attempt, exc, _d: self.retry_stats.note(
                "append", attempt, exc
            ),
        )

    def _drain(self) -> None:
        while True:
            item = self._queue.get()
            try:
                if item is self._STOP:
                    return
                with self._state_lock:
                    failed = self._failed
                    if failed:
                        self.dropped += 1  # fail-stop: no writes past a hole
                if failed:
                    continue
                kind, data, lineage = item
                instrumented = self.tracer.enabled or self.metrics.enabled
                start = time.perf_counter() if instrumented else 0.0
                try:
                    self._append_backing(kind, data, lineage)
                except BaseException as exc:  # surfaced on the next call
                    with self._state_lock:
                        self._error = exc
                        self._cause = str(exc)
                        self._failed = True
                    self.tracer.event(
                        "writer.failed", kind=kind, error=str(exc)
                    )
                    self.metrics.counter("writer_failures_total").inc()
                else:
                    if instrumented:
                        self._note_drain(
                            kind, len(data), time.perf_counter() - start
                        )
            finally:
                self._queue.task_done()
                if self._queue.unfinished_tasks == 0:
                    self._idle.set()

    def _note_drain(self, kind: str, size: int, elapsed: float) -> None:
        """One drained epoch's trace event and metrics."""
        depth = self._queue.qsize()
        self.tracer.event(
            "writer.drain",
            kind=kind,
            bytes=size,
            wall_seconds=elapsed,
            queue_depth=depth,
        )
        self.metrics.counter("writer_drained_total").inc()
        self.metrics.gauge("writer_queue_depth").set(depth)
        self.metrics.histogram("writer_drain_seconds").observe(elapsed)

    # -- degradation -------------------------------------------------------

    def _writer_died(self) -> bool:
        return not self._thread.is_alive() and not self._closed

    def _degrade(self) -> None:
        """Adopt the dead writer thread's queue on the calling thread.

        Every epoch still queued is written synchronously, in submission
        order, under the same retry/fail-stop rules the thread applied —
        acknowledged epochs are never dropped just because the thread is
        gone.
        """
        with self._state_lock:
            first = not self.degraded
            if first:
                self.degraded = True
                self.degradation_events.append(
                    "writer thread died; degraded to synchronous writes"
                )
        if first:
            self.tracer.event(
                "writer.degraded",
                reason="writer thread died; degraded to synchronous writes",
                queued=self._pending(),
            )
            self.metrics.counter("writer_degradations_total").inc()
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            try:
                if item is self._STOP:
                    continue
                with self._state_lock:
                    failed = self._failed
                    if failed:
                        self.dropped += 1
                if failed:
                    continue
                kind, data, lineage = item
                try:
                    self._append_backing(kind, data, lineage)
                except BaseException as exc:
                    with self._state_lock:
                        self._error = exc
                        self._cause = str(exc)
                        self._failed = True
            finally:
                self._queue.task_done()
        if self._queue.unfinished_tasks == 0:
            self._idle.set()

    def _check(self) -> None:
        with self._state_lock:
            if self._error is None:
                return
            error, self._error = self._error, None
            suffix = self._dropped_suffix()
        raise StorageError(
            f"background checkpoint write failed: {error}" + suffix
        )

    def _dropped_suffix(self) -> str:
        if not self.dropped:
            return ""
        return f" ({self.dropped} queued epoch(s) discarded, not written)"

    def _replica_suffix(self) -> str:
        """Per-replica undurable counts, when the backing reports them.

        A :class:`~repro.core.replica.ReplicatedStore` knows which
        replicas are missing how many quorum-committed epochs; a flush
        timeout should name them, not just the aggregate queue depth.
        """
        counts = getattr(self.backing, "undurable_counts", None)
        if not callable(counts):
            return ""
        try:
            per_replica = counts()
        except (StorageError, OSError):
            return ""
        if not per_replica or not any(per_replica.values()):
            return ""
        detail = ", ".join(
            f"{name}={count}"
            for name, count in sorted(per_replica.items())
            if count
        )
        return f" (per-replica undurable epochs: {detail})"

    def _flush_backing(self, deadline: Optional[float]) -> None:
        """Propagate flush into the backing store.

        A wrapped :class:`~repro.core.replica.ReplicatedStore` uses this
        to drive catch-up repair of behind replicas and to flush its own
        children, so ``flush`` really means "durable on a quorum", not
        merely "left my queue".
        """
        remaining = None
        if deadline is not None:
            remaining = max(0.0, deadline - time.monotonic())
        self.backing.flush(remaining)

    # -- CheckpointStore interface ------------------------------------------

    def append(
        self,
        kind: str,
        data: bytes,
        *,
        parent=AUTO,
        branch: Optional[str] = None,
        name: Optional[str] = None,
    ) -> int:
        """Queue one epoch for writing; returns the queue position.

        The durable epoch index is assigned by the backing store when the
        writer thread gets to it; use :meth:`flush` + ``backing.epochs()``
        when exact indices matter. Lineage keywords travel with the
        queued epoch (an ``AUTO`` parent resolves at drain time, which
        the FIFO queue makes equivalent to a synchronous append). After
        a write failure every append raises: the writer is fail-stop.
        After the writer *thread* dies, appends degrade to synchronous
        writes (and return the real index).
        """
        lineage = {"parent": parent, "branch": branch, "name": name}
        with self._state_lock:
            if self._failed:
                # appends report it; no need to re-raise later
                self._error = None
                raise StorageError(
                    f"background checkpoint write failed: {self._cause}"
                    + self._dropped_suffix()
                )
            if self._closed:
                raise StorageError("background writer is closed")
        if kind not in _KIND_CODES:
            raise StorageError(f"unknown checkpoint kind {kind!r}")
        if self._writer_died():
            self._degrade()
            self._check()
            with self._state_lock:
                self.sync_writes += 1
            try:
                return self._append_backing(kind, bytes(data), lineage)
            except BaseException as exc:
                with self._state_lock:
                    self._failed = True
                    self._cause = str(exc)
                raise StorageError(
                    f"background checkpoint write failed: {exc}"
                    + self._dropped_suffix()
                ) from exc
        self._idle.clear()
        self._queue.put((kind, bytes(data), lineage))
        return self._queue.qsize()

    def _pending(self) -> int:
        """Epochs accepted by :meth:`append` but not yet durable."""
        return self._queue.unfinished_tasks

    def flush(self, timeout: Optional[float] = None) -> None:
        """Block until every queued epoch has been written (or surfaced).

        A timeout raises :class:`StorageError` naming how many epochs are
        still queued — data that is **not durable** — rather than
        returning as if the flush had succeeded.
        """
        if self._writer_died():
            self._degrade()
        deadline = None if timeout is None else time.monotonic() + timeout
        if not self._idle.wait(timeout):
            raise StorageError(
                "timed out waiting for checkpoint writer: "
                f"{self._pending()} epoch(s) still queued, not durable"
                + self._replica_suffix()
            )
        self._check()
        self._flush_backing(deadline)

    def close(self, timeout: Optional[float] = None) -> None:
        """Flush, stop the writer thread, and surface any pending error.

        The thread is stopped even when an error is raised; only the
        *first* close/flush after a failure raises, so shutdown paths that
        already handled the error can close cleanly. Like :meth:`flush`,
        a timeout raises with the count of still-queued (undurable)
        epochs.
        """
        if self._closed:
            return
        if self._writer_died():
            self._degrade()
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._state_lock:
            self._closed = True
        try:
            if not self._idle.wait(timeout):
                raise StorageError(
                    "timed out waiting for checkpoint writer: "
                    f"{self._pending()} epoch(s) still queued, not durable"
                    + self._replica_suffix()
                )
        finally:
            self._queue.put(self._STOP)
            self._thread.join(timeout)
        self._check()
        self._flush_backing(deadline)
        self.backing.close()

    def epochs(self) -> List[Epoch]:
        """Durable epochs (pending queued writes are not yet included)."""
        if self._writer_died():
            self._degrade()
        self._check()
        return self.backing.epochs()

    def durability(self) -> str:
        """``"queued"``, or the backing's once writes went synchronous."""
        with self._state_lock:
            degraded = self.degraded
        return self.backing.durability() if degraded else "queued"

    @property
    def last_commit(self) -> Optional[dict]:
        """The backing's receipt: the newest *drained* epoch, not
        necessarily the one most recently queued."""
        return self.backing.last_commit

    def lineage(self) -> Lineage:
        self.flush()
        return self.backing.lineage()

    def recovery_line(self, at=None, lineage=None) -> List[Epoch]:
        self.flush()
        return self.backing.recovery_line(at, lineage)

    def recover(self, registry=None, at=None, lineage=None):
        self.flush()
        return self.backing.recover(registry, at=at, lineage=lineage)

    def _compaction_store(self) -> CheckpointStore:
        # the new base needs its real index and the deletes must be
        # synchronous: drain the queue, then compact the durable store
        self.flush()
        return self.backing

    def __enter__(self) -> "BackgroundWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def compact(
    store: CheckpointStore,
    registry: Optional[ClassRegistry] = None,
    keep_history: bool = False,
    branch: Optional[str] = None,
) -> int:
    """Fold one branch's recovery line into a fresh full checkpoint.

    Long delta chains make recovery slow and retain dead epochs;
    compaction replays the chain of ``branch``'s tip (default: the
    newest epoch's branch), records every live object into a new full
    epoch, and appends it onto that branch. With ``keep_history=False``
    (the default) the file-backed store then deletes every epoch the
    lineage graph no longer protects: an epoch survives iff it is on
    the base chain of some branch head or named checkpoint. Compaction
    therefore never cuts across a branch point or a named pin — other
    branches and every pin keep their full recovery lines.

    For a linear, unnamed store the protected set is exactly the new
    base, reproducing the old delete-everything-below behaviour.

    Returns the epoch index of the new base. The compacted state is
    byte-for-byte equivalent for recovery: ``recover()`` before and
    after yields structurally identical object tables (tests enforce
    this).
    """
    registry = registry or DEFAULT_REGISTRY
    store = store._compaction_store()
    lineage = store.lineage()
    if branch is None:
        head = lineage.newest()  # raises the no-full error when empty
    else:
        tips = lineage.branches()
        if branch not in tips:
            raise StorageError(f"unknown branch {branch!r}; cannot compact")
        head = tips[branch]
    head_epoch = lineage.epoch(head)
    table = store.materialize(head, registry, lineage=lineage)

    # Re-record every object. Flags are irrelevant here: we synthesize a
    # full checkpoint directly from the table (restored objects are clean).
    from repro.core.streams import DataOutputStream

    out = DataOutputStream()
    for obj in table.objects():
        out.write_int32(obj._ckpt_id)
        out.write_int32(obj._ckpt_serial)
        obj.record(out)
    new_index = store.append(
        FULL, out.getvalue(), parent=head, branch=head_epoch.branch
    )

    if not keep_history and isinstance(store, FileStore):
        after = store.lineage()
        protected = after.protected()
        store.remove(i for i in after.indices() if i not in protected)
    return new_index
