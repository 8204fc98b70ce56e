"""Shadow-heap dirtiness oracle — the dynamic half of the alias analysis.

:mod:`repro.spec.effects.aliasing` proves statically that no write can
bypass the per-object modified flag; this module *checks* the same
property at runtime, by brute force. The oracle keeps a **shadow heap**:
a full, field-by-field serialization of every object reachable from the
session's bound roots, keyed by object id. Around each commit it
re-serializes the live graph and byte-diffs it against the shadow:

- an object whose bytes changed (or that is newly reachable) while its
  modified flag is **clear** is an **under-approximation**
  (``unflagged-mutation``) — the soundness violation the paper's scheme
  cannot tolerate: the next delta would skip the object and restore
  would resurrect stale bytes;
- an object whose flag is **set** while its bytes are unchanged is an
  **over-approximation** (``overapproximated-flag``) — benign (a
  same-value store through a descriptor), but measurable waste the
  report surfaces.

Like the lockset sanitizer, the oracle observes and never perturbs:
serialization reads raw ``_f_*`` slots (no descriptor fires, no flag
moves), violations are reported once per ``(kind, class, field)``
through the obs seam (``oracle.violation`` events + an
``oracle.violations`` counter), and workloads run to completion.

Hook points on :class:`~repro.runtime.session.CheckpointSession`
(installed by ``session.attach_oracle(oracle)``):

``measure()``  → :meth:`ShadowHeapOracle.observe`
    Diff without advancing the shadow — measurement must stay pure.
``_commit()``  → :meth:`before_commit` / :meth:`after_commit`
    The diff is staged before the drivers run (they clear flags) and
    folded into the shadow only after the epoch persists, so a failed
    commit leaves the shadow on the last durable state.
``restore()``  → :meth:`resync`
    Restore rewrites object state wholesale; the shadow follows.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Set, Tuple

from repro.obs.metrics import NULL_METRICS
from repro.obs.tracer import NULL_TRACER

__all__ = [
    "OracleReport",
    "OracleViolation",
    "ShadowHeapOracle",
    "UNDER",
    "OVER",
]

#: violation kinds
UNDER = "unflagged-mutation"
OVER = "overapproximated-flag"

_tls = threading.local()

#: field snapshot: tuple of (field name, serialized bytes)
FieldImage = Tuple[Tuple[str, bytes], ...]


def serialize_fields(obj) -> FieldImage:
    """A faithful per-field image of one object, mirroring the wire format.

    Reads raw ``_f_*`` slots so no descriptor fires — serialization is
    side-effect-free, exactly like the generated ``record()`` methods
    (scalar value / scalar_list values / child id / child_list ids).
    """
    image = []
    for spec in obj._ckpt_schema:
        value = getattr(obj, spec.slot)
        if spec.role == "scalar":
            encoded = repr(value).encode("utf-8", "backslashreplace")
        elif spec.role == "scalar_list":
            encoded = repr(value._items).encode("utf-8", "backslashreplace")
        elif spec.role == "child":
            child_id = value._ckpt_id if value is not None else -1
            encoded = str(child_id).encode("ascii")
        else:  # child_list
            encoded = ",".join(
                str(c._ckpt_id) for c in value._items
            ).encode("ascii")
        image.append((spec.name, encoded))
    return tuple(image)


class OracleViolation:
    """One observed disagreement between the flags and the bytes."""

    __slots__ = (
        "kind", "cls", "field", "object_id", "phase", "commit_kind", "detail"
    )

    def __init__(
        self,
        kind: str,
        cls: str,
        field: str,
        object_id: int,
        phase: str,
        commit_kind: str,
        detail: str,
    ) -> None:
        self.kind = kind
        self.cls = cls
        self.field = field
        self.object_id = object_id
        #: session phase label the check ran under
        self.phase = phase
        #: ``full`` / ``delta`` / ``measure`` / ``resync``
        self.commit_kind = commit_kind
        self.detail = detail

    def key(self) -> Tuple[str, str, str]:
        return (self.kind, self.cls, self.field)

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "class": self.cls,
            "field": self.field,
            "object_id": self.object_id,
            "phase": self.phase,
            "commit_kind": self.commit_kind,
            "detail": self.detail,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<OracleViolation {self.kind} {self.cls}.{self.field}>"


class OracleReport:
    """The outcome of one oracle pass over the reachable graph."""

    __slots__ = ("phase", "commit_kind", "objects", "predicted", "changed",
                 "under", "over")

    def __init__(self, phase: str, commit_kind: str) -> None:
        self.phase = phase
        self.commit_kind = commit_kind
        #: reachable objects walked
        self.objects = 0
        #: objects the flags predicted dirty
        self.predicted = 0
        #: objects whose bytes actually differ from the shadow (or are new)
        self.changed = 0
        self.under: List[OracleViolation] = []
        self.over: List[OracleViolation] = []

    @property
    def consistent(self) -> bool:
        """No under-approximation: flags ⊇ bytes (the soundness direction)."""
        return not self.under

    @property
    def exact(self) -> bool:
        """Flags == bytes: neither direction disagrees."""
        return not self.under and not self.over

    def as_dict(self) -> dict:
        return {
            "phase": self.phase,
            "commit_kind": self.commit_kind,
            "objects": self.objects,
            "predicted": self.predicted,
            "changed": self.changed,
            "under": [v.as_dict() for v in self.under],
            "over": [v.as_dict() for v in self.over],
        }


class ShadowHeapOracle:
    """Byte-level ground truth for the modified-flag discipline.

    One oracle serves one session (its shadow tracks that session's
    roots), but the class is internally synchronized so background
    drains and test threads may race it safely.
    """

    def __init__(self, tracer=NULL_TRACER, metrics=NULL_METRICS) -> None:
        self.tracer = tracer
        self.metrics = metrics
        self.violations: List[OracleViolation] = []
        self.reports: List[OracleReport] = []
        #: object_id -> (class name, field image)
        self._shadow: Dict[int, Tuple[str, FieldImage]] = {}
        self._staged: Optional[Dict[int, Tuple[str, FieldImage]]] = None
        self._reported: Set[Tuple[str, str, str]] = set()
        self._mutex = threading.RLock()

    def instrument(self, tracer, metrics) -> None:
        """Attach obs hooks (only replaces the no-op defaults)."""
        with self._mutex:
            if self.tracer is NULL_TRACER:
                self.tracer = tracer
            if self.metrics is NULL_METRICS:
                self.metrics = metrics

    # -- the diff ----------------------------------------------------------

    def _walk(self, roots) -> List:
        from repro.core.checkpoint import collect_objects

        objects: List = []
        seen: Set[int] = set()
        for root in roots:
            for obj in collect_objects(root):
                oid = obj._ckpt_id
                if oid not in seen:
                    seen.add(oid)
                    objects.append(obj)
        return objects

    def _diff(
        self, roots, phase: str, commit_kind: str, stage: bool
    ) -> OracleReport:
        report = OracleReport(phase, commit_kind)
        # A full commit writes every object regardless of flags, so
        # flag/byte disagreement there cannot lose bytes — and clearing
        # flags ahead of a base (``reset_flags``) is a legitimate
        # pattern. Only measure and delta kinds carry verdicts; a full
        # commit just adopts the live state into the shadow.
        enforce = commit_kind != "full"
        staged: Dict[int, Tuple[str, FieldImage]] = {}
        for obj in self._walk(roots):
            oid = obj._ckpt_id
            cls_name = type(obj).__name__
            image = serialize_fields(obj)
            staged[oid] = (cls_name, image)
            report.objects += 1
            flagged = obj._ckpt_dirty
            if flagged:
                report.predicted += 1
            prior = self._shadow.get(oid)
            if prior is None:
                # newly reachable: must be flag-predicted (fresh objects
                # construct with modified=True; a clear flag means it was
                # wiped through a bypass)
                report.changed += 1
                if not flagged and enforce:
                    self._violate(
                        report, UNDER, cls_name, "<new-object>", oid,
                        phase, commit_kind,
                        f"new reachable {cls_name}#{oid} has a clear "
                        "modified flag: it would never be written",
                    )
                continue
            prior_cls, prior_image = prior
            changed_fields = [
                name
                for (name, encoded), (_, prior_encoded) in zip(
                    image, prior_image
                )
                if encoded != prior_encoded
            ] if prior_cls == cls_name else ["<class-changed>"]
            if changed_fields:
                report.changed += 1
                if not flagged and enforce:
                    self._violate(
                        report, UNDER, cls_name, changed_fields[0], oid,
                        phase, commit_kind,
                        f"{cls_name}#{oid}.{changed_fields[0]} bytes "
                        "changed with a clear modified flag: a delta "
                        "commit would skip it",
                    )
            elif flagged and enforce:
                self._violate(
                    report, OVER, cls_name, "<unchanged>", oid,
                    phase, commit_kind,
                    f"{cls_name}#{oid} flagged modified but every field "
                    "is byte-identical to the shadow (benign "
                    "over-approximation)",
                )
        if stage:
            self._staged = staged
        self.reports.append(report)
        return report

    # -- session hooks -----------------------------------------------------

    def observe(self, roots, phase: str = "measure") -> OracleReport:
        """Diff without advancing the shadow (``measure()`` must stay pure)."""
        with self._mutex:
            return self._diff(roots, phase, "measure", stage=False)

    def before_commit(
        self, roots, phase: str = "", commit_kind: str = "delta"
    ) -> OracleReport:
        """Diff and stage the new images before the drivers clear flags."""
        with self._mutex:
            return self._diff(roots, phase, commit_kind, stage=True)

    def after_commit(self) -> None:
        """Fold the staged images in — the epoch is durable now."""
        with self._mutex:
            if self._staged is not None:
                self._shadow.update(self._staged)
                self._staged = None

    def resync(self, roots, phase: str = "restore") -> None:
        """Rebuild the shadow from live state (after ``restore()``)."""
        with self._mutex:
            self._staged = None
            self._shadow = {
                obj._ckpt_id: (
                    type(obj).__name__,
                    serialize_fields(obj),
                )
                for obj in self._walk(roots)
            }

    # -- reporting ---------------------------------------------------------

    def _violate(
        self,
        report: OracleReport,
        kind: str,
        cls: str,
        field: str,
        object_id: int,
        phase: str,
        commit_kind: str,
        detail: str,
    ) -> None:
        violation = OracleViolation(
            kind, cls, field, object_id, phase, commit_kind, detail
        )
        (report.under if kind == UNDER else report.over).append(violation)
        key = violation.key()
        if key in self._reported:
            return
        self._reported.add(key)
        self.violations.append(violation)
        if getattr(_tls, "in_oracle", False):
            return
        _tls.in_oracle = True
        try:
            self.tracer.event(
                "oracle.violation",
                kind=kind,
                **{"class": cls},
                field=field,
                object_id=object_id,
                phase=phase,
                commit_kind=commit_kind,
                detail=detail,
            )
            self.metrics.counter("oracle.violations", kind=kind).inc()
        finally:
            _tls.in_oracle = False

    # -- queries -----------------------------------------------------------

    def under(self) -> List[OracleViolation]:
        with self._mutex:
            return [v for v in self.violations if v.kind == UNDER]

    def over(self) -> List[OracleViolation]:
        with self._mutex:
            return [v for v in self.violations if v.kind == OVER]

    def violation_keys(self) -> Set[Tuple[str, str]]:
        """``(class, field)`` pairs with a soundness verdict (crosscheck key)."""
        with self._mutex:
            return {(v.cls, v.field) for v in self.violations if v.kind == UNDER}

    def shadow_size(self) -> int:
        with self._mutex:
            return len(self._shadow)

    def reset(self) -> None:
        """Forget all state (between workloads in one process)."""
        with self._mutex:
            self.violations.clear()
            self.reports.clear()
            self._shadow.clear()
            self._staged = None
            self._reported.clear()
