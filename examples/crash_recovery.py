"""Crash-tolerant analysis: persist checkpoints, crash, recover, resume.

Run with::

    python examples/crash_recovery.py

Demonstrates the durable substrate beneath the paper's scheme, driven
entirely through the checkpoint runtime: the engine's
:class:`~repro.runtime.session.CheckpointSession` drains every epoch (one
base full checkpoint, then one incremental delta per analysis iteration)
into a file-backed store; we simulate a crash that tears the final epoch
mid-write, then recover in a "fresh process" and resume the analysis.
Recovery discards the torn tail, restores the exact surviving state, and
the resumed run converges from the restored intermediate results.
"""

import os
import shutil
import tempfile

from repro import FileStore
from repro.analysis.engine import AnalysisEngine
from repro.analysis.programs import image_division, image_pipeline_source
from repro.core.restore import state_digest


def main() -> None:
    workdir = tempfile.mkdtemp(prefix="repro-ckpt-")
    try:
        source = image_pipeline_source(kernels=3)
        division = image_division()

        # -- first run: analyse with persistent checkpoints ------------------
        # The engine's session commits every epoch straight into this
        # store.
        store = FileStore(os.path.join(workdir, "checkpoints"))
        engine = AnalysisEngine(
            source, division=division, strategy="incremental", store=store
        )
        engine.run()
        digest_before = state_digest(engine.attributes, include_ids=True)
        epochs = engine.session.store.epochs()
        print(f"first run: {len(epochs)} epochs persisted "
              f"({sum(len(e.data) for e in epochs)} bytes, "
              f"{engine.session.deltas_since_full} deltas on the chain)")

        # -- simulate a crash mid-write of one more epoch ---------------------
        torn_path = os.path.join(store.directory, f"epoch-{len(epochs):06d}.ckpt")
        with open(torn_path, "wb") as handle:
            handle.write(b"RCKP\x01\x00\xff\xff")  # header cut off mid-frame
        print(f"simulated crash: torn epoch written to {os.path.basename(torn_path)}")

        # -- recover in a fresh engine ("new process") -------------------------
        store2 = FileStore(os.path.join(workdir, "checkpoints"))
        assert len(store2.epochs()) == len(epochs), "torn tail must be discarded"
        recovered = AnalysisEngine.recover(
            source, store2, division=division, strategy="incremental"
        )
        digest_after = state_digest(recovered.attributes, include_ids=True)
        assert digest_before == digest_after, "recovered state differs!"
        print("recovered state matches the pre-crash state exactly")

        # -- resume: the analyses converge from the restored results -----------
        report = recovered.run()
        resumed_bytes = report.total_checkpoint_bytes()
        print(
            f"resumed run: iterations {report.phase_iterations}, "
            f"{resumed_bytes} bytes of new incremental checkpoints"
        )
        print(
            "(the resumed deltas are small: the restored fixpoint state was "
            "already mostly converged)"
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
