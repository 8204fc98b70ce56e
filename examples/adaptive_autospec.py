"""Adaptive checkpointing: derive specialization classes automatically.

Run with::

    python examples/adaptive_autospec.py

The paper's future work (section 7) proposes constructing specialization
classes automatically from the program's observed modification pattern.
This example runs a workload whose behaviour the programmer never
declares: a ring of sensor aggregators where, for long stretches, only
one "hot" region is updated. A :class:`PatternObserver` watches a few
warm-up rounds, the derived guarded specialized routine then checkpoints
at specialized speed — and when the workload shifts to a new region, the
guard fires once and the specializer refines itself.
"""

import time

from repro.core.checkpoint import Checkpoint, FullCheckpoint, reset_flags
from repro.core.checkpointable import Checkpointable
from repro.core.errors import PatternViolationError
from repro.core.fields import child, child_list, scalar
from repro.core.streams import DataOutputStream
from repro.spec.autospec import AutoSpecializer, PatternObserver
from repro.spec.shape import Shape

REGIONS = 8
SENSORS_PER_REGION = 6
ROUNDS_PER_PHASE = 40


class Sensor(Checkpointable):
    reading = scalar("int")
    samples = scalar("int")


class Region(Checkpointable):
    name = scalar("str")
    sensors = child_list(Sensor)
    total = scalar("int")


class Plant(Checkpointable):
    regions = child_list(Region)
    alarm = child(Sensor)


def build_plant() -> Plant:
    plant = Plant()
    for index in range(REGIONS):
        region = Region(name=f"region-{index}")
        for _ in range(SENSORS_PER_REGION):
            region.sensors.append(Sensor())
        plant.regions.append(region)
    plant.alarm = Sensor()
    return plant


def update_region(plant: Plant, region_index: int, round_index: int) -> None:
    region = plant.regions[region_index]
    sensor = region.sensors[round_index % SENSORS_PER_REGION]
    sensor.reading = round_index * 3 + region_index
    sensor.samples = sensor.samples + 1
    region.total = region.total + sensor.reading


def main() -> None:
    plant = build_plant()
    base = FullCheckpoint()
    base.checkpoint(plant)
    shape = Shape.of(plant)

    # -- warm up: observe which positions the workload actually touches ----
    observer = PatternObserver(shape)
    for round_index in range(5):
        update_region(plant, region_index=2, round_index=round_index)
        observer.observe(plant)
        driver = Checkpoint()  # still checkpointing generically
        driver.checkpoint(plant)
    print(
        f"observed {len(observer.seen_dirty())} dirty positions out of "
        f"{shape.node_count()} ({observer.coverage():.0%} of the structure)"
    )

    auto = AutoSpecializer(shape, observer, name="plant_ckpt")
    fast = auto.compiled()
    print(f"derived routine: {len(fast.source_lines())} lines "
          f"(vs a {shape.node_count()}-node structure)\n")

    def run_phase(region_index: int, label: str) -> None:
        nonlocal fast
        refinements = 0
        start = time.perf_counter()
        produced = 0
        for round_index in range(ROUNDS_PER_PHASE):
            update_region(plant, region_index, round_index)
            out = DataOutputStream()
            try:
                fast(plant, out)
            except PatternViolationError:
                # The workload shifted: widen the pattern and recompile.
                fast = auto.refine(plant)
                refinements += 1
                out = DataOutputStream()
                fast(plant, out)
            produced += out.size
        elapsed = (time.perf_counter() - start) * 1000
        print(
            f"{label}: {ROUNDS_PER_PHASE} checkpoints, {produced} bytes, "
            f"{elapsed:.2f} ms, {refinements} refinement(s), "
            f"routine now covers {len(auto.observer.seen_dirty())} positions"
        )

    run_phase(2, "phase 1 (hot region 2, as observed)")
    run_phase(5, "phase 2 (workload shifts to region 5)")
    run_phase(5, "phase 3 (region 5 again, no further refinement)")

    # Sanity: the adaptive checkpoints replay to the live state.
    from repro.core.restore import structurally_equal
    reset_flags(plant)
    check = FullCheckpoint()
    check.checkpoint(plant)
    from repro.core.restore import restore_full
    recovered = restore_full(check.getvalue())[plant.get_checkpoint_info().object_id]
    assert structurally_equal(plant, recovered, compare_ids=True)
    print("\nfinal state verified against a fresh full checkpoint")


if __name__ == "__main__":
    main()
