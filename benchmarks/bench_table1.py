"""Table 1: checkpointing the program analysis engine, per strategy.

Benchmarks one end-of-iteration checkpoint of the engine's Attributes
population in the state the binding-time-analysis phase leaves it in
(only ``bt_entry`` subtrees dirty), for the full, incremental, reflective
and specialized strategies — the rows of the paper's Table 1.
"""

import pytest

from repro.analysis.engine import AnalysisEngine
from repro.analysis.programs import image_division, paper_scale_source
from repro.core.checkpoint import Checkpoint, FullCheckpoint, ReflectiveCheckpoint
from repro.core.streams import DataOutputStream


@pytest.fixture(scope="module")
def engine():
    built = AnalysisEngine(
        paper_scale_source(), division=image_division(), strategy="specialized"
    )
    built.run()
    return built


@pytest.fixture(scope="module")
def bta_state(engine):
    """Flag state equivalent to mid-BTA-phase: bt annotations dirty."""

    def make_dirty():
        for attrs in engine.attributes.entries:
            info = attrs.bt_entry.bt.get_checkpoint_info()
            if attrs.node_id % 3 == 0:
                info.set_modified()
            else:
                info.reset_modified()

    return make_dirty


def _run(benchmark, engine, bta_state, target):
    return benchmark.pedantic(
        target,
        setup=lambda: (bta_state(), None)[1],
        rounds=10,
        iterations=1,
        warmup_rounds=1,
    )


def bench_full(engine):
    driver = FullCheckpoint(DataOutputStream())
    for attrs in engine.attributes.entries:
        driver.checkpoint(attrs)
    return driver.size


def bench_incremental(engine):
    driver = Checkpoint(DataOutputStream())
    for attrs in engine.attributes.entries:
        driver.checkpoint(attrs)
    return driver.size


def bench_reflective(engine):
    driver = ReflectiveCheckpoint(DataOutputStream())
    for attrs in engine.attributes.entries:
        driver.checkpoint(attrs)
    return driver.size


def test_table1_full(benchmark, engine, bta_state):
    benchmark.extra_info["paper"] = "Table 1, full checkpointing row"
    size = _run(benchmark, engine, bta_state, lambda: bench_full(engine))
    assert size > 0


def test_table1_incremental(benchmark, engine, bta_state):
    benchmark.extra_info["paper"] = "Table 1, incremental checkpointing row"
    size = _run(benchmark, engine, bta_state, lambda: bench_incremental(engine))
    assert 0 < size < bench_full(engine)


def test_table1_reflective(benchmark, engine, bta_state):
    benchmark.extra_info["paper"] = "Table 1 (related-work reflection tier)"
    _run(benchmark, engine, bta_state, lambda: bench_reflective(engine))


def test_table1_specialized(benchmark, engine, bta_state):
    fn = engine.specialized_for("BTA")
    benchmark.extra_info["paper"] = (
        "Table 1, specialized incremental row (paper speedup: 1.8x BTA)"
    )

    def bench_spec():
        out = DataOutputStream()
        fn.checkpoint_all(engine.attributes.entries._items, out)
        return out.size

    size = _run(benchmark, engine, bta_state, bench_spec)
    bta_state()
    assert size == bench_incremental(engine)
