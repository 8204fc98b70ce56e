"""The crash-simulation acceptance matrix.

This is the headline robustness test: every seeded scenario runs a real
checkpoint session under injected faults, "crashes" it, repairs the
store, and demands every surviving epoch materialize byte-identically to
a fault-free run at the same epoch index. The full matrix runs in well under
a second, so the suite runs it wholesale rather than sampling.
"""

import pytest

from repro.faults import CrashSim, FaultPlan, FaultSpec, Scenario, build_matrix
from repro.faults.crashsim import (
    BRANCH_PATH,
    PATHS,
    REPLICA_PATH,
    default_workload,
    run,
)
from repro.faults.plan import CRASH_KINDS, KILL_REPLICA, TRANSIENT
from repro.obs.tracer import MemoryExporter, Tracer


@pytest.fixture(scope="module")
def matrix_summary(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("crashsim")
    return run(str(workdir))


class TestMatrix:
    def test_meets_scenario_floor(self, matrix_summary):
        assert matrix_summary["total"] >= 50

    def test_every_scenario_recovers_byte_identically(self, matrix_summary):
        failed = [
            entry["name"]
            for entry in matrix_summary["scenarios"]
            if not entry["ok"]
        ]
        assert failed == []
        assert matrix_summary["failures"] == 0

    def test_matrix_actually_crashes_runs(self, matrix_summary):
        crashed = [
            entry for entry in matrix_summary["scenarios"] if entry["crashed"]
        ]
        assert len(crashed) >= 20

    def test_matrix_covers_every_write_path(self, matrix_summary):
        assert {
            entry["path"] for entry in matrix_summary["scenarios"]
        } == set(PATHS)

    def test_durable_prefixes_span_the_run(self, matrix_summary):
        durable = {
            entry["durable_epochs"] for entry in matrix_summary["scenarios"]
        }
        # Crashes at different ops must strand the store at different
        # points, including "nothing durable" and "everything durable".
        assert 0 in durable
        assert matrix_summary["epochs"] in durable
        assert len(durable) >= 4

    def test_faults_were_injected_not_just_planned(self, matrix_summary):
        injected = [
            entry
            for entry in matrix_summary["scenarios"]
            if entry["injected"]
        ]
        assert len(injected) >= 40


class TestDeterminism:
    def test_build_matrix_is_seed_stable(self):
        first = build_matrix(seed=7)
        second = build_matrix(seed=7)
        assert [s.name for s in first] == [s.name for s in second]
        assert [s.plan.specs() for s in first] == [
            s.plan.specs() for s in second
        ]

    def test_single_scenario_repeats_identically(self, tmp_path):
        scenario = Scenario(
            name="repeat-torn",
            plan=FaultPlan.single(FaultSpec(2, "torn", param=9)),
            path="store",
        )
        sim = CrashSim(str(tmp_path))
        first = sim.run_scenario(scenario)
        second = sim.run_scenario(scenario)
        assert first.ok and second.ok
        assert first.durable_epochs == second.durable_epochs
        assert first.injected == second.injected


class TestWorkload:
    def test_default_workload_mutates_between_epochs(self):
        from repro.synthetic.structures import element_at

        workload = default_workload()
        roots = workload.build()
        target = element_at(roots[1 % len(roots)], 1, 1)
        before = target.v0
        workload.mutate(roots, 1)
        assert target.v0 == 1007
        assert target.v0 != before

    def test_fault_free_reference_is_cached(self, tmp_path):
        sim = CrashSim(str(tmp_path))
        first = sim.reference()
        second = sim.reference()
        assert first is second
        # One fingerprint per epoch index of the fault-free run.
        assert set(first) == set(range(sim.workload.epochs))
        assert len(set(first.values())) == len(first)


class TestScenarioShapes:
    def test_matrix_exercises_crash_and_transient_kinds(self):
        kinds = set()
        for scenario in build_matrix():
            for spec in scenario.plan:
                kinds.add(spec.kind)
        assert TRANSIENT in kinds
        assert kinds.issuperset(CRASH_KINDS)

    def test_names_and_runs_are_unique(self):
        scenarios = build_matrix()
        names = [s.name for s in scenarios]
        assert len(set(names)) == len(names)
        keys = {
            (s.path, tuple(s.plan.specs()), s.replicas, s.quorum)
            for s in scenarios
        }
        assert len(keys) == len(scenarios)

    def test_session_kinds_need_the_branch_path(self):
        with pytest.raises(Exception, match="needs the 'branch' path"):
            Scenario(
                name="bad",
                plan=FaultPlan.single(FaultSpec(0, "crash-fork")),
                path="store",
            )

    def test_replica_kinds_and_sizing_need_the_replica_path(self):
        with pytest.raises(Exception, match="needs the 'replica' path"):
            Scenario(
                name="bad",
                plan=FaultPlan.single(FaultSpec(0, KILL_REPLICA)),
                path="background",
            )
        with pytest.raises(Exception, match="only to the 'replica' path"):
            Scenario(name="bad", plan=FaultPlan(), path="store", replicas=5)

    def test_unknown_path_rejected(self):
        with pytest.raises(Exception, match="unknown scenario path"):
            Scenario(name="bad", plan=FaultPlan(), path="carrier-pigeon")


class TestOneHarness:
    def test_one_scenario_per_path_under_a_tracer(self, tmp_path):
        """One sim runs every path and traces each run as one span."""
        plans = {
            "store": FaultPlan.single(FaultSpec(2, "crash-after")),
            "background": FaultPlan.single(FaultSpec(1, TRANSIENT)),
            BRANCH_PATH: FaultPlan.single(FaultSpec(0, "crash-fork")),
            REPLICA_PATH: FaultPlan.single(
                FaultSpec(3, KILL_REPLICA, replica=1)
            ),
        }
        assert set(plans) == set(PATHS)
        exporter = MemoryExporter()
        sim = CrashSim(str(tmp_path), tracer=Tracer([exporter]))
        results = sim.run_matrix(
            [
                Scenario(name=f"one-{path}", plan=plan, path=path)
                for path, plan in plans.items()
            ]
        )
        assert [r.path for r in results] == list(plans)
        assert all(r.ok for r in results), [r.detail for r in results]
        ends = exporter.of_type("crashsim.scenario.end")
        assert sorted(e["path"] for e in ends) == sorted(plans)
        assert [e["name"] for e in ends] == [r.name for r in results]
