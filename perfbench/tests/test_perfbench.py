"""Tests of the benchmark itself (not of the program it measures).

Run from the repository root::

    python3 -m pytest -q perfbench/tests

The minimal runs personalize a handful of captures, so the module takes
about two minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, ROOT)

from perfbench import gen  # noqa: E402
from perfbench.tracer import Tracer, layer_totals, self_times  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)

#: The smallest run of each workload: one job in process, and a served
#: batch just large enough to hold one resubmission.
MINIMAL_JOBS = {"fresh": 1, "degraded": 1, "served": 5}


class TestGenerator:
    @pytest.mark.parametrize("workload", ["fresh", "degraded", "served"])
    def test_pure_function_of_seed(self, workload):
        assert gen.jobs(workload, 3, 12) == gen.jobs(workload, 3, 12)
        assert gen.jobs(workload, 3, 12) != gen.jobs(workload, 4, 12)

    @pytest.mark.parametrize("workload", ["fresh", "degraded", "served"])
    def test_longer_runs_extend_shorter_ones(self, workload):
        assert gen.jobs(workload, 5, 20)[:7] == gen.jobs(workload, 5, 7)

    def test_fresh_subjects_are_distinct_across_workloads(self):
        fresh = {j.subject_seed for j in gen.jobs("fresh", 1, 40)}
        degraded = {j.subject_seed for j in gen.jobs("degraded", 1, 40)}
        assert len(fresh) == 40 and len(degraded) == 40
        assert not fresh & degraded

    def test_degraded_cycles_through_every_fault(self):
        specs = gen.jobs("degraded", 1, 2 * len(gen.DEGRADED_FAULTS))
        faults = [(s.fault, dict(s.fault_args)) for s in specs]
        expected = [(f, dict(a)) for f, a in gen.DEGRADED_FAULTS]
        assert faults == expected * 2

    def test_served_resubmissions_repeat_an_earlier_spec(self):
        size = gen.served_batch_size(30, 2)
        specs = gen.jobs("served", 2, size)
        resubmitted = [s for s in specs if s.resubmit_of is not None]
        assert len(resubmitted) == size // 5
        for spec in resubmitted:
            original = specs[spec.resubmit_of]
            assert original.resubmit_of is None
            assert spec.index - original.index >= 3
            assert (spec.subject_seed, spec.session_seed) == (
                original.subject_seed, original.session_seed,
            )
        fresh = [s.subject_seed for s in specs if s.resubmit_of is None]
        assert len(set(fresh)) == len(fresh)


class TestTracer:
    def test_self_time_subtracts_direct_children(self):
        spans = [
            ["job", 0.0, 10.0, -1, 1, None],
            ["a", 1.0, 5.0, 0, 1, None],
            ["b", 2.0, 3.0, 1, 1, None],
            ["a", 6.0, 7.0, 0, 1, None],
        ]
        assert self_times(spans) == [5.0, 3.0, 1.0, 1.0]
        totals = layer_totals(spans)[1]
        assert totals["a"] == {"s": 5.0, "self_s": 4.0, "calls": 2}

    def test_wrappers_nest_and_restore(self):
        import types

        module = types.ModuleType("perfbench_fake_layer")

        def inner(x):
            return x + 1

        def outer(x):
            return module.inner(x) * 2

        module.inner, module.outer = inner, outer
        sys.modules[module.__name__] = module
        tracer = Tracer()
        try:
            tracer.install([
                (module.__name__, "inner", "layer.inner"),
                (module.__name__, "outer", "layer.outer"),
                (module.__name__, "gone", "layer.gone"),
            ])
            with tracer.job(7):
                assert module.outer(1) == 4
        finally:
            tracer.uninstall()
            del sys.modules[module.__name__]
        assert module.inner is inner and module.outer is outer
        assert tracer.missing == [f"{module.__name__}:gone"]
        names = [(row[0], row[3], row[4]) for row in tracer.take()]
        assert names == [("job", -1, 7), ("layer.outer", 0, 7), ("layer.inner", 1, 7)]


def _run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "1", "--seconds", "1", "--trace", str(trace),
            "--jobs", str(MINIMAL_JOBS[workload]),
        ],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _record(workload: str, trace: int) -> dict:
    with open(
        os.path.join(ROOT, ".perfbench", f"{workload}-seed1-trace{trace}.json")
    ) as handle:
        return json.load(handle)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_minimal_run_emits_every_named_metric(workload):
    counts = []
    for trace, declared in ((0, BENCHMARK["end_to_end"]), (1, BENCHMARK["per_layer"])):
        done = _run(workload, trace)
        assert done.returncode == 0, done.stdout + done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        expected = {m["name"]: m["unit"] for m in declared}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        for entry in result["metrics"].values():
            assert isinstance(entry["value"], float)
        counts.append(_record(workload, trace)["counts"])
    # Tracing observes only: the same seed gives the same exact counts.
    assert counts[0] == counts[1]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(
            os.path.join(ROOT, path), tmp_path / path,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
    done = _run("fresh", 0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert "correct" not in done.stdout
