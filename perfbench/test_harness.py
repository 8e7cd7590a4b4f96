"""Self-tests of the benchmark harness, each on a tiny job list.

    python3 -m pytest -q perfbench/test_harness.py
"""

import json

import run

run.use_checkout_sources()

import workloads  # noqa: E402  (needs the checkout's sources on sys.path)
from deltaseries import stirling  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _tiny(count):
    return workloads.build("q_triangles", 2)[:count]


def test_every_named_metric_is_printed_with_its_unit():
    for trace, key, table in ((0, "end_to_end", run.END_TO_END), (1, "per_layer", run.PER_LAYER)):
        result, notes = run.measure("q_triangles", 2, 0.0, trace, setups=1, jobs=_tiny(3))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
        named = {m["name"]: m["unit"] for m in SPEC[key]}
        assert named == dict(table)
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == named
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        assert any(line.startswith("top self time") for line in notes) == bool(trace)
    assert hasattr(stirling.s2_assoc, "cache_info")  # the tracer put the originals back


def test_seed_changes_the_jobs():
    for name in workloads.WORKLOADS:
        one = [j.name for j in workloads.build(name, 1)]
        assert one == [j.name for j in workloads.build(name, 1)]
        assert one != [j.name for j in workloads.build(name, 2)]


def test_corrupted_output_counts_as_failed():
    jobs = [j for j in workloads.build("q_triangles", 2) if j.name.startswith("s2 ")][:2]
    honest = jobs[0].call

    def corrupted():
        tri = honest()
        return tri.with_entry(tri.max_n, 1, tri.entry(tri.max_n, 1) + 1)

    jobs[0].call = corrupted
    result, notes = run.measure("q_triangles", 2, 0.0, 0, setups=1, jobs=jobs)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] // 2
    assert result["metrics"]["ok_frac"]["value"] == 0.5
    assert any("differs from the closed form" in line or "orthogonality" in line for line in notes)


def test_raising_job_is_failed_but_not_wrong():
    jobs = _tiny(count=2)

    def boom():
        raise RuntimeError("boom")

    jobs[1].call = boom
    result, _notes = run.measure("q_triangles", 2, 0.0, 0, setups=1, jobs=jobs)
    assert result["correct"]
    assert result["failed"] == result["attempted"] // 2


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(1000) == 99.0
    assert run.tail_percentile(159) == 90.0
    assert run.tail_percentile(55) == 75.0
    assert run.tail_percentile(48) == 75.0
    assert run.tail_percentile(16) == 50.0


def test_timings_are_scaled_to_the_reference_speed():
    def measured(latency, reference):
        p = run.Pass()
        p.latency, p.cpu, p.reference = list(latency), list(latency), list(reference)
        return p

    latency = [0.001 * (j % 7 + 1) for j in range(30)]
    full = measured(latency, [run.REFERENCE_S] * 30)
    assert abs(full.scaled_wall - sum(latency)) < 1e-12
    # the machine at half speed for the second half of the pass
    slow = [1.0 if j < 15 else 2.0 for j in range(30)]
    half = measured([t * s for t, s in zip(latency, slow)], [run.REFERENCE_S * s for s in slow])
    assert abs(half.scaled_wall - sum(latency)) < 1e-12
    assert abs(half.scaled_cpu - sum(latency)) < 1e-12
