"""
Self-tests of the benchmark's own arithmetic and replay.

    python3 -m pytest -q relaybench/test_bench.py
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from relaydmt import channel_sim  # noqa: E402


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def perf_counter_ns(self):
        return next(self.ticks)


def test_self_time_subtracts_direct_children_only(monkeypatch):
    # parent 0-10 holds child 1-3 (with grandchild 1.5-2.5) and child 5-6.
    monkeypatch.setattr(spans, "time", FakeClock([0, 100, 150, 250, 300, 500, 600, 1000]))
    tracer = spans.Tracer()
    parent = tracer.open("parent")
    child = tracer.open("child")
    tracer.close(tracer.open("grandchild"))
    tracer.close(child)
    tracer.close(tracer.open("child"))
    tracer.close(parent)
    assert tracer.samples("parent") == [1000]
    assert tracer.samples("parent", self_time=True) == [1000 - 200 - 100]
    assert tracer.samples("child") == [200, 100]
    assert tracer.samples("child", self_time=True) == [100, 100]
    assert tracer.samples("grandchild", self_time=True) == [100]


@pytest.mark.parametrize(
    "n, value, pct",
    [(0, 0.0, 0.0), (5, 3.0, 50.0), (19, 10.0, 50.0), (20, 10.0, 50.0),
     (100, 90.0, 90.0), (1000, 990.0, 99.0)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, value, pct):
    samples = [float(i) for i in range(n, 0, -1)]  # unsorted 1..n
    got_value, got_pct = spans.tail_percentile(samples)
    assert (got_value, got_pct) == (value, pct)
    if n >= 20:
        assert sum(s > got_value for s in samples) == 10


@pytest.mark.parametrize("kind, dim", [("af", (2, 2, 2)), ("ff", (2, 2, 2)),
                                       ("df", (3, 1, 4, 2)), ("pf", (1, 4, 1))])
def test_replay_reproduces_estimate_outage_counts(kind, dim):
    scheme = workloads.build_scheme(workloads.Curve("t", dim, kind, ()))
    trials, seed, snr_db = 3000, 11, 12.0
    want = channel_sim.estimate_outage(dim, scheme, 2.0, snr_db, trials, seed).outage_count
    assert want > 0
    assert workloads.replay_count(dim, kind, scheme, 2.0, snr_db, trials, seed) == want


def test_patches_trace_internal_calls_and_restore():
    tracer = spans.Tracer()
    patches = run.install_spans(tracer)
    original = channel_sim.sample_block
    with patches.installed():
        channel_sim.estimate_outage((2, 2, 2), channel_sim.AfScheme(), 2.0, 10.0, 100, 1)
    assert channel_sim.sample_block is original
    assert len(tracer.samples("channel_sim.sample_block")) == 1
    assert len(tracer.samples("channel_sim.mutual_info")) == 1
    (outer,) = tracer.samples("channel_sim.estimate_outage")
    (inner,) = tracer.samples("channel_sim.estimate_outage", self_time=True)
    assert 0 < inner < outer


def test_count_tolerance():
    assert run.compare(10, 10) == "same"
    assert run.compare(10, 10 + run.COUNT_TOLERANCE) == "moved"
    assert run.compare(10, 12 + run.COUNT_TOLERANCE) == "failed"
    assert run.compare(6400.0, 6400.0 * (1 + 1e-12)) == "same"
    assert run.compare("abc123", "abc124") == "failed"
    assert run.compare(True, False) == "failed"


def test_workload_names_match():
    assert tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES


def test_missing_attribute_stops_the_traced_run():
    patches = spans.Patches(spans.Tracer())
    with pytest.raises(AttributeError, match="no_such_stage"):
        patches.wrap(channel_sim, "no_such_stage", "channel_sim.no_such_stage")
    with pytest.raises(AttributeError, match="NoSuchPool"):
        patches.count_instances(channel_sim, "NoSuchPool", "channel_sim.pool_starts")


def test_a_span_that_applies_must_record_samples():
    w = workloads.CliParallel(0)
    tracer = spans.Tracer()
    tracer.close(tracer.open("cli.main"))
    tracer.count("channel_sim.pool_starts", 3)
    checks = run.traced_span_checks(w, tracer)
    assert checks["traced:cli.main"][0] and checks["traced:channel_sim.pool_starts"][0]
    assert checks["traced:channel_sim.estimate_outage"] == (
        False, "span channel_sim.estimate_outage recorded nothing"
    )


def test_exact_chunks_cover_every_dimension_once():
    w = workloads.WORKLOADS["exact-analytic"](3)
    spans_of = {k: [] for k in ("dmt", "partition", "nvd")}
    for kind, lo, hi in w.chunks():
        spans_of[kind].append((lo, hi))
    for kind, n in (("dmt", len(w.DIMS_DMT)), ("partition", len(w.DIMS_PARTITION)),
                    ("nvd", len(w.NVD_LABELS))):
        assert [i for lo, hi in spans_of[kind] for i in range(lo, hi)] == list(range(n))


@pytest.mark.parametrize(
    "samples, want",
    [([5.0], 5.0), ([1.0, 3.0], 2.0), ([9.0] + [2.0] * 8 + [0.0], 2.0),
     ([100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0], 6.5)],
)
def test_trimmed_mean_drops_a_tenth_at_each_end(samples, want):
    assert run.trimmed_mean(samples) == want


def test_monte_carlo_runs_every_part_and_checks_every_reference():
    w = workloads.MonteCarlo(0)
    parts = [type(part) for part in w.parts]
    assert parts == [workloads.OutageGrid, workloads.CodedSer, workloads.CliParallel]
    assert len(w.chunks()) == sum(len(part.chunks()) for part in w.parts)
    reference = {p.name: {"0": {f"{p.name}-op": 1}} for p in workloads.PARTS}
    assert set(w.expected(reference)) == {f"{p.name}-op" for p in parts}
