"""Tests for the observability layer: run traces, the counter-scope
registry, the flight recorder, and the bench-diff tolerance bands."""

import json

import numpy as np
import pytest

from repro import ApproxMetricDBSCAN, MetricDataset, MetricDBSCAN, StreamingApproxDBSCAN
from repro.datasets import make_moons
from repro.metricspace.precomputed import CachedMetric
from repro.obs import diff as obs_diff
from repro.obs import recorder
from repro.obs.registry import REGISTRY, CounterScope, MetricsRegistry, metric_sources
from repro.obs.trace import RunTrace
from repro.utils.timer import TimingBreakdown


class TestRunTrace:
    def test_nested_spans(self):
        tb = TimingBreakdown()
        with tb.phase("outer"):
            with tb.phase("inner"):
                pass
        root = tb.trace.root
        assert set(root.children) == {"outer"}
        outer = root.children["outer"]
        assert set(outer.children) == {"inner"}
        assert outer.n_calls == 1
        assert outer.children["inner"].n_calls == 1

    def test_repeated_phase_accumulates_one_node(self):
        tb = TimingBreakdown()
        for _ in range(3):
            with tb.phase("p"):
                pass
        span = tb.trace.root.children["p"]
        assert span.n_calls == 3
        assert span.seconds == pytest.approx(tb.phases["p"])

    def test_flatten_matches_flat_phases(self):
        tb = TimingBreakdown()
        with tb.phase("a"):
            with tb.phase("b"):
                pass
        with tb.phase("b"):
            pass
        flat = tb.trace.flatten()
        assert set(flat) == set(tb.phases)
        for name, seconds in tb.phases.items():
            assert flat[name] == pytest.approx(seconds)

    def test_out_of_order_close_rejected(self):
        trace = RunTrace()
        first = trace.begin("a")
        trace.begin("b")
        with pytest.raises(RuntimeError, match="out of order"):
            trace.finish(first)

    def test_span_counter_attribution(self):
        tb = TimingBreakdown()
        with tb.phase("work"):
            tb.count("widgets", 5)
        tb.count("widgets", 2)  # outside any span: run-level only
        span = tb.trace.root.children["work"]
        assert span.counters == {"widgets": 5}
        assert tb.counters["widgets"] == 7

    def test_as_dict_round_trips_through_json(self):
        tb = TimingBreakdown()
        with tb.phase("a"):
            with tb.phase("b"):
                tb.count("k", 1)
        data = json.loads(json.dumps(tb.trace.as_dict()))
        assert data["name"] == "run"
        assert data["children"][0]["name"] == "a"
        assert data["children"][0]["children"][0]["name"] == "b"

    def test_memory_sampling_opt_in(self, monkeypatch):
        import tracemalloc

        monkeypatch.setenv("REPRO_TRACE", "mem")
        try:
            tb = TimingBreakdown()
            with tb.phase("p"):
                pass
            sample = tb.trace.root.children["p"].memory
            assert sample is not None
            assert sample.get("rss_bytes", 0) > 0
            assert "tracemalloc_peak_bytes" in sample
        finally:
            if tracemalloc.is_tracing():
                tracemalloc.stop()

    def test_memory_sampling_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        tb = TimingBreakdown()
        with tb.phase("p"):
            pass
        assert tb.trace.root.children["p"].memory is None


class _AbsMetric:
    """Minimal metric over integer payloads for wrapper tests."""

    is_vector_metric = False

    def distance(self, a, b):
        return float(abs(a - b))


class TestCounterScope:
    def test_cache_counters_are_per_run(self):
        cached = CachedMetric(_AbsMetric())
        cached.distance(1, 2)  # pre-scope miss must not leak in
        tb = TimingBreakdown()
        with CounterScope(tb, metric=cached, registry=MetricsRegistry()):
            cached.distance(1, 2)  # hit
            cached.distance(2, 5)  # miss
        assert tb.counters["cache/hits"] == 1
        assert tb.counters["cache/misses"] == 1

    def test_metric_sources_walk_wrapper_chain(self):
        cached = CachedMetric(_AbsMetric())
        sources = metric_sources(cached)
        assert set(sources) == {"cache"}
        assert sources["cache"]() == {"hits": 0, "misses": 0}

    def test_cascade_registered_on_default_registry(self):
        assert "cascade" in REGISTRY.namespaces()
        snap = REGISTRY.snapshot()["cascade"]
        assert set(snap) >= {"n_certified", "n_rescued"}

    def test_namespace_slash_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().register("a/b", lambda: {})

    def test_registry_deltas_and_reset_guard(self):
        state = {"events": 10}
        registry = MetricsRegistry()
        registry.register("toy", lambda: dict(state))

        tb = TimingBreakdown()
        with CounterScope(tb, registry=registry):
            state["events"] = 17
        assert tb.counters["toy/events"] == 7

        tb2 = TimingBreakdown()
        with CounterScope(tb2, registry=registry):
            state["events"] = 3  # mid-run reset: cumulative restarted
        assert tb2.counters["toy/events"] == 3

    def test_solver_counters_do_not_accumulate_across_runs(self):
        pts, _ = make_moons(n=250, noise=0.06, seed=0)
        dataset = MetricDataset(pts)
        first = ApproxMetricDBSCAN(0.12, 10, rho=0.5).fit(dataset)
        second = ApproxMetricDBSCAN(0.12, 10, rho=0.5).fit(dataset)
        assert (
            second.timings.counters["distance_evals"]
            == first.timings.counters["distance_evals"]
        )
        # The cascade singleton is cumulative process-wide; the scope
        # must still report identical per-run deltas.
        for key, value in first.timings.counters.items():
            if key.startswith("cascade/"):
                assert second.timings.counters[key] == value

    def test_counting_metric_namespace(self):
        pts, _ = make_moons(n=200, noise=0.06, seed=0)
        counted = MetricDataset(pts).with_counting()
        result = MetricDBSCAN(0.12, 10).fit(counted)
        counters = result.timings.counters
        assert counters["metric/evals"] == counted.metric.count
        registry = result.timings.counter_registry()
        assert "metric" in registry
        assert "cascade" in registry
        assert "tdis" in registry


@pytest.fixture(scope="module")
def small_result():
    pts, _ = make_moons(n=250, noise=0.06, seed=0)
    return ApproxMetricDBSCAN(0.12, 10, rho=0.5).fit(MetricDataset(pts))


class TestRecorder:
    def test_series_entry_from_result(self, small_result):
        entry = recorder.series_entry("leg", result=small_result)
        assert entry["label"] == "leg"
        assert entry["wall"] == pytest.approx(small_result.timings.total)
        assert entry["phases"] == pytest.approx(small_result.timings.phases)
        assert entry["counters"]["distance_evals"] > 0
        assert 0.0 <= entry["rescue_fraction"] <= 1.0
        assert entry["n_clusters"] == small_result.n_clusters
        assert entry["n_noise"] == small_result.n_noise

    def test_round_trip(self, tmp_path, small_result):
        series = [recorder.series_entry("leg", result=small_result)]
        path = recorder.write_artifact(
            "unit", series, config={"quick": True}, directory=tmp_path
        )
        assert path.name == "BENCH_unit.json"
        loaded = recorder.load_artifact(path)
        assert loaded["schema_version"] == recorder.SCHEMA_VERSION
        assert loaded["name"] == "unit"
        assert loaded["config"] == {"quick": True}
        assert loaded["series"][0]["label"] == "leg"
        assert set(loaded["env"]) >= {"python", "numpy", "precision"}

    def test_numpy_values_jsonified(self, tmp_path):
        series = [
            recorder.series_entry(
                "leg", wall=np.float64(0.5), extra_count=np.int64(3)
            )
        ]
        path = recorder.write_artifact("np", series, directory=tmp_path)
        loaded = json.loads(path.read_text())
        assert loaded["series"][0]["wall"] == 0.5
        assert loaded["series"][0]["extra_count"] == 3

    def test_future_schema_version_rejected(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text(json.dumps({
            "schema_version": recorder.SCHEMA_VERSION + 1, "series": [],
        }))
        with pytest.raises(ValueError, match="unsupported schema_version"):
            recorder.load_artifact(path)

    def test_non_artifact_rejected(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text(json.dumps({"series": []}))
        with pytest.raises(ValueError, match="schema_version"):
            recorder.load_artifact(path)
        path.write_text(json.dumps({"schema_version": 1}))
        with pytest.raises(ValueError, match="series"):
            recorder.load_artifact(path)


def _artifact(series):
    return {
        "schema_version": 1, "name": "t", "env": {}, "config": {},
        "series": series,
    }


def _entry(**overrides):
    entry = {
        "label": "leg",
        "wall": 1.0,
        "phases": {"gonzalez": 0.6},
        "counters": {"distance_evals": 100, "cascade/n_rescued": 4},
        "rescue_fraction": 0.01,
        "ari": 0.9,
        "speedup": 2.0,
    }
    entry.update(overrides)
    return entry


class TestDiff:
    def test_identical_pass(self):
        result = obs_diff.diff_artifacts(
            _artifact([_entry()]), _artifact([_entry()])
        )
        assert result.ok
        assert result.n_compared > 0
        assert not result.improvements

    def test_wall_regression_flagged(self):
        result = obs_diff.diff_artifacts(
            _artifact([_entry()]), _artifact([_entry(wall=2.0)])
        )
        assert not result.ok
        kinds = {(d.metric, d.kind) for d in result.regressions}
        assert ("wall", "wall") in kinds

    def test_wall_within_band_passes(self):
        result = obs_diff.diff_artifacts(
            _artifact([_entry()]), _artifact([_entry(wall=1.2)])
        )
        assert result.ok

    def test_counter_increase_flagged(self):
        current = _entry()
        current["counters"] = dict(current["counters"], distance_evals=101)
        result = obs_diff.diff_artifacts(
            _artifact([_entry()]), _artifact([current])
        )
        assert not result.ok
        assert any(
            d.metric == "counters.distance_evals" and d.kind == "counter"
            for d in result.regressions
        )

    def test_counter_decrease_is_improvement(self):
        current = _entry()
        current["counters"] = dict(current["counters"], distance_evals=90)
        result = obs_diff.diff_artifacts(
            _artifact([_entry()]), _artifact([current])
        )
        assert result.ok
        assert any(
            d.metric == "counters.distance_evals"
            for d in result.improvements
        )

    def test_min_wall_skips_timer_noise(self):
        result = obs_diff.diff_artifacts(
            _artifact([_entry(wall=0.01)]),
            _artifact([_entry(wall=0.04)]),  # 4x, but under min_wall
        )
        assert result.ok
        assert any("under" in s for s in result.skipped)

    def test_ignore_wall_drops_wall_and_speedup(self):
        result = obs_diff.diff_artifacts(
            _artifact([_entry()]),
            _artifact([_entry(wall=9.0, speedup=0.1)]),
            include_wall=False,
        )
        assert result.ok

    def test_ignore_glob(self):
        current = _entry()
        current["counters"] = dict(current["counters"], distance_evals=500)
        result = obs_diff.diff_artifacts(
            _artifact([_entry()]), _artifact([current]),
            ignore=["*distance_evals*"],
        )
        assert result.ok

    def test_missing_series_is_coverage_regression(self):
        result = obs_diff.diff_artifacts(_artifact([_entry()]), _artifact([]))
        assert not result.ok
        assert result.regressions[0].kind == "coverage"

    def test_missing_metric_is_coverage_regression(self):
        current = _entry()
        del current["counters"]
        result = obs_diff.diff_artifacts(
            _artifact([_entry()]), _artifact([current])
        )
        assert not result.ok
        assert any(d.kind == "coverage" for d in result.regressions)

    def test_quality_decrease_flagged(self):
        result = obs_diff.diff_artifacts(
            _artifact([_entry()]), _artifact([_entry(ari=0.7)])
        )
        assert not result.ok
        assert any(d.kind == "quality" for d in result.regressions)

    def test_fraction_increase_flagged(self):
        result = obs_diff.diff_artifacts(
            _artifact([_entry()]), _artifact([_entry(rescue_fraction=0.5)])
        )
        assert not result.ok
        assert any(d.kind == "fraction" for d in result.regressions)

    def test_speedup_decrease_flagged(self):
        result = obs_diff.diff_artifacts(
            _artifact([_entry()]), _artifact([_entry(speedup=1.0)])
        )
        assert not result.ok

    def test_classify_metric(self):
        assert obs_diff.classify_metric("wall") == "wall"
        assert obs_diff.classify_metric("phases.merge") == "wall"
        assert obs_diff.classify_metric("float64_wall_seconds") == "wall"
        assert obs_diff.classify_metric("counters.distance_evals") == "counter"
        assert obs_diff.classify_metric("counters.cascade/n_rescued") == "counter"
        assert obs_diff.classify_metric("rescue_fraction") == "fraction"
        assert obs_diff.classify_metric("memory_ratio") == "fraction"
        assert obs_diff.classify_metric("ari") == "quality"
        assert obs_diff.classify_metric("speedup") == "higher_wall"


@pytest.mark.parametrize("backend", ["brute", "grid", "covertree", "auto"])
@pytest.mark.parametrize("algo", ["exact", "approx", "streaming"])
class TestTraceEquivalence:
    """The span tree and the flat phase map stay consistent on every
    solver under every process-default index backend."""

    def test_trace_matches_flat_phases(self, monkeypatch, backend, algo):
        monkeypatch.setenv("REPRO_DEFAULT_INDEX", backend)
        pts, _ = make_moons(n=220, noise=0.06, seed=1)
        dataset = MetricDataset(pts)
        solvers = {
            "exact": lambda: MetricDBSCAN(0.12, 10),
            "approx": lambda: ApproxMetricDBSCAN(0.12, 10, rho=0.5),
            "streaming": lambda: StreamingApproxDBSCAN(0.12, 10, rho=0.5),
        }
        result = solvers[algo]().fit(dataset)
        timings = result.timings

        flat = timings.trace.flatten()
        assert set(flat) == set(timings.phases)
        for name, seconds in timings.phases.items():
            assert flat[name] == pytest.approx(seconds)
        # total sums root phases only: never more than the flat sum,
        # and exactly the trace root's wall-clock.
        assert timings.total <= sum(timings.phases.values()) + 1e-9
        assert timings.total == pytest.approx(timings.trace.root.seconds)
        # One merged registry: cascade deltas ride on every run.
        assert any(k.startswith("cascade/") for k in timings.counters)
