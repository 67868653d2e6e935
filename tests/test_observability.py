"""Tests for the observability substrate: metrics, tracing, export."""

import json

import numpy as np
import pytest

from repro.observability import (
    DEFAULT_BUCKETS,
    Instrumentation,
    MetricsRegistry,
    SNAPSHOT_SCHEMA,
    Tracer,
    exponential_buckets,
    to_json,
    to_prometheus,
    validate_snapshot,
    wall_clock_us,
)


class ManualClock:
    """Deterministic microsecond clock for tracer tests."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, us):
        self.now += us


class TestCounter:
    def test_inc_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("requests_total")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_negative_increment_rejected(self):
        c = MetricsRegistry().counter("requests_total")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_get_or_create_returns_same_series(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", labels={"stage": "fit"})
        b = reg.counter("x_total", labels={"stage": "fit"})
        assert a is b
        assert reg.counter("x_total", labels={"stage": "predict"}) is not a

    def test_label_order_does_not_split_series(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", labels={"a": "1", "b": "2"})
        b = reg.counter("x_total", labels={"b": "2", "a": "1"})
        assert a is b

    def test_reads(self):
        reg = MetricsRegistry()
        reg.counter("x_total", labels={"s": "a"}).inc(2)
        reg.counter("x_total", labels={"s": "b"}).inc(3)
        assert reg.counter_value("x_total", {"s": "a"}) == 2
        assert reg.counter_value("x_total", {"s": "missing"}) == 0.0
        assert reg.counter_total("x_total") == 5


class TestGauge:
    def test_set_inc_max(self):
        g = MetricsRegistry().gauge("depth")
        g.set(3)
        g.inc(-1)
        assert g.value == 2
        g.max(7)
        g.max(5)  # lower value must not pull the high-watermark down
        assert g.value == 7


class TestHistogram:
    def test_bucket_assignment(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_us", buckets=(1.0, 10.0, 100.0))
        for v in (0.5, 5.0, 50.0, 500.0):
            h.observe(v)
        assert h.counts == [1, 1, 1, 1]  # one per bucket + overflow
        assert h.count == 4
        assert h.sum == pytest.approx(555.5)

    def test_invalid_buckets_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.histogram("h1", buckets=())
        with pytest.raises(ValueError):
            reg.histogram("h2", buckets=(3.0, 1.0))
        with pytest.raises(ValueError):
            reg.histogram("h3", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            reg.histogram("h4", buckets=(1.0, float("inf")))

    def test_bucket_layout_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.histogram("lat_us", buckets=(1.0, 10.0))
        with pytest.raises(ValueError):
            reg.histogram("lat_us", buckets=(1.0, 100.0))

    def test_exponential_buckets(self):
        assert exponential_buckets(1.0, 10.0, 3) == (1.0, 10.0, 100.0)
        assert len(DEFAULT_BUCKETS) == 10
        with pytest.raises(ValueError):
            exponential_buckets(0.0, 10.0, 3)
        with pytest.raises(ValueError):
            exponential_buckets(1.0, 1.0, 3)


class TestRegistry:
    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("thing_total")
        with pytest.raises(ValueError):
            reg.gauge("thing_total")
        with pytest.raises(ValueError):
            reg.histogram("thing_total")

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("bad-name")
        with pytest.raises(ValueError):
            reg.counter("ok_name", labels={"bad-label": "x"})

    def test_snapshot_deterministic_ordering(self):
        def build(order):
            reg = MetricsRegistry()
            for label in order:
                reg.counter("x_total", labels={"s": label}).inc()
            reg.gauge("depth").set(2)
            return reg.snapshot()

        # Creation order must not leak into the snapshot.
        assert build(["b", "a", "c"]) == build(["a", "c", "b"])

    def test_snapshot_exports_integral_floats_as_ints(self):
        reg = MetricsRegistry()
        reg.counter("n_total").inc(3)
        reg.counter("frac_total").inc(0.5)
        series = {c["name"]: c["value"] for c in reg.snapshot()["counters"]}
        assert series["n_total"] == 3 and isinstance(series["n_total"], int)
        assert series["frac_total"] == 0.5 and isinstance(series["frac_total"], float)


class TestTracer:
    def test_nesting_builds_tree(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        with tracer.span("outer"):
            clock.advance(10)
            with tracer.span("inner_a"):
                clock.advance(5)
            with tracer.span("inner_b", index=7):
                clock.advance(1)
        assert len(tracer.roots) == 1
        outer = tracer.roots[0]
        assert [c.name for c in outer.children] == ["inner_a", "inner_b"]
        assert outer.start_us == 0.0 and outer.end_us == 16.0
        assert outer.children[0].duration_us == 5.0
        assert outer.children[1].attrs == {"index": 7}

    def test_walk_depth_first_in_start_order(self):
        tracer = Tracer(clock=ManualClock())
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
        assert [s.name for s in tracer.walk()] == ["a", "b", "c"]
        assert tracer.span_counts() == {"a": 1, "b": 1, "c": 1}
        assert [s.name for s in tracer.find("b")] == ["b"]

    def test_span_closes_on_exception(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                clock.advance(3)
                raise RuntimeError("x")
        assert tracer.roots[0].end_us == 3.0
        assert tracer._stack == []  # nothing dangling

    def test_reset(self):
        tracer = Tracer(clock=ManualClock())
        with tracer.span("a"):
            pass
        tracer.reset()
        assert tracer.roots == [] and tracer.to_dict() == []

    def test_wall_clock_default_monotone(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        span = tracer.roots[0]
        assert span.end_us >= span.start_us
        assert wall_clock_us() > 0


class TestExport:
    def _instr(self):
        clock = ManualClock()
        obs = Instrumentation(clock=clock)
        obs.registry.counter("x_total", labels={"s": "a"}, help="things").inc(2)
        obs.registry.histogram("lat_us", buckets=(1.0, 10.0)).observe(3.0)
        with obs.tracer.span("run"):
            clock.advance(4)
        return obs

    def test_full_snapshot_valid(self):
        snap = self._instr().snapshot()
        assert snap["schema"] == SNAPSHOT_SCHEMA
        assert validate_snapshot(snap) == []

    def test_to_json_canonical(self):
        a, b = self._instr(), self._instr()
        assert to_json(a.snapshot()) == to_json(b.snapshot())
        assert json.loads(to_json(a.snapshot()))["schema"] == SNAPSHOT_SCHEMA

    def test_prometheus_text(self):
        obs = self._instr()
        text = to_prometheus(obs.snapshot(), registry=obs.registry)
        assert "# HELP x_total things" in text
        assert "# TYPE x_total counter" in text
        assert 'x_total{s="a"} 2' in text
        # Cumulative bucket counts + the implicit +Inf bucket.
        assert 'lat_us_bucket{le="1"} 0' in text
        assert 'lat_us_bucket{le="10"} 1' in text
        assert 'lat_us_bucket{le="+Inf"} 1' in text
        assert "lat_us_count 1" in text

    def test_validate_snapshot_catches_damage(self):
        snap = self._instr().snapshot()
        assert validate_snapshot({"schema": "wrong"}) != []
        broken = json.loads(to_json(snap))
        broken["metrics"]["histograms"][0]["counts"] = [1]  # wrong arity
        assert any("counts" in p for p in validate_snapshot(broken))
        del snap["trace"]
        assert any("trace" in p for p in validate_snapshot(snap))


class TestDeterminismLint:
    def _lint(self):
        import importlib.util
        from pathlib import Path

        path = Path(__file__).resolve().parent.parent / "tools" / "check_determinism.py"
        spec = importlib.util.spec_from_file_location("check_determinism", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_flags_unstable_sorts(self):
        lint = self._lint()
        src = "import numpy as np\norder = np.argsort(keys)\nvals = np.sort(x)\n"
        violations = lint.lint_source(src, "f.py")
        assert len(violations) == 2
        assert violations[0].startswith("f.py:2:")

    def test_stable_kind_passes_even_multiline(self):
        lint = self._lint()
        src = 'order = np.argsort(\n    keys,\n    kind="stable",\n)\n'
        assert lint.lint_source(src) == []
        assert lint.lint_source("x = np.sort(a, kind='stable')\n") == []

    def test_method_form_argsort_is_tracked(self):
        lint = self._lint()
        violations = lint.lint_source("order = keys.argsort()\n", "f.py")
        assert len(violations) == 1
        assert violations[0].startswith("f.py:1: .argsort(...)")
        assert lint.lint_source('order = keys[:, 0].argsort(kind="stable")\n') == []
        assert lint.lint_source("o = perm.argsort()  # sort-ok: a permutation\n") == []
        # np.argsort( is one call, not also a method-form one.
        assert len(lint.lint_source("o = np.argsort(k)\n")) == 1

    def test_pragma_allowlists_same_or_previous_line(self):
        lint = self._lint()
        assert lint.lint_source("p = np.sort(k * n)  # sort-ok: packed\n") == []
        assert lint.lint_source("# sort-ok: value sort\np = np.sort(k)\n") == []
        # A bare pragma without a reason does not count.
        assert lint.lint_source("p = np.sort(k)  # sort-ok:\n") != []

    def test_src_tree_is_clean(self):
        lint = self._lint()
        from pathlib import Path

        src = Path(__file__).resolve().parent.parent / "src"
        assert lint.lint_paths([src]) == []

    def test_fixed_sites_are_stable(self):
        # The channel-pruning bug site this lint grew from must stay
        # stable, and so must limit_in_degree's nearest-first order, whose
        # ties decide which sources an in-degree cap keeps.
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent / "src" / "repro"
        build = (root / "gnn" / "build.py").read_text()
        pruning = (root / "cnn" / "pruning.py").read_text()
        assert 'np.argsort(dist2, kind="stable")' in build
        assert 'np.argsort(norms, kind="stable")' in pruning
