"""Operations layer: metrics exporter, egress transports, and the CLI.

The load-bearing property is *exactness*: every counter the
:class:`~repro.ops.metrics.MetricsExporter` serves — over HTTP in the
Prometheus text format, as JSON, or re-folded from a JSON-lines event
sink — must agree with the engine's own :meth:`Engine.stats` fold to the
last increment, on both backends, after workloads that exercise
speculation, guard-failure deoptimization, continuation dispatch and the
version multiverse — and a scrape must agree with *itself* whenever the
exporter was attached, because there is one fold
(:class:`~repro.engine.stats.StatsCollector`) and the exporter only
renders it.  On top sit the serialization round trips
(``EngineStats`` and the typed-event JSON codec, property-tested with
hypothesis), the stdlib ``table|csv|json`` renderer, the fleet's
per-worker stats reports, cross-process determinism of the base-IR hash
warm starts are keyed by, and a ``CliRunner`` tour of every ``repro``
subcommand against a store populated by a real engine run.
"""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
import urllib.request
from dataclasses import fields, replace

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from repro.engine import (
    EVENT_TYPES,
    Engine,
    EngineConfig,
    EngineStats,
    StatsCollector,
    Tier,
    TierUp,
    event_as_dict,
    event_from_dict,
)
from repro.ir.function import ProgramPoint
from repro.ops import (
    STAT_COUNTERS,
    STAT_GAUGES,
    JsonLinesSink,
    MetricsExporter,
    format_rows,
    observe_from_start,
    parse_prometheus,
    read_events,
    serve_metrics,
)
from repro.ops.cli import main as repro_cli
from repro.store import run_fleet
from repro.workloads import (
    polymorphic_arguments,
    polymorphic_function,
    polymorphic_phases,
    speculative_function,
    speculative_arguments,
    speculative_source,
)

BACKENDS = ("interp", "compiled")

FLEET_SRC = """
func scale(x, k) {
  return x * k;
}
func poly(mode, n) {
  var acc = 0;
  var i = 0;
  while (i < n) {
    if (mode == 1) { acc = acc + scale(i, 3); }
    else { acc = acc + scale(i, 5); }
    i = i + 1;
  }
  return acc;
}
"""


def _speculation_engine(backend):
    return Engine.from_functions(
        speculative_function("dispatch"),
        config=EngineConfig(hotness_threshold=3, min_samples=2, opt_backend=backend),
    )


def _drive_speculation(engine, *, violations=True):
    for _ in range(6):
        args, memory = speculative_arguments("dispatch")
        engine.call("dispatch", args, memory=memory)
    if violations:
        for index in range(9):
            args, memory = speculative_arguments("dispatch", violate=index % 2 == 0)
            engine.call("dispatch", args, memory=memory)
    engine.wait_for_compilation(timeout=30.0)


def _multiverse_engine(backend):
    return Engine.from_functions(
        polymorphic_function("modal_sum"),
        config=EngineConfig(
            hotness_threshold=3, min_samples=2, max_versions=4, opt_backend=backend
        ),
    )


def _drive_multiverse(engine):
    phases = polymorphic_phases("modal_sum")
    for _ in range(4):
        for mode in phases:
            args, memory = polymorphic_arguments("modal_sum", mode)
            for _ in range(8):
                engine.call("modal_sum", args, memory=memory)
    engine.wait_for_compilation(timeout=30.0)


def _refold(path):
    """A fresh collector fed the JSON-lines sink at ``path``."""
    collector = StatsCollector()
    for event in read_events(path):
        collector(event)
    return collector


def _assert_scrape_matches(parsed, name, stats):
    """Every stats-mirror family equals the EngineStats fold exactly, and
    the labeled streams of the same scrape agree with it and each other
    (``name`` is the engine's only function)."""
    assert parsed["repro_calls"][(name,)] == stats.calls
    for field, metric, _ in STAT_GAUGES:
        assert parsed[metric][(name,)] == getattr(stats, field), metric
    for field, metric, _ in STAT_COUNTERS:
        observed = parsed.get(metric, {}).get((name,), 0)
        assert observed == getattr(stats, field), metric
    by_reason = parsed.get("repro_guard_failures_total", {})
    assert (
        sum(count for (fn, _), count in by_reason.items() if fn == name)
        == stats.guard_failures
    )
    builds = sum(parsed.get("repro_tier_ups_total", {}).values())
    assert builds == parsed.get("repro_events_total", {}).get(("tier-up",), 0)
    assert builds == parsed.get("repro_compile_seconds_count", {}).get((name,), 0)


#: Attach the exporter before the first event, or after the last: the
#: scrape is the same, and attaching subscribes nothing.
ATTACH_CASES = [
    pytest.param(backend, first, id=backend if first else f"{backend}-attach-after")
    for first in (True, False)
    for backend in BACKENDS
]


def _attached(exporter, engine):
    subscribers = engine.bus.subscriber_count
    exporter.attach(engine)
    assert engine.bus.subscriber_count == subscribers


# --------------------------------------------------------------------- #
# Exporter exactness against the engine's own fold.
# --------------------------------------------------------------------- #
class TestExporterExactness:
    @pytest.mark.parametrize("backend, attach_first", ATTACH_CASES)
    def test_speculation_and_deopt_fold(self, backend, attach_first):
        engine = _speculation_engine(backend)
        exporter = MetricsExporter()
        try:
            if attach_first:
                _attached(exporter, engine)
            _drive_speculation(engine)
            if not attach_first:
                _attached(exporter, engine)
            stats = engine.stats("dispatch")
            # The scripted workload must actually exercise the machinery
            # the families exist for, or exactness is vacuous.
            assert stats.guard_failures > 0
            assert stats.osr_exits > 0
            parsed = parse_prometheus(exporter.render())
            assert parsed["repro_events_total"][("tier-up",)] >= 1
            _assert_scrape_matches(parsed, "dispatch", stats)
        finally:
            exporter.close()
            engine.close()

    @pytest.mark.parametrize("backend, attach_first", ATTACH_CASES)
    def test_multiverse_fold(self, backend, attach_first):
        engine = _multiverse_engine(backend)
        exporter = MetricsExporter()
        try:
            if attach_first:
                _attached(exporter, engine)
            _drive_multiverse(engine)
            if not attach_first:
                _attached(exporter, engine)
            stats = engine.stats("modal_sum")
            assert stats.versions_added >= 2
            assert stats.entry_dispatches > 0
            _assert_scrape_matches(
                parse_prometheus(exporter.render()), "modal_sum", stats
            )
        finally:
            exporter.close()
            engine.close()

    def test_exporter_attaches_once(self):
        engine = _speculation_engine("interp")
        exporter = MetricsExporter()
        exporter.attach(engine)
        try:
            with pytest.raises(RuntimeError, match="already attached"):
                exporter.attach(engine)
        finally:
            exporter.close()
            engine.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_http_scrape_matches_engine(self, backend):
        engine = _speculation_engine(backend)
        exporter = MetricsExporter()
        exporter.attach(engine)
        server = serve_metrics(exporter)
        try:
            _drive_speculation(engine)
            with urllib.request.urlopen(server.url, timeout=10) as response:
                assert response.headers["Content-Type"].startswith("text/plain")
                text = response.read().decode()
            stats = engine.stats("dispatch")
            _assert_scrape_matches(parse_prometheus(text), "dispatch", stats)

            with urllib.request.urlopen(server.url + ".json", timeout=10) as response:
                payload = json.loads(response.read().decode())
            assert payload["functions"]["dispatch"] == stats.as_dict()
            assert payload["events"]["tier-up"] >= 1

            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(
                    f"http://{server.host}:{server.port}/nope", timeout=10
                )
        finally:
            server.close()
            exporter.close()
            engine.close()


# --------------------------------------------------------------------- #
# Serialization round trips (satellite: EngineStats JSON helper).
# --------------------------------------------------------------------- #
class TestEngineStatsRoundTrip:
    @given(
        st.builds(
            EngineStats,
            **{
                spec.name: st.integers(min_value=0, max_value=2**31)
                for spec in fields(EngineStats)
            },
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_as_dict_from_dict_round_trip(self, stats):
        encoded = json.dumps(stats.as_dict())
        assert EngineStats.from_dict(json.loads(encoded)) == stats

    def test_missing_keys_default_to_zero(self):
        assert EngineStats.from_dict({"calls": 7}) == EngineStats(calls=7)

    def test_unknown_keys_raise(self):
        with pytest.raises(ValueError, match="unknown EngineStats field"):
            EngineStats.from_dict({"calls": 1, "bogus": 2})


class TestEventCodec:
    def test_every_kind_round_trips(self):
        for kind, cls in EVENT_TYPES.items():
            event = cls(function="f", point=ProgramPoint("bb", 3))
            data = event_as_dict(event)
            assert data["kind"] == kind
            json.dumps(data)  # must already be JSON-ready
            assert event_from_dict(data) == event

    def test_enum_and_point_coercion(self):
        event = TierUp(
            "f",
            point=None,
            speculative=True,
            guards=2,
            tier=Tier.OPTIMIZED,
            compile_seconds=0.25,
        )
        data = json.loads(json.dumps(event_as_dict(event)))
        assert data["tier"] == "optimized"
        restored = event_from_dict(data)
        assert restored == event and isinstance(restored.tier, Tier)

    def test_unknown_kind_and_field_raise(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            event_from_dict({"kind": "not-a-kind", "function": "f"})
        with pytest.raises(ValueError, match="unknown field"):
            event_from_dict({"kind": "tier-up", "function": "f", "bogus": 1})

    @given(st.sampled_from(sorted(EVENT_TYPES)), st.integers(0, 50))
    @settings(max_examples=40, deadline=None)
    def test_point_strings_invert(self, kind, index):
        event = EVENT_TYPES[kind](function="g", point=ProgramPoint("blk", index))
        assert event_from_dict(event_as_dict(event)).point == event.point


# --------------------------------------------------------------------- #
# Renderer and JSON-lines transport.
# --------------------------------------------------------------------- #
class TestRender:
    ROWS = [
        {"name": "alpha", "n": 3, "ok": True},
        {"name": "b", "n": 140, "ok": False},
    ]

    def test_table_aligns_and_titles(self):
        text = format_rows(self.ROWS, ("name", "n", "ok"), "table", title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert lines[1].split() == ["name", "n", "ok"]
        assert "alpha" in lines[3] and "yes" in lines[3]
        # Numeric columns right-align under their header.
        assert lines[4].index("140") + 3 == lines[3].index("3") + 1

    def test_csv_round_trips(self):
        text = format_rows(self.ROWS, ("name", "n"), "csv")
        rows = list(csv.reader(io.StringIO(text)))
        assert rows == [["name", "n"], ["alpha", "3"], ["b", "140"]]

    def test_json_keeps_types(self):
        decoded = json.loads(format_rows(self.ROWS, ("name", "n", "ok"), "json"))
        assert decoded[0] == {"name": "alpha", "n": 3, "ok": True}

    def test_empty_and_invalid(self):
        assert "(no rows)" in format_rows([], ("a",), "table")
        with pytest.raises(ValueError, match="unknown format"):
            format_rows([], ("a",), "yaml")


class TestJsonLinesSink:
    def test_sink_replay_matches_bus(self, tmp_path):
        path = tmp_path / "events.jsonl"
        engine = _speculation_engine("interp")
        sink = JsonLinesSink(path)
        engine.subscribe(sink)
        try:
            _drive_speculation(engine)
        finally:
            sink.close()
            engine.close()
        replayed = list(read_events(path))
        assert replayed == engine.events
        # A replay reaches the live fold's whole state — functions *and*
        # labeled streams — which is what `repro top --follow` and the
        # fleet sinks rely on.
        live = engine.collector.snapshot()
        assert live.guard_failures and live.tier_ups
        assert _refold(path).snapshot() == live
        # ... and a bare collector renders like an attached engine, less
        # the live calls gauge.
        offline = parse_prometheus(MetricsExporter(_refold(path)).render())
        assert "repro_calls" not in offline
        exporter = MetricsExporter()
        exporter.attach(engine)
        served = parse_prometheus(exporter.render())
        del served["repro_calls"]
        assert offline == served
        assert list(read_events(path, start=len(replayed) - 1)) == replayed[-1:]

    def test_every_event_type_is_folded(self):
        # One table, total over EVENT_TYPES: a new event type cannot go
        # uncounted because one of two chains forgot it.
        for kind, cls in EVENT_TYPES.items():
            collector = StatsCollector()
            collector(cls(function="f"))
            snapshot = collector.snapshot()
            assert snapshot.events == {(kind,): 1}
            assert set(snapshot.records) == {"f"}

    def test_late_observer_of_a_warm_start_sees_the_restore(self, tmp_path):
        source = speculative_source("dispatch")
        config = EngineConfig(hotness_threshold=3, min_samples=2)
        with Engine.from_source(source, config=config) as cold:
            _drive_speculation(cold, violations=False)
            cold.save(tmp_path / "store")
        path = tmp_path / "warm.jsonl"
        engine = Engine.open(source, tmp_path / "store", config=config)
        exporter = MetricsExporter()
        exporter.attach(engine)
        with JsonLinesSink(path) as sink:
            observe_from_start(engine, sink)
            _drive_speculation(engine)
        engine.close()
        assert engine.restored_functions == ("dispatch",)
        refolded = _refold(path)
        for name, stats in engine.stats_all().items():
            assert refolded.function(name) == replace(stats, calls=0)
        parsed = parse_prometheus(exporter.render())
        assert parsed["repro_versions_restored_total"][("dispatch",)] >= 1
        assert parsed["repro_compiled"][("dispatch",)] == 1


# --------------------------------------------------------------------- #
# Fleet reports carry renderable per-worker stats.
# --------------------------------------------------------------------- #
class TestFleetStats:
    def test_worker_reports_and_event_sinks(self, tmp_path):
        events_dir = tmp_path / "events"
        reports = run_fleet(
            FLEET_SRC,
            tmp_path / "store",
            [("poly", (1, 20))] * 12,
            workers=2,
            events_dir=events_dir,
        )
        assert sum(report.calls for report in reports) == 12
        for report in reports:
            assert set(report.stats) == {"poly", "scale"}
            assert report.stats["poly"]["calls"] == report.calls
            # The dict shape is the EngineStats wire format.
            EngineStats.from_dict(report.stats["poly"])
            sink_path = events_dir / f"worker-{report.worker}.jsonl"
            assert sink_path.is_file()
            replay = _refold(sink_path)
            for name, stats in report.stats.items():
                assert replay.function(name).as_dict() == {**stats, "calls": 0}
            assert sum(replay.snapshot().tier_ups.values()) == report.tier_ups


# --------------------------------------------------------------------- #
# Warm starts survive hash randomization (the CLI's core flow).
# --------------------------------------------------------------------- #
class TestHashDeterminism:
    def test_base_ir_hash_stable_across_hash_seeds(self):
        script = (
            "from repro.engine.facade import Engine\n"
            "from repro.store.artifacts import function_ir_hash\n"
            "from repro.workloads import speculative_source\n"
            "e = Engine.from_source(speculative_source('dispatch'))\n"
            "print(function_ir_hash(e.runtime.functions['dispatch'].base))\n"
        )
        digests = set()
        for seed in ("1", "2", "31337"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                [os.path.join(os.path.dirname(__file__), "..", "src")]
                + env.get("PYTHONPATH", "").split(os.pathsep)
            )
            digests.add(
                subprocess.run(
                    [sys.executable, "-c", script],
                    env=env,
                    check=True,
                    capture_output=True,
                    text=True,
                ).stdout.strip()
            )
        assert len(digests) == 1, digests


# --------------------------------------------------------------------- #
# The CLI, against a store populated by a real engine run.
# --------------------------------------------------------------------- #
@pytest.fixture()
def runner():
    return CliRunner()


def _invoke(runner, args, **kwargs):
    result = runner.invoke(repro_cli, args, catch_exceptions=False, **kwargs)
    assert result.exit_code == 0, result.output
    return result


class TestCli:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_run_populates_store_and_inspect_restores(
        self, runner, tmp_path, backend
    ):
        store = str(tmp_path / "store")
        result = _invoke(
            runner,
            [
                "run",
                "--workload",
                "dispatch",
                "--calls",
                "12",
                "--violate-every",
                "4",
                "--backend",
                backend,
                "--store",
                store,
                "--format",
                "csv",
            ],
        )
        rows = list(csv.DictReader(io.StringIO(result.output)))
        run_row = next(row for row in rows if row["function"] == "dispatch")
        assert run_row["compiled"] == "yes"
        assert int(run_row["calls"]) == 12
        assert int(run_row["guard_failures"]) > 0

        result = _invoke(
            runner,
            [
                "inspect",
                "--workload",
                "dispatch",
                "--store",
                store,
                "--backend",
                backend,
                "--format",
                "json",
            ],
        )
        summary = json.loads(result.output)
        assert summary[0]["function"] == "dispatch"
        assert summary[0]["restored"] is True
        assert summary[0]["versions"] >= 1

    def test_store_list_formats_agree_with_real_run(self, runner, tmp_path):
        store = str(tmp_path / "store")
        _invoke(
            runner,
            ["run", "--workload", "dispatch", "--calls", "10", "--store", store],
        )
        as_json = json.loads(
            _invoke(runner, ["store", "list", store, "--format", "json"]).output
        )
        as_csv = list(
            csv.DictReader(
                io.StringIO(
                    _invoke(runner, ["store", "list", store, "--format", "csv"]).output
                )
            )
        )
        as_table = _invoke(runner, ["store", "list", store]).output
        assert len(as_json) == len(as_csv) == 1
        entry = as_json[0]
        assert entry["function"] == "dispatch" and entry["tier"] is True
        assert as_csv[0]["fingerprint"] == entry["fingerprint"]
        assert entry["fingerprint"] in as_table and "dispatch" in as_table
        # The listed identity is the real engine's: a fresh engine under
        # the same config fingerprints identically.
        engine = Engine.from_source(speculative_source("dispatch"))
        try:
            assert entry["fingerprint"] == engine.config.fingerprint()
        finally:
            engine.close()

    def test_inspect_sections_render(self, runner, tmp_path):
        for show in ("versions", "continuations", "stats", "profile"):
            result = _invoke(
                runner,
                [
                    "inspect",
                    "--workload",
                    "dispatch",
                    "--calls",
                    "8",
                    "--show",
                    show,
                    "--format",
                    "csv",
                ],
            )
            assert result.output.splitlines()[0].startswith("function")

    def test_inspect_guards_reports_obligation_status(self, runner):
        args = [
            "inspect",
            "--workload",
            "dispatch",
            "--calls",
            "8",
            "--show",
            "guards",
            "--format",
            "json",
        ]
        strict = json.loads(
            _invoke(runner, args + ["--set", "verify_deopt=strict"]).output
        )
        assert strict  # the warmed dispatch version has guards
        assert {row["status"] for row in strict} == {"proved"}
        assert all(row["obligations"] is None for row in strict)
        # Without verification the same guards render as unchecked
        # (pinned explicitly so an ambient REPRO_VERIFY_DEOPT can't
        # upgrade this invocation).
        unchecked = json.loads(
            _invoke(runner, args + ["--set", "verify_deopt=off"]).output
        )
        assert {row["status"] for row in unchecked} == {"unchecked"}

    def test_lint_clean_workload_and_store(self, runner, tmp_path):
        store = str(tmp_path / "store")
        _invoke(
            runner,
            ["run", "--workload", "dispatch", "--calls", "12", "--store", store],
        )
        result = _invoke(
            runner,
            ["lint", store, "--workload", "dispatch", "--format", "json"],
        )
        assert json.loads(result.output) == []

    def test_lint_finding_fails_the_run(self, runner, tmp_path):
        bad = tmp_path / "bad.mc"
        bad.write_text("func f(n) { return n +; }")
        result = runner.invoke(
            repro_cli, ["lint", str(bad), "--format", "json"]
        )
        assert result.exit_code == 1
        rows = json.loads(result.output)
        assert rows and rows[0]["rule"] == "frontend"

    def test_lint_requires_a_target(self, runner):
        result = runner.invoke(repro_cli, ["lint"])
        assert result.exit_code != 0
        assert "nothing to lint" in result.output

    def test_store_export_import_gc(self, runner, tmp_path):
        store, clone = str(tmp_path / "store"), str(tmp_path / "clone")
        _invoke(
            runner,
            ["run", "--workload", "dispatch", "--calls", "10", "--store", store],
        )
        artifact_file = str(tmp_path / "artifact.json")
        _invoke(runner, ["store", "export", store, "dispatch", "-o", artifact_file])
        payload = json.loads((tmp_path / "artifact.json").read_text())
        assert payload["function"] == "dispatch"

        _invoke(runner, ["store", "import", clone, artifact_file])
        cloned = json.loads(
            _invoke(runner, ["store", "list", clone, "--format", "json"]).output
        )
        assert cloned[0]["base_ir_hash"] == payload["base_ir_hash"]

        dry = json.loads(
            _invoke(
                runner,
                ["store", "gc", clone, "--function", "dispatch", "--dry-run", "--format", "json"],
            ).output
        )
        assert dry[0]["removed"] is False
        kept = _invoke(
            runner, ["store", "gc", clone, "--keep", cloned[0]["fingerprint"], "--format", "json"]
        )
        assert json.loads(kept.output) == []  # the only shard is the kept one
        _invoke(runner, ["store", "gc", clone, "--function", "dispatch"])
        assert (
            json.loads(
                _invoke(runner, ["store", "list", clone, "--format", "json"]).output
            )
            == []
        )

    def test_stale_artifact_fails_loudly(self, runner, tmp_path):
        store = str(tmp_path / "store")
        source = tmp_path / "prog.mc"
        source.write_text(
            "func f(n) { var s = 0; var i = 0; "
            "while (i < n) { s = s + i; i = i + 1; } return s; }"
        )
        _invoke(
            runner,
            ["run", str(source), "--entry", "f", "--args", "9", "--store", store],
        )
        source.write_text(
            "func f(n) { var s = 1; var i = 0; "
            "while (i < n) { s = s + i * 2; i = i + 1; } return s; }"
        )
        result = runner.invoke(
            repro_cli, ["inspect", str(source), "--store", store]
        )
        assert result.exit_code != 0
        assert "StaleArtifactError" in result.output
        # on_stale=skip starts cold instead, loudly requested.
        result = _invoke(
            runner,
            ["inspect", str(source), "--store", store, "--on-stale", "skip", "--format", "json"],
        )
        assert json.loads(result.output)[0]["restored"] is False

    def test_run_events_jsonl_feeds_top(self, runner, tmp_path):
        sink = str(tmp_path / "events.jsonl")
        _invoke(
            runner,
            [
                "run",
                "--workload",
                "dispatch",
                "--calls",
                "10",
                "--violate-every",
                "3",
                "--events-jsonl",
                sink,
            ],
        )
        result = _invoke(
            runner,
            ["top", "--follow", sink, "--frames", "1", "--no-clear"],
        )
        assert "dispatch" in result.output
        assert "tier-up=" in result.output

    def test_warm_run_sink_replays_as_a_warm_start(self, runner, tmp_path):
        store, sink = str(tmp_path / "store"), str(tmp_path / "warm.jsonl")
        run = ["run", "--workload", "dispatch", "--store", store, "--format", "json"]
        _invoke(runner, run)
        warm = _invoke(runner, run + ["--no-save", "--events-jsonl", sink, "--tail"])
        row = json.loads(warm.stdout)[0]
        assert row["restored"] and row["compiled"]
        # The restore happened inside Engine.open, before `run` could
        # subscribe anything: both late observers are handed it anyway.
        assert "[version-restored] @dispatch" in warm.stderr
        folded = _refold(sink).function("dispatch")
        assert (bool(folded.compiled), folded.versions) == (True, row["versions"])
        top = _invoke(runner, ["top", "--follow", sink, "--frames", "1", "--no-clear"])
        assert "version-restored=" in top.output and "tier-up=" not in top.output

    def test_run_serves_metrics(self, runner):
        result = _invoke(
            runner,
            [
                "run",
                "--workload",
                "dispatch",
                "--calls",
                "8",
                "--metrics-port",
                "0",
            ],
        )
        assert "metrics: http://127.0.0.1:" in (result.output + result.stderr)

    def test_usage_errors(self, runner, tmp_path):
        result = runner.invoke(repro_cli, ["run"])
        assert result.exit_code != 0
        assert "exactly one of SOURCE or --workload" in result.output
        result = runner.invoke(repro_cli, ["store", "gc", str(tmp_path / "s")])
        assert result.exit_code != 0
        result = runner.invoke(
            repro_cli, ["store", "list", str(tmp_path / "missing")]
        )
        assert result.exit_code != 0
        assert "StoreFormatError" in result.output

    @pytest.mark.parametrize("command", ["run", "inspect", "lint", "fleet"])
    def test_backend_help_names_the_real_default(self, runner, monkeypatch, command):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        default = EngineConfig.from_env().opt_backend
        text = " ".join(_invoke(runner, [command, "--help"]).output.split())
        assert f"(default: REPRO_BACKEND or {default})" in text

    def test_command_set(self):
        assert set(repro_cli.commands) == {"fleet", "inspect", "lint", "run", "store", "top"}

    def test_fleet_command_renders_worker_stats(self, runner, tmp_path):
        source = tmp_path / "poly.mc"
        source.write_text(FLEET_SRC)
        store = str(tmp_path / "store")
        result = _invoke(
            runner,
            [
                "fleet",
                str(source),
                store,
                "--entry",
                "poly",
                "--args",
                "1,20",
                "--calls",
                "12",
                "--workers",
                "2",
                "--format",
                "csv",
            ],
        )
        rows = list(csv.DictReader(io.StringIO(result.output)))
        assert len(rows) == 2
        assert sum(int(row["calls"]) for row in rows) == 12
