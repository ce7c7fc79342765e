"""``repro`` — the operator command line over the adaptive engine.

One binary for the whole operational surface: run a MiniC program (or a
named workload) with live event tailing and a scrape endpoint, inspect a
function's tier state and version multiverse, manage the persistent
artifact store, and watch an engine's event stream fold into metrics in
real time.  Every command renders through
:func:`repro.ops.render.format_rows`, so ``--format table|csv|json``
behaves identically everywhere.

Installed as a console script (``[project.scripts]`` in
``pyproject.toml``); ``python -m repro.ops.cli`` works too.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import click

from .. import __version__
from ..engine.config import EngineConfig
from ..engine.stats import StatsCollector
from ..store.artifacts import FunctionArtifact, StoreError
from ..store.persist import ArtifactStore
from .export import JsonLinesSink, observe_from_start, read_events, serve_metrics
from .metrics import MetricsExporter
from .render import FORMATS, format_rows

__all__ = ["main"]


# --------------------------------------------------------------------- #
# Shared option plumbing.
# --------------------------------------------------------------------- #
def format_option(command):
    return click.option(
        "--format",
        "fmt",
        type=click.Choice(FORMATS),
        default="table",
        show_default=True,
        help="Output rendering.",
    )(command)


def config_options(command):
    return click.option(
        "--set",
        "overrides",
        multiple=True,
        metavar="KEY=VALUE",
        help="Override any EngineConfig field (repeatable), e.g. "
        "--set hotness_threshold=2 --set max_versions=1.",
    )(command)


def _build_config(overrides: Sequence[str]) -> EngineConfig:
    kwargs: Dict[str, object] = {}
    for item in overrides:
        key, sep, raw = item.partition("=")
        if not sep:
            raise click.BadParameter(f"expected KEY=VALUE, got {item!r}", param_hint="--set")
        try:
            kwargs[key] = json.loads(raw)
        except ValueError:
            kwargs[key] = raw
    try:
        return EngineConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise click.ClickException(f"invalid engine config: {exc}")


def _parse_args(text: Optional[str]) -> List[int]:
    if not text:
        return []
    try:
        return [int(chunk) for chunk in text.replace(",", " ").split()]
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint="--args")


def _workload_source(name: str) -> str:
    from ..workloads import (
        POLYMORPHIC_NAMES,
        SPECULATIVE_NAMES,
        polymorphic_source,
        speculative_source,
    )

    if name in SPECULATIVE_NAMES:
        return speculative_source(name)
    if name in POLYMORPHIC_NAMES:
        return polymorphic_source(name)
    raise click.BadParameter(
        f"unknown workload {name!r}; choose from "
        f"{tuple(SPECULATIVE_NAMES) + tuple(POLYMORPHIC_NAMES)}",
        param_hint="--workload",
    )


def _workload_calls(
    name: str, calls: int, violate_every: int
) -> Iterator[Tuple[List[int], object]]:
    """Per-call ``(args, memory)`` for a named workload.

    Speculative kernels run the warm regime, breaking their speculated
    fact every ``violate_every``-th call; polymorphic kernels alternate
    entry-profile phases in blocks of eight calls so the multiverse
    sees each specialization repeatedly.
    """
    from ..workloads import (
        SPECULATIVE_NAMES,
        polymorphic_arguments,
        polymorphic_phases,
        speculative_arguments,
    )

    if name in SPECULATIVE_NAMES:
        for index in range(calls):
            violate = violate_every > 0 and (index + 1) % violate_every == 0
            yield speculative_arguments(name, violate=violate)
    else:
        phases = polymorphic_phases(name)
        for index in range(calls):
            yield polymorphic_arguments(name, phases[(index // 8) % len(phases)])


def _open_engine(source: str, store: Optional[str], config: EngineConfig, on_stale: str):
    from ..engine.facade import Engine

    try:
        if store is not None and (Path(store) / "store.json").exists():
            return Engine.open(source, store, config=config, on_stale=on_stale)
        return Engine.from_source(source, config=config)
    except StoreError as exc:
        raise click.ClickException(f"{type(exc).__name__}: {exc}")


def _tail_printer(event) -> None:
    from ..engine.events import event_as_dict

    data = event_as_dict(event)
    detail = " ".join(
        f"{key}={value}"
        for key, value in data.items()
        if key not in ("kind", "function") and value not in (None, "")
    )
    click.echo(f"[{data['kind']}] @{data['function']} {detail}".rstrip(), err=True)


SUMMARY_COLUMNS = (
    "function",
    "tier",
    "calls",
    "compiled",
    "speculative",
    "versions",
    "guard_failures",
    "deopts",
    "dispatched_osr",
    "entry_dispatches",
)
#: ``top``'s eight columns (a replayed stream has no engine to ask the tier of).
TOP_COLUMNS = tuple(c for c in SUMMARY_COLUMNS if c not in ("tier", "speculative"))


def summary_row(name: str, stats: Dict[str, int]) -> Dict[str, object]:
    """One function's summary columns from its ``EngineStats.as_dict()`` shape."""
    return {
        "function": name,
        "calls": stats.get("calls", 0),
        "compiled": bool(stats.get("compiled")),
        "speculative": bool(stats.get("speculative")),
        "versions": stats.get("versions", 0),
        "guard_failures": stats.get("guard_failures", 0),
        "deopts": stats.get("osr_exits", 0),
        "dispatched_osr": stats.get("dispatch_hits", 0),
        "entry_dispatches": stats.get("entry_dispatches", 0),
    }


def _summary_rows(engine, restored: Sequence[str] = ()) -> List[Dict[str, object]]:
    return [
        {
            **summary_row(name, stats.as_dict()),
            "tier": str(engine.function(name).tier),
            "restored": name in restored,
        }
        for name, stats in sorted(engine.stats_all().items())
    ]


# --------------------------------------------------------------------- #
# The command tree.
# --------------------------------------------------------------------- #
@click.group()
@click.version_option(version=__version__, prog_name="repro")
def main() -> None:
    """Operate the adaptive OSR engine: run, inspect, persist, measure."""


@main.command()
@click.argument("source", type=click.Path(exists=True, dir_okay=False), required=False)
@click.option("--workload", default=None, help="Run a named workload kernel instead of a file.")
@click.option("--entry", default=None, help="Function to call (default: sole/first function).")
@click.option("--args", "args_text", default=None, help="Call arguments, e.g. '3,20'.")
@click.option("--calls", default=12, show_default=True, help="Number of calls to serve.")
@click.option(
    "--violate-every",
    default=0,
    show_default=True,
    help="Workload mode: break the speculated fact every Nth call.",
)
@click.option("--store", "store_path", default=None, help="Artifact store to warm-start from and save into.")
@click.option("--save/--no-save", default=True, show_default=True, help="Publish to --store after the run.")
@click.option(
    "--on-stale",
    type=click.Choice(["error", "skip"]),
    default="error",
    show_default=True,
    help="Stale store artifacts: fail loudly, or start those functions cold.",
)
@click.option("--tail", is_flag=True, help="Print every runtime event to stderr as it happens.")
@click.option("--metrics-port", default=None, type=int, help="Serve /metrics on this port (0 = ephemeral).")
@click.option("--hold", default=0.0, show_default=True, help="Seconds to keep serving metrics after the run.")
@click.option("--events-jsonl", default=None, type=click.Path(dir_okay=False), help="Append events to a JSON-lines sink.")
@config_options
@format_option
def run(
    source: Optional[str],
    workload: Optional[str],
    entry: Optional[str],
    args_text: Optional[str],
    calls: int,
    violate_every: int,
    store_path: Optional[str],
    save: bool,
    on_stale: str,
    tail: bool,
    metrics_port: Optional[int],
    hold: float,
    events_jsonl: Optional[str],
    overrides: Sequence[str],
    fmt: str,
) -> None:
    """Execute a MiniC SOURCE file (or --workload kernel) on the engine."""
    if (source is None) == (workload is None):
        raise click.UsageError("provide exactly one of SOURCE or --workload")
    config = _build_config(overrides)
    text = Path(source).read_text() if source else _workload_source(workload)
    engine = _open_engine(text, store_path, config, on_stale)
    exporter: Optional[MetricsExporter] = None
    server = None
    sink: Optional[JsonLinesSink] = None
    try:
        # A warm start has already published its VersionRestored events.
        if tail:
            observe_from_start(engine, _tail_printer)
        if events_jsonl is not None:
            sink = JsonLinesSink(events_jsonl)
            observe_from_start(engine, sink)
        if metrics_port is not None:
            exporter = MetricsExporter()
            exporter.attach(engine)
            server = serve_metrics(exporter, port=metrics_port)
            click.echo(f"metrics: {server.url}", err=True)

        if workload is not None:
            entry = entry or workload
            last = None
            for call_args, memory in _workload_calls(workload, calls, violate_every):
                last = engine.call(entry, call_args, memory=memory).value
        else:
            entry = entry or engine.function_names()[0]
            if entry not in engine:
                raise click.ClickException(
                    f"no function {entry!r}; registered: {engine.function_names()}"
                )
            call_args = _parse_args(args_text)
            last = None
            for _ in range(calls):
                last = engine.call(entry, call_args).value
        engine.wait_for_compilation(timeout=30.0)

        if store_path is not None and save:
            try:
                engine.save(ArtifactStore(store_path))
            except StoreError as exc:
                raise click.ClickException(f"{type(exc).__name__}: {exc}")

        rows = _summary_rows(engine, engine.restored_functions)
        for row in rows:
            row["last_value"] = last if row["function"] == entry else None
        click.echo(
            format_rows(
                rows,
                SUMMARY_COLUMNS + ("restored", "last_value"),
                fmt,
                title=f"repro run — {entry} × {calls} calls",
            )
        )
        if server is not None and hold > 0:
            time.sleep(hold)
    finally:
        if server is not None:
            server.close()
        if exporter is not None:
            exporter.close()
        if sink is not None:
            sink.close()
        engine.close()


@main.command()
@click.argument("source", type=click.Path(exists=True, dir_okay=False), required=False)
@click.option("--workload", default=None, help="Inspect a named workload kernel instead of a file.")
@click.option("--store", "store_path", default=None, help="Warm-start from this artifact store first.")
@click.option(
    "--on-stale",
    type=click.Choice(["error", "skip"]),
    default="error",
    show_default=True,
)
@click.option("--entry", default=None, help="Function to warm with --calls.")
@click.option("--args", "args_text", default=None, help="Arguments for the warm-up calls.")
@click.option("--calls", default=0, show_default=True, help="Warm-up calls before inspecting.")
@click.option(
    "--show",
    type=click.Choice(["summary", "versions", "guards", "stats", "profile"]),
    default="summary",
    show_default=True,
    help="Which section of the engine state to render.",
)
@config_options
@format_option
def inspect(
    source: Optional[str],
    workload: Optional[str],
    store_path: Optional[str],
    on_stale: str,
    entry: Optional[str],
    args_text: Optional[str],
    calls: int,
    show: str,
    overrides: Sequence[str],
    fmt: str,
) -> None:
    """Per-function tier state, version tables and profiles."""
    if (source is None) == (workload is None):
        raise click.UsageError("provide exactly one of SOURCE or --workload")
    config = _build_config(overrides)
    text = Path(source).read_text() if source else _workload_source(workload)
    engine = _open_engine(text, store_path, config, on_stale)
    try:
        if calls:
            if workload is not None:
                entry = entry or workload
                for call_args, memory in _workload_calls(workload, calls, 0):
                    engine.call(entry, call_args, memory=memory)
            else:
                entry = entry or engine.function_names()[0]
                call_args = _parse_args(args_text)
                for _ in range(calls):
                    engine.call(entry, call_args)
            engine.wait_for_compilation(timeout=30.0)

        rows: List[Dict[str, object]]
        # The table sections are projections of the one introspection snapshot.
        details = {
            name: engine.runtime.introspect(name)
            for name in sorted(engine.function_names())
            if show in ("versions", "guards")
        }
        if show == "summary":
            columns = SUMMARY_COLUMNS + ("restored",)
            rows = _summary_rows(engine, engine.restored_functions)
        elif show == "versions":
            columns = (
                "function",
                "key",
                "speculative",
                "guards",
                "inlined_frames",
                "hits",
                "dispatched",
                "guard_failures",
            )
            rows = []
            for name, detail in details.items():
                for version in detail["versions"]:
                    failures = ",".join(
                        f"{point}:{count}"
                        for point, count in sorted(version["guard_failures"].items())
                    )
                    rows.append(
                        {
                            "function": name,
                            **{column: version[column] for column in columns[1:-1]},
                            "guard_failures": failures or None,
                        }
                    )
        elif show == "guards":
            columns = ("function", "key", "point", "status", "failures", "obligations")
            rows = []
            for name, detail in details.items():
                for version in detail["versions"]:
                    violated = {}
                    for violation in version["soundness_violations"]:
                        violated.setdefault(violation["point"], []).append(
                            violation["obligation"]
                        )
                    for point, status in sorted(version["guard_obligations"].items()):
                        failed = violated.get(point, []) + violated.get(None, [])
                        rows.append(
                            {
                                "function": name,
                                "key": version["key"],
                                "point": point,
                                "status": status,
                                "failures": version["guard_failures"].get(point, 0),
                                "obligations": ",".join(failed) or None,
                            }
                        )
        elif show == "stats":
            sample = engine.stats(engine.function_names()[0]).as_dict()
            columns = ("function",) + tuple(sample)
            rows = [
                {"function": name, **engine.stats(name).as_dict()}
                for name in sorted(engine.function_names())
            ]
        else:  # profile
            columns = ("function", "field", "value")
            rows = []
            for name in sorted(engine.function_names()):
                profile = engine.function(name).profile
                for field_name, value in sorted(profile.as_json().items()):
                    rows.append(
                        {
                            "function": name,
                            "field": field_name,
                            "value": json.dumps(value, sort_keys=True),
                        }
                    )
        click.echo(format_rows(rows, columns, fmt, title=f"repro inspect — {show}"))
    finally:
        engine.close()


# --------------------------------------------------------------------- #
# Static lint: the soundness verifier's advisory surface.
# --------------------------------------------------------------------- #
def _lint_row(source: str, finding) -> Dict[str, object]:
    return {
        "source": source,
        "function": finding.function,
        "rule": finding.rule,
        "point": finding.point,
        "detail": finding.detail,
    }


def _lint_minic_file(path: Path) -> List[Dict[str, object]]:
    from ..analysis.soundness import lint_function
    from ..frontend.lowering import compile_program

    try:
        module = compile_program(path.read_text())
    except Exception as exc:  # frontend errors are findings, not crashes
        return [
            {
                "source": str(path),
                "function": None,
                "rule": "frontend",
                "point": None,
                "detail": f"{type(exc).__name__}: {exc}",
            }
        ]
    rows: List[Dict[str, object]] = []
    for function in module:
        rows.extend(_lint_row(str(path), f) for f in lint_function(function))
    return rows


def _lint_python_file(path: Path) -> List[Dict[str, object]]:
    """Syntax-check generated Python (codegen goldens under tests/golden/)."""
    try:
        compile(path.read_text(), str(path), "exec")
    except SyntaxError as exc:
        return [
            {
                "source": str(path),
                "function": None,
                "rule": "python-syntax",
                "point": f"{exc.lineno}:{exc.offset}",
                "detail": exc.msg or "syntax error",
            }
        ]
    return []


def _lint_store_dir(root: Path) -> List[Dict[str, object]]:
    from ..analysis.soundness import lint_tier_payload

    artifact_store = _open_store(str(root))
    rows: List[Dict[str, object]] = []
    try:
        for key in artifact_store.keys():
            artifact = artifact_store.get(key.function, key.config_fingerprint)
            if artifact is None:
                continue
            for item in artifact.versions:
                rows.extend(
                    _lint_row(str(root), f)
                    for f in lint_tier_payload(item["tier"], key.function)
                )
    except StoreError as exc:
        raise click.ClickException(f"{type(exc).__name__}: {exc}")
    return rows


def _lint_path(path: Path) -> List[Dict[str, object]]:
    if path.is_dir():
        if (path / "store.json").exists():
            return _lint_store_dir(path)
        rows: List[Dict[str, object]] = []
        for child in sorted(path.rglob("*")):
            if child.suffix == ".mc":
                rows.extend(_lint_minic_file(child))
            elif child.suffix == ".py" or child.name.endswith(".py.txt"):
                rows.extend(_lint_python_file(child))
        return rows
    if path.suffix == ".mc":
        return _lint_minic_file(path)
    if path.suffix == ".py" or path.name.endswith(".py.txt"):
        return _lint_python_file(path)
    if path.name == "store.json":
        return _lint_store_dir(path.parent)
    raise click.BadParameter(
        f"cannot lint {path}: expected a .mc source, a .py/.py.txt file, "
        f"an artifact store, or a directory of those"
    )


def _lint_workload(name: str, calls: int, config: EngineConfig) -> List[Dict[str, object]]:
    """Warm a named workload and lint every version the engine published."""
    from ..analysis.soundness import lint_version
    from ..engine.facade import Engine

    engine = Engine.from_source(_workload_source(name), config=config)
    rows: List[Dict[str, object]] = []
    try:
        for call_args, memory in _workload_calls(name, calls, 0):
            engine.call(name, call_args, memory=memory)
        engine.wait_for_compilation(timeout=30.0)
        for fn_name in engine.function_names():
            for entry in engine.runtime.functions[fn_name].versions:
                rows.extend(
                    _lint_row(f"workload:{name}", f)
                    for f in lint_version(
                        entry.version, key=entry.key, function_name=fn_name
                    )
                )
    finally:
        engine.close()
    return rows


def _lint_benchmarks() -> List[Dict[str, object]]:
    """Build and lint the version the engine would publish for each loop kernel."""
    from ..analysis.soundness import lint_version
    from ..ir.interp import Interpreter
    from ..vm.profile import GENERIC_KEY, ValueProfile
    from ..vm.version import build_version
    from ..workloads import (
        LOOP_KERNEL_NAMES,
        benchmark_arguments,
        benchmark_function,
    )

    config = EngineConfig(inline=False, min_samples=2)
    rows: List[Dict[str, object]] = []
    for name in LOOP_KERNEL_NAMES:
        function = benchmark_function(name)
        profile = ValueProfile()
        interp = Interpreter(profiler=profile)
        for _ in range(6):
            args, memory = benchmark_arguments(name)
            interp.run(function, args, memory=memory)
        version, _rejected = build_version(
            function, GENERIC_KEY, profile, frozenset(), config, lambda callee: None
        )
        rows.extend(
            _lint_row(f"benchmark:{name}", f)
            for f in lint_version(version, function_name=name)
        )
    return rows


LINT_COLUMNS = ("source", "function", "rule", "point", "detail")


@main.command()
@click.argument("paths", nargs=-1, type=click.Path(exists=True))
@click.option(
    "--workload",
    "workloads",
    multiple=True,
    help="Warm a named workload kernel and lint its published versions "
    "(repeatable).",
)
@click.option(
    "--benchmarks",
    is_flag=True,
    help="Build and lint speculative versions of the benchmark loop kernels.",
)
@click.option(
    "--calls",
    default=12,
    show_default=True,
    help="Warm-up calls per --workload before linting.",
)
@config_options
@format_option
def lint(
    paths: Sequence[str],
    workloads: Sequence[str],
    benchmarks: bool,
    calls: int,
    overrides: Sequence[str],
    fmt: str,
) -> None:
    """Statically lint sources, stores, workloads and benchmark kernels.

    PATHS may be MiniC sources (.mc), generated-Python goldens
    (.py/.py.txt), artifact store directories, or directories of any of
    those.  Every finding of the soundness verifier and the IR lint pack
    (dead guards, unreachable blocks, unused keep-alives, mapping range
    errors) is reported; the exit status is 1 when anything was found.
    """
    if not paths and not workloads and not benchmarks:
        raise click.UsageError(
            "nothing to lint: provide PATHS, --workload, or --benchmarks"
        )
    rows: List[Dict[str, object]] = []
    for raw in paths:
        rows.extend(_lint_path(Path(raw)))
    if workloads or benchmarks:
        config = _build_config(overrides)
        for name in workloads:
            rows.extend(_lint_workload(name, calls, config))
        if benchmarks:
            rows.extend(_lint_benchmarks())
    click.echo(
        format_rows(
            rows,
            LINT_COLUMNS,
            fmt,
            title=f"repro lint — {len(rows)} finding(s)",
        )
    )
    if rows:
        sys.exit(1)


# --------------------------------------------------------------------- #
# Store management.
# --------------------------------------------------------------------- #
def _open_store(root: str, *, create: bool = False) -> ArtifactStore:
    try:
        return ArtifactStore(root, create=create)
    except StoreError as exc:
        raise click.ClickException(f"{type(exc).__name__}: {exc}")


@main.group()
def store() -> None:
    """Manage a persistent artifact store."""


@store.command("list")
@click.argument("root", type=click.Path(file_okay=False))
@click.option("--fingerprint", default=None, help="Restrict to one config shard.")
@format_option
def store_list(root: str, fingerprint: Optional[str], fmt: str) -> None:
    """List every stored artifact (function, identity, payload shape)."""
    artifact_store = _open_store(root)
    rows: List[Dict[str, object]] = []
    try:
        for key in artifact_store.keys(fingerprint):
            artifact = artifact_store.get(key.function, key.config_fingerprint)
            if artifact is None:
                continue
            rows.append(
                {
                    "function": key.function,
                    "fingerprint": key.config_fingerprint,
                    "base_ir_hash": key.base_ir_hash,
                    "tier": bool(artifact.versions),
                    "versions": len(artifact.versions),
                }
            )
    except StoreError as exc:
        raise click.ClickException(f"{type(exc).__name__}: {exc}")
    click.echo(
        format_rows(
            rows,
            ("function", "fingerprint", "base_ir_hash", "tier", "versions"),
            fmt,
            title=f"artifact store {root}",
        )
    )


def _resolve_fingerprint(
    artifact_store: ArtifactStore, function: str, fingerprint: Optional[str]
) -> str:
    if fingerprint is not None:
        return fingerprint
    matches = sorted(
        {
            key.config_fingerprint
            for key in artifact_store.keys()
            if key.function == function
        }
    )
    if not matches:
        raise click.ClickException(f"no artifact for @{function} in {artifact_store.root}")
    if len(matches) > 1:
        raise click.ClickException(
            f"@{function} exists under {len(matches)} config fingerprints "
            f"({', '.join(matches)}); pick one with --fingerprint"
        )
    return matches[0]


@store.command("export")
@click.argument("root", type=click.Path(file_okay=False))
@click.argument("function")
@click.option("--fingerprint", default=None, help="Config shard (required if ambiguous).")
@click.option("--output", "-o", default=None, type=click.Path(dir_okay=False), help="Write to a file instead of stdout.")
def store_export(root: str, function: str, fingerprint: Optional[str], output: Optional[str]) -> None:
    """Export one artifact as JSON (the wire format `store import` reads)."""
    artifact_store = _open_store(root)
    try:
        fingerprint = _resolve_fingerprint(artifact_store, function, fingerprint)
        artifact = artifact_store.get(function, fingerprint)
    except StoreError as exc:
        raise click.ClickException(f"{type(exc).__name__}: {exc}")
    if artifact is None:
        raise click.ClickException(f"no artifact for @{function}/{fingerprint} in {root}")
    payload = json.dumps(artifact.as_json(), sort_keys=True, indent=1)
    if output is None:
        click.echo(payload)
    else:
        Path(output).write_text(payload + "\n")
        click.echo(f"exported {artifact.key} -> {output}", err=True)


@store.command("import")
@click.argument("root", type=click.Path(file_okay=False))
@click.argument("artifact_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--merge/--no-merge", default=True, show_default=True, help="Histogram-merge with an existing entry.")
def store_import(root: str, artifact_file: str, merge: bool) -> None:
    """Import an artifact JSON file (as produced by `store export`)."""
    try:
        data = json.loads(Path(artifact_file).read_text())
    except ValueError as exc:
        raise click.ClickException(f"not valid JSON: {artifact_file}: {exc}")
    artifact_store = _open_store(root, create=True)
    try:
        artifact = FunctionArtifact.from_json(data)
        key = artifact_store.put(artifact, merge=merge)
    except StoreError as exc:
        raise click.ClickException(f"{type(exc).__name__}: {exc}")
    click.echo(f"imported {key}")


@store.command("gc")
@click.argument("root", type=click.Path(file_okay=False))
@click.option("--function", default=None, help="Discard entries for this function.")
@click.option("--fingerprint", default=None, help="Discard this config shard's entries.")
@click.option("--keep", default=None, help="Discard every shard EXCEPT this fingerprint.")
@click.option("--dry-run", is_flag=True, help="Only report what would be removed.")
@format_option
def store_gc(
    root: str,
    function: Optional[str],
    fingerprint: Optional[str],
    keep: Optional[str],
    dry_run: bool,
    fmt: str,
) -> None:
    """Garbage-collect store entries by function or config fingerprint."""
    if keep is not None and fingerprint is not None:
        raise click.UsageError("--keep and --fingerprint are mutually exclusive")
    if keep is None and fingerprint is None and function is None:
        raise click.UsageError("select entries with --function, --fingerprint or --keep")
    artifact_store = _open_store(root)
    try:
        if dry_run:
            removed = [
                key
                for key in artifact_store.keys(fingerprint)
                if (function is None or key.function == function)
                and (keep is None or key.config_fingerprint != keep)
            ]
        elif keep is not None:
            removed = []
            for shard in artifact_store.fingerprints():
                if shard != keep:
                    removed.extend(
                        artifact_store.discard(function=function, fingerprint=shard)
                    )
        else:
            removed = artifact_store.discard(function=function, fingerprint=fingerprint)
    except StoreError as exc:
        raise click.ClickException(f"{type(exc).__name__}: {exc}")
    rows = [
        {
            "function": key.function,
            "fingerprint": key.config_fingerprint,
            "base_ir_hash": key.base_ir_hash,
            "removed": not dry_run,
        }
        for key in removed
    ]
    click.echo(
        format_rows(
            rows,
            ("function", "fingerprint", "base_ir_hash", "removed"),
            fmt,
            title=f"store gc {root}" + (" (dry run)" if dry_run else ""),
        )
    )


# --------------------------------------------------------------------- #
# Live view.
# --------------------------------------------------------------------- #
@main.command()
@click.option("--follow", "follow_path", default=None, type=click.Path(exists=True, dir_okay=False), help="Fold a JSON-lines event sink (repro run --events-jsonl).")
@click.option("--url", default=None, help="Scrape a running /metrics.json endpoint instead.")
@click.option("--interval", default=1.0, show_default=True, help="Seconds between frames.")
@click.option("--frames", default=0, show_default=True, help="Stop after N frames (0 = run until interrupted).")
@click.option("--clear/--no-clear", default=True, show_default=True, help="Clear the terminal between frames.")
def top(
    follow_path: Optional[str],
    url: Optional[str],
    interval: float,
    frames: int,
    clear: bool,
) -> None:
    """Live per-function view of the folding metric stream."""
    if (follow_path is None) == (url is None):
        raise click.UsageError("provide exactly one of --follow or --url")
    collector = StatsCollector()
    exporter = MetricsExporter(collector)
    offset = 0
    frame = 0
    while True:
        frame += 1
        if follow_path is not None:
            for event in read_events(follow_path, start=offset):
                offset += 1
                collector(event)
            payload = exporter.as_dict()
            source = follow_path
        else:
            import urllib.request

            target = url if url.endswith("/metrics.json") else url.rstrip("/") + "/metrics.json"
            try:
                with urllib.request.urlopen(target, timeout=5) as response:
                    payload = json.loads(response.read().decode())
            except OSError as exc:
                raise click.ClickException(f"scrape failed: {target}: {exc}")
            source = target
        events = payload.get("events", {})
        rows = [
            summary_row(name, stats)
            for name, stats in sorted(payload["functions"].items())
        ]
        if clear and sys.stdout.isatty():
            click.echo("\x1b[2J\x1b[H", nl=False)
        total_events = int(sum(events.values()))
        click.echo(
            format_rows(
                rows,
                TOP_COLUMNS,
                "table",
                title=f"repro top — {source} (frame {frame}, {total_events} events)",
            )
        )
        if events:
            click.echo(
                "events: "
                + "  ".join(f"{kind}={int(count)}" for kind, count in sorted(events.items()))
            )
        if frames and frame >= frames:
            break
        time.sleep(interval)


if __name__ == "__main__":
    main()
