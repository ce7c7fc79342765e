"""The on-disk artifact store, engine snapshots, and warm-start hydration.

Store layout (one directory tree, safe to rsync or upload as a CI
artifact)::

    <root>/store.json                      # {"format": 1} (directory layout)
    <root>/objects/<fingerprint>/<fn>.json # one artifact per function
    <root>/objects/<fingerprint>/<fn>.lock # cross-process merge lock

Entries are sharded by config fingerprint, so engines with different
semantic configs never see each other's artifacts; within a shard the
payload still self-describes its key, and every load re-validates both
the fingerprint and the base-IR hash — a moved, copied or hand-edited
entry fails with a typed error instead of executing.

Writes go through :meth:`ArtifactStore.put`, the **merge-and-republish**
primitive of engines sharing one store: under a per-entry ``fcntl`` file
lock it reads the current entry, merges the incoming profile into the
stored histograms (so N writers' observations accumulate instead of
clobbering each other), keeps the richest version table, and atomically
replaces the file (``os.replace``), so a concurrent reader sees either
the old or the new complete entry, never a torn one.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from ..ir.function import Function
from ..vm.profile import ValueProfile, VersionKey
from ..vm.runtime import AdaptiveRuntime
from .artifacts import (
    ArtifactKey,
    ConfigMismatchError,
    FunctionArtifact,
    StaleArtifactError,
    StoreFormatError,
    function_ir_hash,
)
from .codec import decode_version, encode_version, plan_function_names

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.facade import Engine

try:  # pragma: no cover - platform probe
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback (best effort)
    fcntl = None

__all__ = [
    "ArtifactStore",
    "EngineSnapshot",
    "STORE_FORMAT",
    "snapshot_runtime",
    "hydrate_runtime",
]

#: Version of the store directory layout.
STORE_FORMAT = 1


class ArtifactStore:
    """A versioned on-disk store of per-function compilation artifacts."""

    def __init__(self, root: Union[str, Path], *, create: bool = True) -> None:
        self.root = Path(root)
        meta_path = self.root / "store.json"
        if meta_path.exists():
            try:
                meta = json.loads(meta_path.read_text())
            except (OSError, ValueError) as exc:
                raise StoreFormatError(f"unreadable store metadata: {exc}") from exc
            fmt = meta.get("format")
            if fmt != STORE_FORMAT:
                raise StoreFormatError(
                    f"store format {fmt!r} is not supported "
                    f"(this engine reads format {STORE_FORMAT})"
                )
        elif create:
            self.root.mkdir(parents=True, exist_ok=True)
            self._atomic_write(meta_path, json.dumps({"format": STORE_FORMAT}))
        else:
            raise StoreFormatError(f"no artifact store at {self.root}")

    # ------------------------------------------------------------------ #
    # Paths and primitives.
    # ------------------------------------------------------------------ #
    def _shard_dir(self, fingerprint: str) -> Path:
        return self.root / "objects" / fingerprint

    def _entry_path(self, fingerprint: str, function: str) -> Path:
        return self._shard_dir(fingerprint) / f"{function}.json"

    @staticmethod
    def _atomic_write(path: Path, text: str) -> None:
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=f".{path.name}.")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    class _EntryLock:
        """A per-entry advisory lock (no-op where fcntl is unavailable)."""

        def __init__(self, path: Path) -> None:
            self.path = path
            self._handle = None

        def __enter__(self) -> "ArtifactStore._EntryLock":
            if fcntl is not None:
                self._handle = open(self.path, "a")
                fcntl.flock(self._handle.fileno(), fcntl.LOCK_EX)
            return self

        def __exit__(self, *exc_info) -> None:
            if self._handle is not None:
                fcntl.flock(self._handle.fileno(), fcntl.LOCK_UN)
                self._handle.close()
                self._handle = None

    # ------------------------------------------------------------------ #
    # Reads.
    # ------------------------------------------------------------------ #
    def get(self, function: str, fingerprint: str) -> Optional[FunctionArtifact]:
        """Load one entry, or ``None`` when the function has no artifact.

        The payload's self-described key is validated against the
        requested coordinates: an entry copied into the wrong shard (or
        edited in place) raises :class:`ConfigMismatchError` rather than
        hydrating under a config it was not compiled for.
        """
        path = self._entry_path(fingerprint, function)
        try:
            data = json.loads(path.read_text())
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as exc:
            raise StoreFormatError(f"unreadable artifact {path}: {exc}") from exc
        artifact = FunctionArtifact.from_json(data)
        if artifact.key.config_fingerprint != fingerprint:
            raise ConfigMismatchError(
                f"artifact {path} was compiled under config fingerprint "
                f"{artifact.key.config_fingerprint}, not {fingerprint}; "
                f"refusing to load it"
            )
        if artifact.key.function != function:
            raise StoreFormatError(
                f"artifact {path} describes @{artifact.key.function}, "
                f"not @{function}"
            )
        return artifact

    def keys(self, fingerprint: Optional[str] = None) -> List[ArtifactKey]:
        """Every stored key (optionally restricted to one config shard)."""
        objects = self.root / "objects"
        if not objects.is_dir():
            return []
        shards = (
            [self._shard_dir(fingerprint)]
            if fingerprint is not None
            else sorted(p for p in objects.iterdir() if p.is_dir())
        )
        result: List[ArtifactKey] = []
        for shard in shards:
            if not shard.is_dir():
                continue
            for path in sorted(shard.glob("*.json")):
                try:
                    data = json.loads(path.read_text())
                    artifact = FunctionArtifact.from_json(data)
                except (OSError, ValueError, StoreFormatError):
                    continue
                result.append(artifact.key)
        return result

    def fingerprints(self) -> List[str]:
        """Every config-fingerprint shard currently holding entries."""
        objects = self.root / "objects"
        if not objects.is_dir():
            return []
        return sorted(
            shard.name
            for shard in objects.iterdir()
            if shard.is_dir() and any(shard.glob("*.json"))
        )

    # ------------------------------------------------------------------ #
    # Writes (merge-and-republish).
    # ------------------------------------------------------------------ #
    def put(self, artifact: FunctionArtifact, *, merge: bool = True) -> ArtifactKey:
        """Publish an artifact, merging with the stored entry under a lock.

        With ``merge`` (the default), an existing entry **with the same
        key** contributes: profiles are histogram-merged (concurrent
        writers' observations accumulate) and the stored version table
        is kept when the incoming artifact has none.  An entry with a *different*
        base-IR hash is superseded wholesale — it described a body that
        no longer exists.
        """
        key = artifact.key
        shard = self._shard_dir(key.config_fingerprint)
        shard.mkdir(parents=True, exist_ok=True)
        path = self._entry_path(key.config_fingerprint, key.function)
        lock_path = shard / f"{key.function}.lock"
        with self._EntryLock(lock_path):
            merged = artifact
            if merge and path.exists():
                try:
                    existing = FunctionArtifact.from_json(
                        json.loads(path.read_text())
                    )
                except (OSError, ValueError, StoreFormatError):
                    existing = None
                if existing is not None and existing.key == key:
                    profile = existing.profile.clone()
                    profile.merge(artifact.profile)
                    merged = FunctionArtifact(
                        key=key,
                        profile=profile,
                        versions=artifact.versions or existing.versions,
                        function_hashes={
                            **existing.function_hashes,
                            **artifact.function_hashes,
                        },
                    )
            # One item per line, unindented: entries stay line-diffable
            # and nesting depth (``versions[i].tier``) costs no bytes.
            self._atomic_write(
                path, json.dumps(merged.as_json(), sort_keys=True, indent=0)
            )
        return key

    def discard(
        self,
        *,
        function: Optional[str] = None,
        fingerprint: Optional[str] = None,
    ) -> List[ArtifactKey]:
        """Remove entries matching the given coordinates; return their keys.

        At least one selector is required — a bare ``discard()`` wiping
        the whole store would be too easy to reach by accident (``repro
        store gc`` enforces the same rule).  Shards left empty are
        pruned along with their advisory lock files.
        """
        if function is None and fingerprint is None:
            raise ValueError(
                "discard() needs a function and/or fingerprint selector"
            )
        removed: List[ArtifactKey] = []
        for key in self.keys(fingerprint):
            if function is not None and key.function != function:
                continue
            shard = self._shard_dir(key.config_fingerprint)
            path = self._entry_path(key.config_fingerprint, key.function)
            with self._EntryLock(shard / f"{key.function}.lock"):
                try:
                    path.unlink()
                except FileNotFoundError:
                    continue
            removed.append(key)
        objects = self.root / "objects"
        if objects.is_dir():
            for shard in objects.iterdir():
                if shard.is_dir() and not any(shard.glob("*.json")):
                    for lock in shard.glob("*.lock"):
                        lock.unlink(missing_ok=True)
                    try:
                        shard.rmdir()
                    except OSError:
                        pass
        return removed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ArtifactStore {self.root} ({len(self.keys())} entries)>"


def _as_store(store: Union[ArtifactStore, str, Path]) -> ArtifactStore:
    return store if isinstance(store, ArtifactStore) else ArtifactStore(store)


@dataclass(frozen=True)
class EngineSnapshot:
    """A point-in-time export of everything an engine has learned.

    One artifact per registered function: the merged profile always, the
    installed compiled tier when there is one.  A snapshot is pure data
    — saving it to a store is the only way it touches disk.
    """

    config_fingerprint: str
    artifacts: Tuple[FunctionArtifact, ...]

    def save(self, store: Union[ArtifactStore, str, Path]) -> List[ArtifactKey]:
        """Publish every artifact (merge-and-republish per entry)."""
        resolved = _as_store(store)
        return [resolved.put(artifact) for artifact in self.artifacts]

    def artifact(self, function: str) -> Optional[FunctionArtifact]:
        for artifact in self.artifacts:
            if artifact.key.function == function:
                return artifact
        return None


def snapshot_runtime(runtime: AdaptiveRuntime) -> EngineSnapshot:
    """Capture every registered function's profile and version table.

    Each live version is encoded under its entry-profile key, oldest
    first; a base-tier function persists its profile alone.
    """
    fingerprint = runtime.config.fingerprint()
    mode = runtime.config.mode
    artifacts: List[FunctionArtifact] = []
    for name, state in list(runtime.functions.items()):
        base_hash = function_ir_hash(state.base)
        hashes: Dict[str, str] = {name: base_hash}
        versions = []
        for entry in state.versions:
            tier = encode_version(entry.version, entry.backward_mapping(mode))
            versions.append({"key": entry.key.as_json(), "tier": tier})
            for frame_name in plan_function_names(entry.version):
                frame_state = runtime.functions.get(frame_name)
                if frame_state is not None:
                    hashes[frame_name] = function_ir_hash(frame_state.base)
        artifacts.append(
            FunctionArtifact(
                key=ArtifactKey(name, base_hash, fingerprint),
                profile=runtime.profile.function(name),
                versions=versions,
                function_hashes=hashes,
            )
        )
    return EngineSnapshot(config_fingerprint=fingerprint, artifacts=tuple(artifacts))


def hydrate_runtime(
    runtime: AdaptiveRuntime,
    store: Union[ArtifactStore, str, Path],
    *,
    on_stale: str = "error",
) -> List[str]:
    """Warm-start a runtime from a store: preload profiles, re-install tiers.

    For every registered function with a stored artifact under the
    runtime's config fingerprint, the persisted profile is folded into
    the live profile sink and — when the artifact carries compiled
    versions whose recorded hashes all match the registered bodies —
    each version is decoded and published through the runtime's single
    publication path (verify gate included), announcing
    :class:`~repro.engine.events.VersionRestored` (never ``TierUp``).
    The runtime's admission bound applies: an engine opened with a
    smaller ``max_versions`` keeps the most recently persisted entries,
    and one opened with a single slot restores the generic version only.

    Staleness handling: ``on_stale="error"`` (default) raises
    :class:`StaleArtifactError` loudly; ``on_stale="skip"`` leaves the
    function cold (it re-warms normally), which is what a rolling deploy
    wants when some bodies changed.  Returns the names whose
    compiled tier was restored.
    """
    if on_stale not in ("error", "skip"):
        raise ValueError(f"on_stale must be 'error' or 'skip', got {on_stale!r}")
    resolved = _as_store(store)
    fingerprint = runtime.config.fingerprint()
    restored: List[str] = []
    for name, state in list(runtime.functions.items()):
        artifact = resolved.get(name, fingerprint)
        if artifact is None:
            continue
        base_hash = function_ir_hash(state.base)
        try:
            if artifact.key.base_ir_hash != base_hash:
                raise StaleArtifactError(
                    f"artifact for @{name} was compiled from base IR "
                    f"{artifact.key.base_ir_hash}, but the registered body "
                    f"hashes to {base_hash}; refusing to load it"
                )
            for dep_name, dep_hash in artifact.function_hashes.items():
                dep_state = runtime.functions.get(dep_name)
                if dep_state is None:
                    raise StaleArtifactError(
                        f"artifact for @{name} references @{dep_name}, "
                        f"which is not registered with this engine"
                    )
                if function_ir_hash(dep_state.base) != dep_hash:
                    raise StaleArtifactError(
                        f"artifact for @{name} deoptimizes into @{dep_name}, "
                        f"whose registered body changed; refusing to load it"
                    )
        except StaleArtifactError:
            if on_stale == "skip":
                continue
            raise
        # Profile first: even a tier-less artifact shortens re-warming,
        # and a restored tier that later invalidates recompiles from the
        # accumulated histograms instead of from zero.
        preload = ValueProfile()
        preload.functions[name] = artifact.profile.clone()
        runtime.profile.preload(preload, name=name)

        def _resolve(dep: str, _name=name) -> Function:
            dep_state = runtime.functions.get(dep)
            if dep_state is None:
                raise StaleArtifactError(
                    f"artifact for @{_name} references unregistered @{dep}"
                )
            return dep_state.base

        went_live = False
        for item in artifact.versions:
            went_live |= runtime._publish_version(
                state,
                decode_version(item["tier"], state.base, _resolve),
                VersionKey.from_json(item.get("key", [])),
                restored=True,
                origin=resolved.root,
            )
        if went_live:
            restored.append(name)
    return restored
