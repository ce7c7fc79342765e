"""Persistent artifact store: compiled tiers and profiles that outlive a process.

The adaptive runtime's learned state — merged value/branch/call-site
profiles, the optimized IR of each installed
:class:`~repro.vm.runtime.CompiledVersion`, its per-guard deopt plans
and OSR mappings — is rebuilt from nothing on every process start.  This
package makes that state durable:

* :mod:`repro.store.artifacts` — artifact identity (function name +
  base-IR hash + config fingerprint) and the typed staleness errors;
* :mod:`repro.store.codec` — JSON codecs for tier payloads, built on the
  IR printer/parser round-trip;
* :mod:`repro.store.persist` — the on-disk :class:`ArtifactStore`
  (locked merge-and-republish writes, validating reads),
  :class:`EngineSnapshot`, and runtime snapshot/hydrate.

The high-level entry points live on the engine facade:
``Engine.open(source, store=...)`` for warm starts, ``Engine.save(store)``
to publish, ``Engine.snapshot()`` for a pure-data export.
"""

from .artifacts import (
    ARTIFACT_FORMAT,
    ArtifactDecodeError,
    ArtifactKey,
    ConfigMismatchError,
    FunctionArtifact,
    StaleArtifactError,
    StoreError,
    StoreFormatError,
    function_ir_hash,
)
from .persist import (
    STORE_FORMAT,
    ArtifactStore,
    EngineSnapshot,
    hydrate_runtime,
    snapshot_runtime,
)

__all__ = [
    "ArtifactStore",
    "EngineSnapshot",
    "snapshot_runtime",
    "hydrate_runtime",
    "ArtifactKey",
    "FunctionArtifact",
    "function_ir_hash",
    "StoreError",
    "StoreFormatError",
    "ArtifactDecodeError",
    "StaleArtifactError",
    "ConfigMismatchError",
    "ARTIFACT_FORMAT",
    "STORE_FORMAT",
]
