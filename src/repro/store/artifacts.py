"""Artifact identity, staleness, and the typed store error hierarchy.

A persisted artifact is only meaningful relative to two facts about the
engine that produced it:

* the **base IR** it was compiled from — hashed over the canonical
  printed form (:func:`function_ir_hash`), so any observable change to a
  function body (or to a callee referenced by a multi-frame deopt plan)
  changes the hash; and
* the **config fingerprint** (:meth:`repro.engine.EngineConfig.fingerprint`)
  — the semantic compilation regime (speculation thresholds, inlining
  budgets, reconstruction mode).

:class:`ArtifactKey` bundles both with the function name; the store lays
entries out by fingerprint and validates both halves on every load.  A
mismatch is *always* a typed, loud error (:class:`StaleArtifactError` /
:class:`ConfigMismatchError`) — a stale optimized body or a plan built
for a different engine must never silently execute.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List

from ..ir.function import Function
from ..ir.printer import print_function
from ..vm.profile import FunctionProfile

__all__ = [
    "StoreError",
    "StoreFormatError",
    "ArtifactDecodeError",
    "StaleArtifactError",
    "ConfigMismatchError",
    "ArtifactKey",
    "FunctionArtifact",
    "ARTIFACT_FORMAT",
    "function_ir_hash",
]

#: Version of the on-disk artifact payload; bumped on incompatible schema
#: changes so an old store fails loudly instead of half-decoding.
#: Format 2 persists one ``versions`` list per function (format 1 wrote
#: the newest version twice, as ``tier`` and as ``tier_versions[-1]``).
ARTIFACT_FORMAT = 2


class StoreError(RuntimeError):
    """Base class of every artifact-store failure."""


class StoreFormatError(StoreError):
    """The store (or an entry) uses an unknown or malformed layout."""


class ArtifactDecodeError(StoreError):
    """An entry is structurally valid JSON but violates a codec contract
    (e.g. a guard in the persisted optimized IR has no deopt plan)."""


class StaleArtifactError(StoreError):
    """The entry was compiled from different base IR than is registered.

    Raised when the artifact's recorded hash of the base function — or of
    any callee function its deopt plans resume into — disagrees with the
    engine's registered bodies.  Hydrating it anyway could run optimized
    code whose deoptimization lands in a function that no longer exists
    in that shape.
    """


class ConfigMismatchError(StoreError):
    """The entry was compiled under a different semantic engine config."""


def function_ir_hash(function: Function) -> str:
    """Content hash of ``function``'s canonical printed form.

    The printer emits everything semantically observable (including guard
    reasons), so two functions with equal hashes compile identically.
    """
    text = print_function(function)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class ArtifactKey:
    """The identity a persisted artifact is stored and validated under."""

    function: str
    base_ir_hash: str
    config_fingerprint: str

    def __str__(self) -> str:
        return f"{self.function}@{self.base_ir_hash}/{self.config_fingerprint}"


@dataclass
class FunctionArtifact:
    """Everything the store persists about one function.

    ``versions`` is the function's whole version table, oldest first:
    a list of ``{"key": <VersionKey JSON>, "tier": <encoded version>}``
    items (empty for a profile-only artifact).  Each ``tier`` is the
    encoded compiled-tier payload (optimized IR text, per-guard deopt
    plans, forward/backward mappings, keep-alive set); it stays encoded
    until hydration because decoding needs the registered functions to
    resolve multi-frame plans against.  ``function_hashes`` records the
    hash of *every* function the payloads reference (the base function
    and each deopt-plan frame's callee) so a changed callee invalidates
    the artifact even though the caller's own body is unchanged.
    """

    key: ArtifactKey
    profile: FunctionProfile
    versions: List[Dict[str, object]] = field(default_factory=list)
    function_hashes: Dict[str, str] = field(default_factory=dict)

    def as_json(self) -> Dict[str, object]:
        return {
            "format": ARTIFACT_FORMAT,
            "function": self.key.function,
            "base_ir_hash": self.key.base_ir_hash,
            "config_fingerprint": self.key.config_fingerprint,
            "function_hashes": dict(sorted(self.function_hashes.items())),
            "profile": self.profile.as_json(),
            "versions": self.versions,
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "FunctionArtifact":
        fmt = data.get("format")
        if fmt != ARTIFACT_FORMAT:
            raise StoreFormatError(
                f"artifact format {fmt!r} is not supported "
                f"(this engine reads format {ARTIFACT_FORMAT})"
            )
        try:
            key = ArtifactKey(
                function=str(data["function"]),
                base_ir_hash=str(data["base_ir_hash"]),
                config_fingerprint=str(data["config_fingerprint"]),
            )
            profile = FunctionProfile.from_json(data["profile"])
            versions = data["versions"]
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreFormatError(f"malformed artifact entry: {exc}") from exc
        if not isinstance(versions, list) or not all(
            isinstance(item, dict) and isinstance(item.get("tier"), dict)
            for item in versions
        ):
            raise StoreFormatError("malformed versions payload")
        return cls(
            key=key,
            profile=profile,
            versions=versions,
            function_hashes={
                str(name): str(digest)
                for name, digest in dict(data.get("function_hashes", {})).items()
            },
        )
