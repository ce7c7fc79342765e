"""OSR mappings (Definition 3.1) and their composition (Theorem 3.4).

An :class:`OSRMapping` is a (possibly partial) function from program
points of a source version to pairs ``(landing point, compensation code)``
in a destination version.  ``transfer`` performs the state side of an OSR
transition: it runs the compensation code on a source environment and
restricts the result to the variables live at the landing point, which is
exactly the store equality modulo live variables that Definition 3.1
requires.

``compose`` implements Theorem 3.4: mappings M_{p→p'} and M_{p'→p''}
compose pointwise, and their compensation codes compose sequentially.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterator, Mapping, Optional, Tuple

from .compensation import CompensationCode
from .views import ProgramView

__all__ = ["OSRMappingEntry", "OSRMapping"]


@dataclass(frozen=True)
class OSRMappingEntry:
    """One mapped point: where to land and what glue code to run."""

    target: Hashable
    compensation: CompensationCode


class OSRMapping:
    """A (partial) OSR mapping between two program versions."""

    def __init__(
        self,
        source_view: ProgramView,
        target_view: ProgramView,
        *,
        name: str = "",
    ) -> None:
        self.source_view = source_view
        self.target_view = target_view
        self.name = name
        self._entries: Dict[Hashable, OSRMappingEntry] = {}

    # ------------------------------------------------------------------ #
    # Population and lookup.
    # ------------------------------------------------------------------ #
    def add(
        self,
        source_point: Hashable,
        target_point: Hashable,
        compensation: CompensationCode,
    ) -> None:
        self._entries[source_point] = OSRMappingEntry(target_point, compensation)

    def lookup(self, source_point: Hashable) -> Optional[OSRMappingEntry]:
        return self._entries.get(source_point)

    def __contains__(self, source_point: Hashable) -> bool:
        return source_point in self._entries

    def __getitem__(self, source_point: Hashable) -> OSRMappingEntry:
        return self._entries[source_point]

    def domain(self) -> list:
        """Points at which an OSR transition is supported."""
        return sorted(self._entries, key=repr)

    def entries(self) -> Iterator[Tuple[Hashable, OSRMappingEntry]]:
        return iter(self._entries.items())

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------ #
    # State transfer.
    # ------------------------------------------------------------------ #
    def transfer(self, source_point: Hashable, env: Mapping[str, int]) -> Dict[str, int]:
        """Compute the landing environment for an OSR fired at ``source_point``.

        Runs the compensation code on ``env`` and keeps only the variables
        live at the landing point — the ``[[c]](σ)|live(p',l')`` of
        Definition 3.1.
        """
        entry = self._entries.get(source_point)
        if entry is None:
            raise KeyError(f"OSR not supported at {source_point}")
        full = entry.compensation.apply_to(env)
        live = self.target_view.live_in(entry.target)
        return {name: value for name, value in full.items() if name in live}

    # ------------------------------------------------------------------ #
    # Composition (Theorem 3.4).
    # ------------------------------------------------------------------ #
    def compose(self, other: "OSRMapping") -> "OSRMapping":
        """``self ∘ other``: map p-points through p' into p''.

        Defined at a point ``l`` only when ``self`` maps ``l`` to some
        ``l'`` that is itself in ``other``'s domain; the compensation code
        is the sequential composition of the two codes.
        """
        composed = OSRMapping(
            self.source_view,
            other.target_view,
            name=f"{self.name}∘{other.name}" if self.name or other.name else "",
        )
        for source_point, entry in self._entries.items():
            next_entry = other.lookup(entry.target)
            if next_entry is None:
                continue
            composed.add(
                source_point,
                next_entry.target,
                entry.compensation.then(next_entry.compensation),
            )
        return composed

    def __repr__(self) -> str:
        return f"<OSRMapping {self.name or 'anonymous'}: {len(self._entries)} points>"
