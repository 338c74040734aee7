"""The correctness gate: every window against the plain-Hadoop reference."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Mapping, Sequence, Tuple

from .stats import output_digest

WindowKey = Tuple[str, int]  # (query or tenant, recurrence)


@dataclass
class WindowCheck:
    """Outcome of checking one run's windows."""

    attempted: int = 0
    missing: List[WindowKey] = field(default_factory=list)
    degraded: List[WindowKey] = field(default_factory=list)
    mismatched: List[WindowKey] = field(default_factory=list)
    unexpected: List[WindowKey] = field(default_factory=list)
    #: window -> sha256 of the system's output (the run's digest record).
    digests: Dict[WindowKey, str] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return (
            len(self.missing)
            + len(self.degraded)
            + len(self.mismatched)
            + len(self.unexpected)
        )


def check_windows(
    expected: Iterable[Hashable],
    observed: Mapping[Hashable, Tuple[Sequence[object], bool]],
    reference: Mapping[Hashable, Sequence[object]],
) -> WindowCheck:
    """Count failed windows among those the workload should produce.

    ``observed`` maps a window to ``(output, degraded)`` as the system
    under test emitted it; ``reference`` maps it to the plain-Hadoop
    output over the same batches. A window fails if it is missing,
    degraded, or its output differs from the reference; a window the
    system emitted but the workload never asked for also fails.
    """
    expected = list(expected)
    wanted = set(expected)
    check = WindowCheck(attempted=len(expected))
    for key in expected:
        if key not in observed:
            check.missing.append(key)
            continue
        output, degraded = observed[key]
        digest = output_digest(output)
        check.digests[key] = digest
        if degraded:
            check.degraded.append(key)
        elif key not in reference or output_digest(reference[key]) != digest:
            check.mismatched.append(key)
    for key in observed:
        if key not in wanted:
            check.unexpected.append(key)
            check.attempted += 1
    return check
