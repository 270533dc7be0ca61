"""Garbled-field detection for corrupted log lines.

The paper (Section 3.2.1, "Corruption") observed that "even on
supercomputers with highly engineered RAS systems, like BG/L and Red Storm,
log entries can be corrupted.  We saw messages truncated, partially
overwritten, and incorrectly timestamped."  A line whose header does not
parse, or whose stamp names no real instant, comes back from its parser
as ``corrupted=True``; this module recognises a field overwritten with
binary junk, which is what Figure 2(b)'s unattributable sources are.
"""

from __future__ import annotations

import string

_PRINTABLE = frozenset(string.printable)


def looks_garbled(text: str, max_unprintable_fraction: float = 0.05) -> bool:
    """Whether a field contains enough non-printable bytes to be garbage.

    The paper's Figure 2(b) shows a cluster of Liberty messages "whose
    source field was corrupted, thwarting attribution"; such fields contain
    control bytes or binary junk rather than hostnames.
    """
    if not text:
        return False
    unprintable = sum(1 for ch in text if ch not in _PRINTABLE)
    return unprintable / len(text) > max_unprintable_fraction
