"""Severity-field alert tagging (the baseline the paper argues against).

Previous BG/L studies "identified alerts according to the *severity* field
of messages" (paper, Sections 2 and 3.2).  The paper shows this is
unreliable: on BG/L, tagging every FATAL or FAILURE message as an alert
yields 0 % false negatives but a 59.34 % false-positive rate (Table 5); on
Red Storm, CRIT is dominated by a single disk-failure class and "except
for this failure case, these data suggest that syslog severity is not a
reliable failure indicator" (Table 6).  Three of the five machines
(Thunderbird, Spirit, Liberty) do not even record severity.

This module names the baseline's alert labels so its error rates can be
measured against the expert tags (``analysis/severity_eval.py``) — the
comparison behind Tables 5 and 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet

#: The tagging rule evaluated in the paper's Table 5 discussion.
BGL_ALERT_SEVERITIES: FrozenSet[str] = frozenset({"FATAL", "FAILURE"})


@dataclass(frozen=True)
class SeverityTaggerConfig:
    """Which severity labels count as alerts for a severity-based tagger."""

    alert_labels: FrozenSet[str]

    @classmethod
    def bgl_fatal_failure(cls) -> "SeverityTaggerConfig":
        """The Table 5 rule: severity in {FATAL, FAILURE} => alert."""
        return cls(alert_labels=BGL_ALERT_SEVERITIES)

