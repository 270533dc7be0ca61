"""Log anonymization: consistent pseudonymization of sensitive fields.

The paper could not release its data: "log anonymization is also
troublesome, because sensitive information like usernames is not relegated
to distinct fields ...  Our log data are not available for public study
primarily because we cannot remove all sensitive information with
sufficient confidence" (Section 3.2.1, citing Flegel's work on
pseudonymizing Unix logs).

This module implements the tooling that problem calls for:

* recognizers for the sensitive atoms that hide inside free-form message
  bodies — IPv4 addresses (with optional ports), usernames in known
  contexts, filesystem paths, job identifiers, and hostnames;
* a :class:`Pseudonymizer` that replaces each atom with a deterministic,
  *consistent* pseudonym (the same IP maps to the same token throughout,
  preserving cross-line correlation structure — the property analyses
  need) while being keyed, so the mapping is not invertible without the
  key.

True to the paper's warning, anonymization is best-effort by construction:
:meth:`Pseudonymizer.residual_risk` reports strings that *look* sensitive
but matched no recognizer, so an operator can audit before release.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Tuple

from .record import LogRecord

#: IPv4, optionally with :port.
_IP_RE = re.compile(
    r"\b(?P<ip>(?:\d{1,3}\.){3}\d{1,3})(?::(?P<port>\d{1,5}))?\b"
)

#: Usernames in the contexts syslog actually uses them.
_USER_RE = re.compile(
    r"(?P<prefix>\b(?:user|for user|by user|session opened for user|"
    r"Accepted publickey for|USER=)\s+)(?P<user>[a-z_][a-z0-9_\-]{0,31})\b"
)

#: Absolute filesystem paths (at least two components).
_PATH_RE = re.compile(r"(?P<path>/(?:[\w.\-+]+/)+[\w.\-+]+)")

#: PBS-style job ids: 12345.hostname.
_JOB_RE = re.compile(r"\b(?P<num>\d{3,7})\.(?P<host>[A-Za-z][\w\-]*)\b")


@dataclass
class Pseudonymizer:
    """Keyed, consistent pseudonymization of log text.

    Parameters
    ----------
    key:
        Secret salt; the same key reproduces the same pseudonyms, a
        different key yields an unlinkable mapping.
    preserve_structure:
        When ``True`` (default), pseudonyms keep the shape of the original
        (IPs become valid-looking IPs, paths stay paths), so downstream
        parsers and regex rules keep working on anonymized logs.
    """

    key: str = "repro"
    preserve_structure: bool = True
    mapping: Dict[Tuple[str, str], str] = field(default_factory=dict)
    _suspicious: List[str] = field(default_factory=list)

    def _digest(self, kind: str, value: str, length: int = 8) -> str:
        payload = f"{self.key}:{kind}:{value}".encode()
        return hashlib.sha256(payload).hexdigest()[:length]

    def _pseudo(self, kind: str, value: str) -> str:
        cache_key = (kind, value)
        cached = self.mapping.get(cache_key)
        if cached is not None:
            return cached
        digest = self._digest(kind, value)
        if not self.preserve_structure:
            token = f"[{kind}-{digest}]"
        elif kind == "ip":
            octets = [
                10,
                int(digest[0:2], 16) % 256,
                int(digest[2:4], 16) % 256,
                int(digest[4:6], 16) % 254 + 1,
            ]
            token = ".".join(str(o) for o in octets)
        elif kind == "user":
            token = f"user{int(digest[:6], 16) % 10000:04d}"
        elif kind == "path":
            token = f"/anon/{digest}"
        elif kind == "job":
            token = f"{int(digest[:6], 16) % 100000}.cluster"
        elif kind == "host":
            token = f"node{int(digest[:6], 16) % 10000:04d}"
        else:
            token = f"[{kind}-{digest}]"
        self.mapping[cache_key] = token
        return token

    def scrub_text(self, text: str) -> str:
        """Pseudonymize every recognized sensitive atom in a string."""

        def replace_ip(match: "re.Match[str]") -> str:
            token = self._pseudo("ip", match.group("ip"))
            port = match.group("port")
            return f"{token}:{port}" if port else token

        def replace_user(match: "re.Match[str]") -> str:
            return match.group("prefix") + self._pseudo(
                "user", match.group("user")
            )

        def replace_path(match: "re.Match[str]") -> str:
            return self._pseudo("path", match.group("path"))

        def replace_job(match: "re.Match[str]") -> str:
            return self._pseudo("job", f"{match.group('num')}.{match.group('host')}")

        text = _IP_RE.sub(replace_ip, text)
        text = _USER_RE.sub(replace_user, text)
        text = _JOB_RE.sub(replace_job, text)
        text = _PATH_RE.sub(replace_path, text)
        return text

    def scrub_record(self, record: LogRecord) -> LogRecord:
        """Pseudonymize a record's body and source host.

        The source pseudonym is consistent (same node, same token), so
        spatial analyses — per-source counts, spatial correlation — are
        preserved on the anonymized stream.
        """
        body = self.scrub_text(record.body)
        source = (
            self._pseudo("host", record.source) if record.source else record.source
        )
        self._note_residuals(body)
        return record._replace(body=body, source=source, raw=None)

    def scrub_stream(self, records: Iterable[LogRecord]) -> Iterator[LogRecord]:
        """Lazily pseudonymize a record stream."""
        for record in records:
            yield self.scrub_record(record)

    def _note_residuals(self, scrubbed: str) -> None:
        # Post-scrub audit: emails or name@host remnants escaped the
        # recognizers.
        for match in re.finditer(r"\b[\w.]+@[\w.]+\b", scrubbed):
            self._suspicious.append(match.group(0))

    def residual_risk(self) -> List[str]:
        """Strings that survived scrubbing but look sensitive.

        An empty list is *not* a guarantee — the paper's point — but a
        non-empty one is a hard stop before release.
        """
        return list(self._suspicious)
