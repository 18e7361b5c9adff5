"""Baseline files: grandfathered findings that do not fail CI.

A baseline is a sorted JSON document of finding fingerprints.  The shipped
repository baseline (``.reprolint-baseline.json``) is **empty** — CI starts
strict — but the mechanism exists so a future rule can land before its
violations are burned down, without a flag day.

Fingerprints hash the offending line's text rather than its number, so a
baseline survives unrelated edits but expires as soon as the flagged line
changes (see :mod:`repro.devtools.reprolint.findings`).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.devtools.reprolint.findings import Finding
from repro.errors import ReproError

__all__ = ["BaselineError", "load_baseline", "write_baseline", "DEFAULT_BASELINE"]

#: conventional repository-root baseline filename
DEFAULT_BASELINE = ".reprolint-baseline.json"

_VERSION = 1


class BaselineError(ReproError):
    """A baseline file is missing or malformed."""


def load_baseline(path: str | Path) -> frozenset[str]:
    """Read the set of grandfathered fingerprints from ``path``."""
    try:
        payload = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise BaselineError(f"baseline file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise BaselineError(f"baseline file {path} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict) or payload.get("version") != _VERSION:
        raise BaselineError(
            f"baseline file {path} has unsupported shape (want version {_VERSION})"
        )
    fingerprints = payload.get("fingerprints", [])
    if not isinstance(fingerprints, list) or not all(
        isinstance(fp, str) for fp in fingerprints
    ):
        raise BaselineError(f"baseline file {path}: 'fingerprints' must be strings")
    return frozenset(fingerprints)


def write_baseline(path: str | Path, findings: list[Finding]) -> int:
    """Write every *active* finding's fingerprint to ``path``; returns count.

    Output is sorted and newline-terminated so regeneration is diff-stable.
    """
    fingerprints = sorted({f.fingerprint for f in findings if f.active})
    payload = {"version": _VERSION, "fingerprints": fingerprints}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return len(fingerprints)
