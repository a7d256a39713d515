"""Run manifests: who ran what, with which config, on which commit.

A benchmark number or a metrics dump is only evidence if the run that
produced it is identifiable.  The manifest writer captures, alongside
any telemetry artifact:

* the command line and backend name,
* a **config fingerprint** — a stable SHA-256 over the config object's
  field values, so two runs are comparable iff their fingerprints match
  (field order and dataclass identity do not affect it),
* the git commit SHA (``None`` outside a git checkout — never an error),
* a wall-clock UTC start timestamp (labelling) and the monotonic
  elapsed seconds (measurement) — deliberately separate clocks, see
  :mod:`repro.telemetry.clock`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.telemetry.clock import utc_now_iso

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "RunManifest",
    "config_fingerprint",
    "git_commit",
    "git_dirty",
    "write_manifest",
]

MANIFEST_SCHEMA_VERSION = 1


def _stable_value(value: Any) -> Any:
    """Reduce *value* to a deterministic JSON-able form for hashing."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            name: _stable_value(getattr(value, name))
            for name in sorted(f.name for f in dataclasses.fields(value))
        }
    if isinstance(value, dict):
        return {str(key): _stable_value(value[key]) for key in sorted(value)}
    if isinstance(value, (list, tuple)):
        return [_stable_value(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def config_fingerprint(config: Any) -> str:
    """SHA-256 over the config's stable field values (first 16 hex chars)."""
    payload = json.dumps(_stable_value(config), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _git(args: List[str], cwd: Optional[Union[str, Path]]) -> Optional[str]:
    """``git <args>``'s stripped output, or ``None`` when git fails."""
    try:
        result = subprocess.run(
            ["git", *args],
            cwd=str(cwd) if cwd is not None else None,
            capture_output=True,
            text=True,
            timeout=5,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def git_commit(cwd: Optional[Union[str, Path]] = None) -> Optional[str]:
    """The checked-out commit SHA, or ``None`` when unavailable."""
    return _git(["rev-parse", "HEAD"], cwd) or None


def git_dirty(cwd: Optional[Union[str, Path]] = None) -> Optional[bool]:
    """Whether tracked files differ from the checked-out commit.

    True when ``git status --porcelain`` lists a tracked change (staged
    or not); untracked files do not count.  ``None`` outside a git
    checkout.
    """
    status = _git(["status", "--porcelain", "--untracked-files=no"], cwd)
    return None if status is None else bool(status)


@dataclass
class RunManifest:
    """Everything needed to identify (and re-run) one telemetry-bearing run."""

    command: List[str]
    backend: str
    config_fingerprint: str
    config: Dict[str, Any] = field(default_factory=dict)
    git_sha: Optional[str] = None
    seed: Optional[int] = None
    started_utc: str = field(default_factory=utc_now_iso)
    wall_seconds: float = 0.0
    reads_total: int = 0
    schema_version: int = MANIFEST_SCHEMA_VERSION

    @classmethod
    def for_run(
        cls,
        command: List[str],
        backend: str,
        config: Any,
        seed: Optional[int] = None,
    ) -> "RunManifest":
        """Build a manifest from a live config object (started-now stamp)."""
        stable = _stable_value(config)
        return cls(
            command=list(command),
            backend=backend,
            config_fingerprint=config_fingerprint(config),
            config=stable if isinstance(stable, dict) else {"value": stable},
            git_sha=git_commit(),
            seed=seed,
        )

    def as_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


def write_manifest(path: Union[str, Path], manifest: RunManifest) -> None:
    """Write *manifest* as indented JSON alongside the run's results."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        json.dumps(manifest.as_dict(), indent=2, sort_keys=True) + "\n"
    )
