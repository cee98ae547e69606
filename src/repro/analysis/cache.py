"""mtime-keyed result cache: stop re-parsing an unchanged tree.

The ``LINT=1`` lane and the fast CI leg run replint on every invocation;
on an unchanged tree that is pure re-parse cost. This cache memoizes one
full :func:`~repro.analysis.core.analyze_paths` run keyed by:

* the resolved, sorted analyzed path list plus the ``--select`` set
  (different invocations get different entries);
* per analyzed file, ``(mtime_ns, size)`` — any touched/added/removed
  file invalidates;
* the same stat signature over ``repro/analysis`` itself — editing a
  rule invalidates every entry, so a stale checker can never vouch for
  a tree.

On a hit the stored findings are replayed without opening a single
analyzed file. The cache lives in ``.replint_cache.json`` next to the
working directory by default (``--cache-file`` moves it, ``--no-cache``
bypasses); a corrupt or alien cache file is treated as a miss, never an
error.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.core import Finding, iter_python_files

CACHE_VERSION = 1
DEFAULT_CACHE_FILE = ".replint_cache.json"


def _stat_sig(path: Path) -> list[int]:
    st = path.stat()
    return [st.st_mtime_ns, st.st_size]


def _files_signature(paths: Iterable[str | Path]) -> dict[str, list[int]]:
    return {str(p): _stat_sig(p) for p in iter_python_files(paths)}


def _checker_signature() -> dict[str, list[int]]:
    pkg = Path(__file__).parent
    return {p.name: _stat_sig(p) for p in sorted(pkg.glob("*.py"))}


def _entry_key(
    paths: Sequence[str | Path], select: Sequence[str] | None
) -> str:
    resolved = sorted(str(Path(p).resolve()) for p in paths)
    raw = json.dumps([resolved, sorted(select) if select else None])
    return hashlib.sha1(raw.encode()).hexdigest()[:20]


def load(
    cache_file: str | Path,
    paths: Sequence[str | Path],
    select: Sequence[str] | None,
) -> tuple[list[Finding], int] | None:
    """Replay a cached run, or ``None`` on any miss/invalidation."""
    try:
        data = json.loads(Path(cache_file).read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(data, dict) or data.get("version") != CACHE_VERSION:
        return None
    entry = data.get("entries", {}).get(_entry_key(paths, select))
    if entry is None:
        return None
    if entry.get("checker") != _checker_signature():
        return None
    try:
        current = _files_signature(paths)
    except (OSError, FileNotFoundError):
        return None
    if entry.get("files") != current:
        return None
    try:
        findings = [Finding(**f) for f in entry["findings"]]
        num_files = int(entry["num_files"])
    except (KeyError, TypeError):
        return None
    return findings, num_files


def store(
    cache_file: str | Path,
    paths: Sequence[str | Path],
    select: Sequence[str] | None,
    findings: Sequence[Finding],
    num_files: int,
) -> None:
    """Record one completed run (best-effort: IO failures are ignored)."""
    cache_path = Path(cache_file)
    try:
        data = json.loads(cache_path.read_text())
        if not isinstance(data, dict) or data.get("version") != CACHE_VERSION:
            data = {}
    except (OSError, ValueError):
        data = {}
    entries = data.setdefault("entries", {}) if data else {}
    if not data:
        data = {"version": CACHE_VERSION, "entries": entries}
    try:
        entries[_entry_key(paths, select)] = {
            "checker": _checker_signature(),
            "files": _files_signature(paths),
            "findings": [f.as_json() for f in findings],
            "num_files": num_files,
        }
        cache_path.write_text(json.dumps(data, indent=1, sort_keys=True))
    except OSError:  # pragma: no cover - read-only checkout etc.
        pass
