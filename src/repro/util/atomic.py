"""Crash-safe JSON file writes.

Every persistent artefact (run manifests, the engine store, the
simulation cache's disk shards, sweep checkpoints, the serve pool's
per-worker metrics) is rewritten whole: the payload goes to a temp
file in the target's directory, which then replaces the target with
``os.replace``.  A crash mid-write leaves the previous file intact and
no temp file behind, so no reader ever sees a torn JSON document.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any


def atomic_write_json(
    path: "str | os.PathLike", payload: Any, indent: "int | None" = None
) -> None:
    """Write ``payload`` as JSON to ``path`` atomically.  The parent
    directory must exist."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=indent)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
