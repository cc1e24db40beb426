"""Formatting and atomic-write helpers shared by the exporters.

All numeric text output uses 12 significant digits with shortest-form
formatting, so identical runs produce byte-identical files.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path


def fmt12(x) -> str:
    """Format a float with 12 significant digits, shortest form."""
    return format(float(x), ".12g")


def round12(obj):
    """Recursively round floats in a JSON-ready structure to 12 significant digits.

    Rounding before serialisation keeps ``repr`` short and makes the
    write -> parse -> write cycle idempotent.
    """
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return float(fmt12(obj))
    if isinstance(obj, (int, str)) or obj is None:
        return obj
    if isinstance(obj, dict):
        return {k: round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round12(v) for v in obj]
    raise TypeError(f"cannot serialise object of type {type(obj)!r}")


def atomic_write(path, text) -> None:
    """Write a string, or an iterable of strings in turn, to ``path`` via a temporary file and rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.writelines((text,) if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, payload) -> None:
    """Serialise a JSON payload with rounded floats, atomically."""
    atomic_write(path, json.dumps(round12(payload), indent=2) + "\n")
