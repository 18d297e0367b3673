"""Deterministic artifact writing.

Artifacts are CSV (tabular data) and JSON (scalars and manifests).  Floats
are always rendered with %.17g so a given config and seed reproduce files
byte for byte; writes go to a temporary sibling and are renamed into place.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections.abc import Iterable
from pathlib import Path


def fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode())


def write_csv(path: str | Path, header: list[str], rows: Iterable[tuple]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_json(path: str | Path, doc: dict) -> None:
    atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def read_csv(path: str | Path) -> tuple[list[str], list[list[str]]]:
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",") if lines else []
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows
