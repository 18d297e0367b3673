"""Deterministic artifact writing.

Artifacts are CSV (tabular data, written from columns) and JSON (scalars
and manifests).  Floats are always rendered with %.17g so a given config and
seed reproduce files byte for byte; writes go to a temporary sibling and are
renamed into place.  The sibling is created with mode 0666 less the umask,
as open() would create the file itself.
"""

from __future__ import annotations

import json
import os
from collections.abc import Sequence
from itertools import repeat
from pathlib import Path


def fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # O_EXCL on a random name: never another writer's sibling, and unlike
    # tempfile.mkstemp (mode 0600) the mode follows the umask
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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


def write_csv(path: str | Path, header: list[str], columns: Sequence[Sequence]) -> None:
    """One header line, then one line per row of the equal-length columns.

    A column of floats is formatted by one %.17g template field; any other
    column is rendered value by value with fmt, to the same text.
    """
    if len(columns) != len(header):
        raise ValueError(f"{len(header)} header names for {len(columns)} columns")
    if len({len(c) for c in columns}) > 1:
        raise ValueError(f"columns of unequal lengths {[len(c) for c in columns]}")
    fields, texts = [], []
    for col in columns:
        if all(map(isinstance, col, repeat(float))):
            fields.append("{:.17g}")
            texts.append(col)
        else:
            fields.append("{}")
            texts.append(list(map(fmt, col)))
    line = ",".join(fields) + "\n"
    atomic_write_text(path, ",".join(header) + "\n" + "".join(map(line.format, *texts)))


def write_json(path: str | Path, doc: dict) -> None:
    atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")

