"""The one way artifacts are written: CSV tables, JSON documents, digests.

Every file under ``--out`` goes through :func:`write_csv` or
:func:`write_json`, so one rule fixes their bytes:

* a CSV value is ``str`` of the Python value, and ``str`` of a float is its
  shortest round-trip ``repr`` (pass Python scalars, e.g. from
  ``tolist()``, not numpy ones);
* JSON has sorted keys, ``(",", ":")`` separators and a trailing newline.

A filesystem error while writing becomes :class:`IoFailure`, a data
error (CLI exit code 2).
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable, Sequence

from .errors import IoFailure


def write_csv(path: str, header: str, rows: Iterable[Sequence[object]]) -> None:
    """Write ``header`` then one comma-joined line per row."""
    try:
        with open(path, "w", newline="") as handle:
            handle.write(header + "\n")
            handle.writelines(",".join(map(str, row)) + "\n" for row in rows)
    except OSError as exc:
        raise IoFailure(f"cannot write {path!r}: {exc}") from exc


def write_json(path: str, doc: object) -> None:
    """Write ``doc`` as compact JSON with sorted keys and a trailing newline."""
    try:
        with open(path, "w") as handle:
            json.dump(doc, handle, sort_keys=True, separators=(",", ":"))
            handle.write("\n")
    except OSError as exc:
        raise IoFailure(f"cannot write {path!r}: {exc}") from exc


def git_blob_sha1(path: str) -> str:
    """Content digest matching ``git hash-object`` on the file."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise IoFailure(f"cannot hash {path!r}: {exc}") from exc
    header = f"blob {len(data)}\0".encode()
    return hashlib.sha1(header + data).hexdigest()
