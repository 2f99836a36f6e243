"""The one way artifacts are written: CSV tables, JSON documents, digests.

Every file under ``--out`` goes through :func:`write_csv` (a record
table through :func:`write_records`), :func:`write_csv_tables` or
:func:`write_json`, so one rule fixes their bytes:

* a CSV value is ``str`` of the Python value, and ``str`` of a float is its
  shortest round-trip ``repr`` (pass Python scalars, e.g. from
  ``tolist()``, not numpy ones; :func:`write_csv_tables` takes numpy
  columns and formats their ``tolist()`` values);
* JSON has sorted keys, ``(",", ":")`` separators and a trailing newline.

A filesystem error while writing becomes :class:`DataError` (CLI exit
code 2).
"""

from __future__ import annotations

import hashlib
import json
import logging
import operator
import time
from dataclasses import fields
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DataError

log = logging.getLogger(__name__)


def _write_lines(path: str, header: str, lines: Iterable[str]) -> None:
    try:
        with open(path, "w", newline="") as handle:
            handle.write(header + "\n")
            handle.writelines(line + "\n" for line in lines)
    except OSError as exc:
        raise DataError(f"cannot write {path!r}: {exc}") from exc


def write_csv(path: str, header: str, rows: Iterable[Sequence[object]]) -> None:
    """Write ``header`` then one comma-joined line per row."""
    _write_lines(path, header, (",".join(map(str, row)) for row in rows))


def field_names(cls: type) -> tuple[str, ...]:
    """A dataclass's field names in declaration order."""
    return tuple(f.name for f in fields(cls))


def field_values(cls: type) -> Callable[[object], tuple]:
    """Getter of a flat dataclass's field values as a tuple (two or more
    fields): ``dataclasses.astuple`` without its deep copy of each one."""
    return operator.attrgetter(*field_names(cls))


def write_records(path: str, cls: type, rows: Iterable, keys: Sequence[str] = ()) -> None:
    """Write ``rows`` of the flat dataclass ``cls``, one line each, under a
    header of its field names.  ``keys`` name columns written before the
    fields; each row is then ``(*key_values, record)``."""
    values = field_values(cls)
    lines = ((*row[:-1], *values(row[-1])) for row in rows) if keys else map(values, rows)
    write_csv(path, ",".join((*keys, *field_names(cls))), lines)


def _format_column(values: np.ndarray) -> np.ndarray:
    """The text of every value of a numeric column, as an object array,
    with one ``repr`` (for a Python int or float the same as ``str``) per
    distinct value.  Floats are told apart by bit pattern, so -0.0 keeps
    its sign next to 0.0 (a value-based unique would merge them and print
    one for both)."""
    floats = values.dtype.kind == "f"
    keys = values.view(f"u{values.itemsize}") if floats else values
    distinct, inverse = np.unique(keys, return_inverse=True)
    if floats:
        distinct = distinct.view(values.dtype)
    text = np.array(list(map(repr, distinct.tolist())), dtype=object)
    return text[inverse]


def write_csv_tables(
    paths: Sequence[str], header: str, tables: Sequence[Sequence[np.ndarray]]
) -> None:
    """Write table ``i``, a sequence of equal-length numeric numpy columns,
    to ``paths[i]``: the same bytes as :func:`write_csv` given the
    columns' ``tolist()`` rows.

    Tables in one call share the header and their columns' dtypes.  Each
    column position is formatted once over all the tables, one ``repr``
    per distinct value, so values repeated within and across tables (the
    models of one condition under paired draws share their loss,
    volatility and shock columns) cost one formatting between them.
    Logs one INFO line: files, rows, seconds and rows per second.
    """
    started = time.perf_counter()
    sizes = [len(table[0]) for table in tables]
    formatted = [
        _format_column(np.concatenate([table[j] for table in tables]))
        for j in range(header.count(",") + 1)
    ]
    stop = 0
    for path, size in zip(paths, sizes):
        start, stop = stop, stop + size
        _write_lines(path, header, map(",".join, zip(*(
            column[start:stop].tolist() for column in formatted
        ))))
    seconds = time.perf_counter() - started
    log.info("wrote %d CSV files, %d rows in %.3f s (%.0f rows/s)",
             len(paths), stop, seconds, stop / seconds if seconds > 0.0 else 0.0)


def write_json(path: str, doc: object) -> None:
    """Write ``doc`` as compact JSON with sorted keys and a trailing newline,
    encoded in C by ``json.dumps`` (not ``json.dump``'s Python encoder)."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    try:
        with open(path, "w") as handle:
            handle.write(text)
    except OSError as exc:
        raise DataError(f"cannot write {path!r}: {exc}") from exc


def git_blob_sha1(path: str) -> str:
    """Content digest matching ``git hash-object`` on the file."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise DataError(f"cannot hash {path!r}: {exc}") from exc
    header = f"blob {len(data)}\0".encode()
    return hashlib.sha1(header + data).hexdigest()
