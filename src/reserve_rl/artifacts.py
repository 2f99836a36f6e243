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

import contextlib
import hashlib
import json
import logging
import operator
import time
from dataclasses import fields
from typing import Callable, Iterable, Iterator, Sequence, TextIO

import numpy as np

from .errors import DataError

log = logging.getLogger(__name__)


@contextlib.contextmanager
def _writing(path: str) -> Iterator[None]:
    """Re-raise an OSError from the block as :class:`DataError` naming ``path``."""
    try:
        yield
    except OSError as exc:
        raise DataError(f"cannot write {path!r}: {exc}") from exc


def _write_lines(path: str, header: str, lines: Iterable[str]) -> None:
    with _writing(path), open(path, "w", newline="") as handle:
        handle.write(header + "\n")
        handle.writelines(line + "\n" for line in lines)


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


#: Rows of each table that :func:`write_csv_tables` formats in one step;
#: bounds the text arrays' memory.
CSV_CHUNK_ROWS = 1024


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


def _append_block(handles: Sequence[TextIO], tables: Sequence[Sequence[np.ndarray]],
                  n_columns: int) -> int:
    """Append table ``i`` of ``tables`` to ``handles[i]`` and return the rows
    written.  Row range after row range of :data:`CSV_CHUNK_ROWS` rows, each
    column position is formatted once over that range of every table."""
    sizes = [len(table[0]) for table in tables]
    for start in range(0, max(sizes, default=0), CSV_CHUNK_ROWS):
        stop = start + CSV_CHUNK_ROWS
        formatted = [
            _format_column(np.concatenate([table[j][start:stop] for table in tables]))
            for j in range(n_columns)
        ]
        end = 0
        for handle, table in zip(handles, tables):
            begin, end = end, end + len(table[0][start:stop])
            with _writing(handle.name):
                handle.writelines(line + "\n" for line in map(",".join, zip(*(
                    column[begin:end].tolist() for column in formatted
                ))))
    return sum(sizes)


def write_csv_tables(
    paths: Sequence[str], header: str, blocks: Iterable[Sequence[Sequence[np.ndarray]]]
) -> None:
    """Write table ``i`` of every block, a sequence of equal-length numeric
    numpy columns, to ``paths[i]``, block after block: the same bytes as
    :func:`write_csv` given the columns' ``tolist()`` rows of the tables
    concatenated in block order.

    The files are opened once, and a block is written and dropped before
    the next is taken from ``blocks``, so a generator of blocks is held one
    block at a time.  Tables in one call share the header and their
    columns' dtypes; a block's tables may differ in length.  Each column
    position is formatted once over every table of a block, in row ranges
    of :data:`CSV_CHUNK_ROWS` (so at most that many rows per file reach a
    formatting step), one ``repr`` per distinct value: values repeated
    within and across a block's tables (the models of one seed under
    paired draws share their loss, volatility and shock columns, row for
    row) cost one formatting between them.
    Logs one INFO line: files, rows, and the seconds and rows per second
    of formatting and writing the blocks (not of making them).
    """
    n_columns = header.count(",") + 1
    rows, seconds = 0, 0.0
    with contextlib.ExitStack() as files:
        handles = []
        for path in paths:
            files.enter_context(_writing(path))  # an error closing the file names it
            handles.append(files.enter_context(open(path, "w", newline="")))
            handles[-1].write(header + "\n")
        for tables in blocks:
            started = time.perf_counter()
            rows += _append_block(handles, tables, n_columns)
            seconds += time.perf_counter() - started
            del tables  # dropped before the next block is made
    log.info("wrote %d CSV files, %d rows in %.3f s (%.0f rows/s)",
             len(paths), rows, seconds, rows / seconds if seconds > 0.0 else 0.0)


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
