"""The artifact writer: one float rule, one JSON layout, one I/O error."""

import json

import pytest

from reserve_rl.artifacts import write_csv, write_json
from reserve_rl.errors import DataError, IoFailure


def test_csv_floats_round_trip(tmp_path):
    values = [0.1 + 0.2, 1e-300, 2.0**60, -0.0, 1 / 3]
    path = tmp_path / "t.csv"
    write_csv(str(path), "name,n,x", [("a", i, v) for i, v in enumerate(values)])
    lines = path.read_text().splitlines()
    assert lines[0] == "name,n,x"
    assert lines[1] == "a,0,0.30000000000000004"
    assert [float(line.split(",")[2]) for line in lines[1:]] == values
    # the same text as the repr f-strings the tables were written with
    assert lines[1:] == [f"a,{i},{v!r}" for i, v in enumerate(values)]


def test_json_layout(tmp_path):
    path = tmp_path / "d.json"
    doc = {"b": [1.5, 0.1 + 0.2], "a": {"z": 1, "y": None}}
    write_json(str(path), doc)
    assert path.read_bytes() == b'{"a":{"y":null,"z":1},"b":[1.5,0.30000000000000004]}\n'
    assert json.loads(path.read_text()) == doc


@pytest.mark.parametrize("write", [
    lambda path: write_csv(path, "a", [(1,)]),
    lambda path: write_json(path, {"a": 1}),
])
def test_write_failure_is_a_data_error(tmp_path, write):
    with pytest.raises(IoFailure) as info:
        write(str(tmp_path / "missing_dir" / "f"))
    assert isinstance(info.value, DataError)
    (tmp_path / "a_dir").mkdir()
    with pytest.raises(IoFailure):
        write(str(tmp_path / "a_dir"))
