"""The artifact writer: one float rule, one JSON layout, one I/O error."""

import json
import logging
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import triangle_from_arrays

from reserve_rl import nets
from reserve_rl.artifacts import write_csv, write_csv_tables, write_json
from reserve_rl.baselines import bootstrap_chain_ladder
from reserve_rl.cli import _bootstrap_summary
from reserve_rl.config import RunConfig, build_manifest
from reserve_rl.errors import DataError
from reserve_rl.triangles import write_triangle_csv
from scalar_oracle import rowwise_write_csv

#: Floats whose text a value-based or rounding formatter could get wrong:
#: both zeros, NaNs with different payloads and signs, infinities,
#: subnormals, and the two ends of repr's switch to exponent notation.
SPECIAL_FLOATS = [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.225073858507201e-308,
                  1e16, 1e-05, 9999999999999998.0, 0.0001] + np.array(
    [0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001,
     0x7FFFFFFFFFFFFFFF], dtype=np.uint64).view(np.float64).tolist()
GROUP_HEADER = "n,x,y"


@st.composite
def table_groups(draw):
    """1-5 tables of an int64 and two float64 columns, 0-12 rows each.
    Column x draws from one pool shared by every table (the specials plus
    a few arbitrary floats), so values repeat within and across tables."""
    pool = SPECIAL_FLOATS + draw(st.lists(st.floats(width=64), max_size=6))
    tables = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        n = draw(st.integers(min_value=0, max_value=12))
        ints = draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n))
        xs = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
        ys = draw(st.lists(st.floats(width=64), min_size=n, max_size=n))
        tables.append([np.array(ints, dtype=np.int64), np.array(xs), np.array(ys)])
    return tables


def _group_bytes(tables, tmp_path):
    """(group writer, row-wise oracle) bytes of every table."""
    ours = [str(tmp_path / f"ours{i}.csv") for i in range(len(tables))]
    write_csv_tables(ours, GROUP_HEADER, tables)
    oracle = []
    for i, columns in enumerate(tables):
        path = str(tmp_path / f"oracle{i}.csv")
        rowwise_write_csv(path, GROUP_HEADER, columns)
        oracle.append(path)
    read = lambda path: open(path, "rb").read()  # noqa: E731
    return [read(p) for p in ours], [read(p) for p in oracle]


@given(tables=table_groups())
@example(tables=[[np.array([0, 1, 2]), np.array(SPECIAL_FLOATS[:3]), np.array([-0.0, 0.0, -0.0])],
          [np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0)],
          [np.array([7]), np.array(SPECIAL_FLOATS[-5:-4]), np.array([0.0])]])
@settings(max_examples=200, deadline=None)
def test_group_writer_matches_rowwise_oracle(tables, tmp_path_factory):
    ours, oracle = _group_bytes(tables, tmp_path_factory.mktemp("group"))
    assert ours == oracle


def test_group_writer_keeps_negative_zero_and_logs(tmp_path, caplog):
    """-0.0 and 0.0 share a column but not their text; one INFO line per
    call gives files, rows, seconds and rows per second."""
    tables = [[np.array([1, 2]), np.array([-0.0, 0.0]), np.array([0.0, -0.0])],
              [np.array([3]), np.array([0.0]), np.array([-0.0])]]
    with caplog.at_level(logging.INFO, logger="reserve_rl.artifacts"):
        ours, oracle = _group_bytes(tables, tmp_path)
    assert ours == oracle
    assert ours[0] == b"n,x,y\n1,-0.0,0.0\n2,0.0,-0.0\n"
    lines = [r.getMessage() for r in caplog.records if r.name == "reserve_rl.artifacts"]
    assert len(lines) == 1
    assert re.fullmatch(r"wrote 2 CSV files, 3 rows in \d+\.\d{3} s \(\d+ rows/s\)", lines[0])


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


def test_json_bytes_match_the_python_encoder(tmp_path, monkeypatch):
    """``write_json`` encodes in C; ``json.dump`` to a file runs the
    pure-Python encoder.  Both give the same bytes on a policy file, a
    manifest and a bootstrap summary."""
    written = {}

    def recording_write_json(path, doc):
        written[path] = doc
        write_json(path, doc)

    monkeypatch.setattr(nets, "write_json", recording_write_json)
    rng = np.random.default_rng(5)
    nets.save_networks(str(tmp_path / "policy.json"), nets.init_mlp((11, 16, 16, 5), rng, 0.01),
                       nets.init_mlp((11, 16, 16, 1), rng, 1.0), "ab" * 32, 3)
    tri = triangle_from_arrays([[100, 300, 310, 311], [100, 120, 400], [50, 60], [10]])
    write_triangle_csv(tri, str(tmp_path / "triangle.csv"))
    recording_write_json(str(tmp_path / "manifest.json"), build_manifest(
        "ingest", RunConfig(), {"triangle": str(tmp_path / "triangle.csv")}, ["a.csv"]))
    boot = bootstrap_chain_ladder(tri, 500, np.random.default_rng(3))
    recording_write_json(str(tmp_path / "bootstrap.json"), _bootstrap_summary(boot, 0.1 + 0.2))
    assert boot.n_retries > 0
    python_encoder = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
    assert len(written) == 3
    for path, doc in written.items():
        python_text = "".join(python_encoder.iterencode(doc)) + "\n"
        with open(path, "rb") as handle:
            assert handle.read() == python_text.encode()


def test_unencodable_json_leaves_no_file(tmp_path):
    path = tmp_path / "d.json"
    with pytest.raises(TypeError):
        write_json(str(path), {"a": np.int64(1)})
    assert not path.exists()


@pytest.mark.parametrize("write", [
    lambda path: write_csv(path, "a", [(1,)]),
    lambda path: write_json(path, {"a": 1}),
    lambda path: write_csv_tables([path], "a", [[np.array([1])]]),
])
def test_write_failure_is_a_data_error(tmp_path, write):
    with pytest.raises(DataError, match="cannot write .*missing_dir"):
        write(str(tmp_path / "missing_dir" / "f"))
    (tmp_path / "a_dir").mkdir()
    with pytest.raises(DataError, match="cannot write .*a_dir"):
        write(str(tmp_path / "a_dir"))
