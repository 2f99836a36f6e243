"""The README's Library use example runs as written."""

import os
import re
import subprocess
import sys

import pytest

from reserve_rl.synthetic import SyntheticSpec, make_synthetic_triangle
from reserve_rl.triangles import write_triangle_csv

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def library_example() -> str:
    with open(os.path.join(ROOT, "README.md")) as handle:
        readme = handle.read()
    section = readme[readme.index("## Library use"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


@pytest.mark.slow
def test_library_use_example_runs(tmp_path):
    """Run as a script of its own, as a user runs it, with two workers."""
    triangle = tmp_path / "triangle.csv"
    write_triangle_csv(make_synthetic_triangle(SyntheticSpec(), seed=0), str(triangle))
    code = library_example()
    assert '"data/triangle.csv"' in code
    script = tmp_path / "example.py"
    script.write_text(code.replace('"data/triangle.csv"', repr(str(triangle))))
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [f"seed {s}: 80 updates" for s in (1, 2, 3)]
