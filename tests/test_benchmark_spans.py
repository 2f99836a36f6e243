"""The benchmark's traced mode (``perfbench/run.py --trace 1``) wraps named
call sites in the package.  ``Tracer.install`` looks each one up in its
owner's ``__dict__``, so a call site that moves or is renamed would crash
every traced run; this test fails first.  It reads ``perfbench/spans.py``
and changes nothing there.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(target, attr) for target, attr, _name, _note in spans.TARGETS]


@pytest.mark.parametrize("target, attr", _targets(), ids=lambda part: part)
def test_span_target_resolves_as_install_does(target, attr):
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    if class_name:
        owner = owner.__dict__[class_name]
    assert callable(owner.__dict__.get(attr)), f"{target} has no {attr} of its own"
