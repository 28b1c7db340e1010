"""The benchmark tracer wraps alphax functions by (module, attribute) name.

A rename in alphax would break only traced benchmark runs, which tier-1 does
not exercise; these tests load bench/tracer.py (without running it) and check
that every name it wraps still resolves.
"""

import argparse
import importlib
import importlib.util
from pathlib import Path

from alphax import verify
from alphax.cli import build_parser

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_attribute_resolves():
    for module, attr, _ in _load_tracer().WRAPPED:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"


def test_verify_targets_are_the_theorem_table_and_lemmas():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    target = next(a for a in sub.choices["verify"]._actions if a.dest == "target")
    assert set(target.choices) == set(verify.THEOREMS) | {"lemmas"}
