"""The benchmark tracer (bench/tracer.py) wraps spanlab functions by name;
every name it lists must resolve, or a traced benchmark run fails."""
import importlib
import json
import types
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    """bench/tracer.py as a module, run from its source so that nothing is
    written under bench/."""
    module = types.ModuleType("bench_tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("name", tracer.SPANS + tracer.COUNTS)
def test_traced_name_resolves(name):
    module, *path = name.split(".")
    owner = importlib.import_module(f"spanlab.{module}")
    for attr in path:
        owner = getattr(owner, attr)
    assert callable(owner)


def test_serializer_is_the_cli_json_module():
    """The tracer times report serialization by replacing cli.json."""
    assert tracer.SERIALIZE == "cli.serialize"
    assert importlib.import_module("spanlab.cli").json is json
