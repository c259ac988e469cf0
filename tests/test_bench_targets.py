"""The benchmark's traced mode wraps package functions by name; they must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("modname,attr,span", tracing.TARGETS, ids=str)
def test_trace_target_resolves(modname, attr, span):
    # import_module, not getattr on the package: ``repblock.decompose`` as a
    # package attribute is the function, not the module
    owner = importlib.import_module(modname)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner), f"{modname}.{attr} is not callable"


def test_formats_module_has_parsers_and_writers():
    fmt = importlib.import_module(tracing.FORMATS_MODULE)
    names = [k for k, v in vars(fmt).items()
             if callable(v) and getattr(v, "__module__", None) == tracing.FORMATS_MODULE]
    assert any(k.startswith("parse_") for k in names)
    assert any(k.startswith("format_") for k in names)
