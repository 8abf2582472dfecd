"""The benchmark tracer finds its probe targets by name, so a renamed or
deleted function would only show up when a traced run fails."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for name, module, attr, *_ in tracer.FUNCTIONS:
        target = importlib.import_module(f"pptoggle.{module}")
        for piece in attr.split("."):
            target = getattr(target, piece, None)
        if not callable(target):
            missing.append(name)
    assert tracer.FUNCTIONS and not missing
