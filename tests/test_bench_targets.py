"""The benchmark's tracer names only functions the package defines.

A traced benchmark round (``bench/run.py --trace 1``) wraps each
``(module, attr)`` of ``TARGETS`` in ``bench/spans.py`` by name, a
``Class.method`` from the class ``__dict__``; a target the package no longer
defines breaks that round, and no other test would notice.  This test reads
the file and writes nothing under ``bench/``.
"""

import importlib
import types
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans() -> types.ModuleType:
    """``bench/spans.py`` run from its source text, so that no bytecode cache
    is written beside it."""
    module = types.ModuleType("spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), vars(module))
    return module


def test_every_tracer_target_resolves():
    spans = load_spans()
    missing = []
    for label, targets in spans.TARGETS.items():
        for module_name, attr in targets:
            module = importlib.import_module(f"{spans.PACKAGE}.{module_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name, None)
                found = cls is not None and method in vars(cls)
            else:
                found = callable(getattr(module, attr, None))
            if not found:
                missing.append((label, module_name, attr))
    assert missing == []
