"""The benchmark's per-layer spans name attributes that exist.

``perfbench/tracing.py`` reports a span whose attribute is gone as
absent rather than failing, so a refactor that renames a traced
function would silently zero that layer in the benchmark.  This loads
the span table from that file, without installing the tracer, and
resolves every entry in the package.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_benchmark_span_resolves_in_the_package():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.SPANS
    missing = [
        name
        for name, module, attr in tracing.SPANS
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []
