"""Every function the benchmark's span tracer wraps (`bench/spans.py`,
`TRACED`) exists in the package, so a refactor that renames or drops one
fails here rather than only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("csdepth_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_name_resolves():
    missing = []
    for module_name, qualname in _traced():
        owner = importlib.import_module(f"csdepth.{module_name}")
        *classes, name = qualname.split(".")
        for cls_name in classes:
            owner = getattr(owner, cls_name, None)
        # the tracer wraps methods in the class's own namespace
        found = owner is not None and (vars(owner).get(name) if classes
                                       else getattr(owner, name, None))
        if not callable(found):
            missing.append(f"{module_name}.{qualname}")
    assert not missing, f"traced by bench/spans.py but not in the package: {missing}"
