"""``parse_pipeline(text).apply(spec)``, kept only for the benchmark
harness (``perfbench/workloads.py``), which spells a tuned serving
engine this way.  Everything else reads a pipeline string with
:meth:`repro.serve.tuning.EngineTuning.parse`."""

from types import SimpleNamespace

from ..serve.tuning import EngineTuning


def parse_pipeline(text: str) -> SimpleNamespace:
    """An object whose ``apply(spec)`` returns ``(spec,
    EngineTuning.parse(text))``."""
    tuning = EngineTuning.parse(text)
    return SimpleNamespace(apply=lambda spec: (spec, tuning))
