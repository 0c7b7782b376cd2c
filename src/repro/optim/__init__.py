"""Compatibility home of :func:`repro.optim.passes.parse_pipeline`,
which the benchmark harness still imports.  Mitigation pipelines are
:class:`repro.serve.tuning.EngineTuning` records; see
:meth:`~repro.serve.tuning.EngineTuning.parse`."""
