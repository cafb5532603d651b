"""Observability layer: run-scoped telemetry recorders and stream tools.

See :mod:`repro.obs.telemetry` for the recorder, the ``NULL`` disabled
singleton, and the JSONL load/validate/summarize helpers.
"""
