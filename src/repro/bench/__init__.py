"""Experiment harness: deployment presets, runners, table formatting.

Each paper table/figure has a module under :mod:`repro.bench.experiments`
that regenerates it (``python -m repro experiment <name>``); EXPERIMENTS.md
records what each prints at full scale and ``tools/experiments_doc.py``
checks that record against the code.
"""

from repro.bench.deployments import build_deployment, DEPLOYMENTS

# The perf-regression gate lives in repro.bench.regression; it is not
# re-exported here so `python -m repro.bench.regression` stays free of
# the double-import RuntimeWarning.

__all__ = [
    "build_deployment",
    "DEPLOYMENTS",
]
