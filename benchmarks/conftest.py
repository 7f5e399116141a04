"""Shared configuration for ``bench_flows_scale.py`` and ``bench_table3_namespace.py``.

Both run at a reduced scale so they complete in seconds; set
``OCTOPUS_BENCH_SCALE=1.0`` in the environment for the full sizes. Each
prints what it measured — run pytest with ``-s`` to see it inline.
"""

import os

import pytest


@pytest.fixture(scope="session")
def bench_scale() -> float:
    return float(os.environ.get("OCTOPUS_BENCH_SCALE", "0.2"))
