"""DESIGN.md, README.md and docs/API.md name only things that exist, and
docs/OBSERVABILITY.md names every metric the catalog derives."""

import pkgutil
import re
from pathlib import Path

import pytest

from tests.test_catalog import derived_metrics

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("doc", ["DESIGN.md", "README.md", "docs/API.md"])
def test_every_backticked_name_and_path_exists(doc):
    spans = re.findall(r"`([^`\n]+)`", (ROOT / doc).read_text())
    for name in {n for span in spans for n in re.findall(r"\brepro(?:\.\w+)+", span)}:
        # Imports the longest module prefix, then getattr for the rest; a
        # name that does neither raises ImportError / AttributeError with it.
        pkgutil.resolve_name(name)
    for span in spans:
        if re.match(r"(benchmarks|tests|tools|examples)/", span):
            assert (ROOT / span.partition("::")[0]).exists(), span


def test_metric_catalog_names_each_derived_metric_with_its_record():
    """docs/OBSERVABILITY.md *Metric catalog* has a table row per
    derived metric that names the span or event it comes from."""
    text = (ROOT / "docs/OBSERVABILITY.md").read_text()
    section = text.split("## Metric catalog\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    for metric, sources in derived_metrics().items():
        (row,) = [r for r in rows if re.search(rf"`{metric}[`{{]", r)]
        for source in sources:
            assert f"`{source}`" in row, (metric, source)
