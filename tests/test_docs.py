"""DESIGN.md, README.md and docs/API.md name only things that exist."""

import pkgutil
import re
from pathlib import Path

import pytest

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
