"""``paper_reference.json``: the frozen points behind ``paper_gap_pct``."""

from __future__ import annotations

import json
import math
import os
from typing import Any

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "paper_reference.json")


def _lookup(tree: Any, path: str) -> float:
    node = tree
    for key in path.strip().split("."):
        node = node[key]
    return float(node)


def _evaluate(expression: str, ours: dict) -> float:
    numerator, _, denominator = expression.partition(" / ")
    value = _lookup(ours, numerator)
    return value / _lookup(ours, denominator) if denominator else value


def evaluate_reference(ours: dict) -> list[dict]:
    """Each reference point with our value and the absolute % gap."""
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        points = json.load(handle)["points"]
    evaluated = []
    for point in points:
        try:
            value = _evaluate(point["ours"], ours)
            gap = abs(value - point["paper"]) / abs(point["paper"]) * 100.0
        except (KeyError, TypeError, ZeroDivisionError, ValueError):
            value, gap = math.nan, math.nan
        evaluated.append({"id": point["id"], "paper": point["paper"], "ours": value, "gap_pct": gap})
    return evaluated
