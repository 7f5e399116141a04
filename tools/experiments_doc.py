#!/usr/bin/env python3
"""Check, or rewrite, the generated blocks of EXPERIMENTS.md.

Each deterministic experiment has one fenced block in EXPERIMENTS.md:
the command on its first line, then what that command prints, verbatim.

    python tools/experiments_doc.py           # unified diff and exit 1 if stale
    python tools/experiments_doc.py --write   # regenerate the blocks in place

Table 3 is wall-clock, so its table is hand-entered and not checked here.
"""

import difflib
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DOC = ROOT / "EXPERIMENTS.md"

#: The experiments whose output is a function of (scale, seed) alone.
NAMES = ("table2", "fig2", "fig3", "fig5", "fig6", "fig7", "ablation")

BLOCK = re.compile(
    r"```text\n(\$ python -m repro experiment (\w+) --scale 1\.0 --seed 0\n.*?)```\n",
    re.DOTALL,
)


def render(name: str, result=None) -> str:
    """What the block of experiment ``name`` holds, command line first.

    ``result`` is that experiment's ``run(scale=1.0, seed=0)`` when the
    caller already has it; it is run here otherwise.
    """
    if result is None:
        from repro.bench.experiments import ALL_EXPERIMENTS

        result = ALL_EXPERIMENTS[name].run(scale=1.0, seed=0)
    return f"$ python -m repro experiment {name} --scale 1.0 --seed 0\n{result.format()}\n"


def blocks(text: str) -> dict[str, str]:
    """The generated blocks of an EXPERIMENTS.md text, by experiment name."""
    return {match[2]: match[1] for match in BLOCK.finditer(text)}


def main(argv: list[str]) -> int:
    if argv not in ([], ["--write"]):
        print("usage: python tools/experiments_doc.py [--write]", file=sys.stderr)
        return 2
    text = DOC.read_text()
    missing = sorted(set(NAMES) - set(blocks(text)))
    if missing:
        print(f"{DOC.name}: no block for {', '.join(missing)}", file=sys.stderr)
        return 1
    fresh = BLOCK.sub(lambda match: f"```text\n{render(match[2])}```\n", text)
    if argv:
        DOC.write_text(fresh)
        return 0
    sides = (text.splitlines(keepends=True), fresh.splitlines(keepends=True))
    sys.stdout.writelines(difflib.unified_diff(*sides, "committed", "regenerated"))
    return int(fresh != text)


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))  # a checkout, installed or not
    sys.exit(main(sys.argv[1:]))
