"""Plain-text rendering: experiment tables and series, and every report
a CLI verb prints as text."""

from __future__ import annotations

from typing import Sequence

from repro.util.units import format_bytes, format_rate


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Render an aligned text table.

    >>> print(format_table(["n", "rate"], [[1, 2.5]]))
    n  rate
    -  ----
    1  2.50
    """
    cells = [[_fmt(value) for value in row] for row in rows]
    widths = [
        max(len(str(headers[col])), *(len(row[col]) for row in cells))
        if cells
        else len(str(headers[col]))
        for col in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}" if abs(value) < 100 else f"{value:.1f}"
    return str(value)


def format_report(data: dict) -> str:
    """Render a report dict (what a verb's ``--json`` prints) as text.

    A scalar, or a list of scalars, is a ``key: value`` line:

    >>> print(format_report({"id": 1, "tiers": ["SSD", "HDD"], "t": None}))
    id: 1
    tiers: SSD, HDD
    t: -

    a nested mapping is its key as a heading over its contents:

    >>> print(format_report({"chain": {"complete": True, "delay": 0.5}}))
    chain:
      complete: True
      delay: 0.500

    a list of flat records, or a mapping whose values are flat records
    (the key becomes the first column), is one table, and a short list
    or mapping inside a cell goes inline:

    >>> print(format_report({"tiers": {"SSD": {"n": 2, "w": ["a", "b"]}}}))
    tiers:
      tiers  n  w
      -----  -  ----
      SSD    2  a, b
    >>> print(format_report({"slos": [{"slo": "x", "burn": {"page": 1.5}}]}))
    slos:
      slo  burn
      ---  ---------
      x    page=1.50

    and a list of records that hold nested values is one indented block
    per record:

    >>> print(format_report({"requests": [{"id": 7, "segments": [{"s": 1}]}]}))
    requests:
      - id: 7
        segments:
          s
          -
          1
    """
    return "\n".join(_report_lines(data, ""))


def _report_lines(data: dict, indent: str) -> list[str]:
    lines = []
    for key, value in data.items():
        if not value or not isinstance(value, dict) and _one_line(value):
            lines.append(f"{indent}{key}: {_inline(value)}")
            continue
        lines.append(f"{indent}{key}:")
        rows = list(value.values()) if isinstance(value, dict) else value
        if all(
            isinstance(row, dict) and all(map(_one_line, row.values()))
            for row in rows
        ):
            columns = list(dict.fromkeys(c for row in rows for c in row))
            cells = [
                [_column_cell(c, row.get(c)) for c in columns] for row in rows
            ]
            if isinstance(value, dict):
                columns = [key, *columns]
                cells = [[name, *row] for name, row in zip(value, cells)]
            table = format_table(columns, cells).splitlines()
            lines += [f"{indent}  {line}".rstrip() for line in table]
        elif isinstance(value, dict):
            lines += _report_lines(value, indent + "  ")
        else:
            for item in value:
                block = (
                    _report_lines(item, indent + "    ")
                    if isinstance(item, dict) and item
                    else [indent + "    " + _inline(item)]
                )
                lines += [indent + "  - " + block[0].lstrip(), *block[1:]]
    return lines


def _column_cell(column: str, value: object) -> str:
    """A table cell in its column's unit: a byte column (``*capacity``,
    ``used``, ``remaining``, ``*_bytes``) through ``format_bytes``, a
    ``*_throughput`` column through ``format_rate``.

    >>> [_column_cell(c, v) for c, v in [("used", 0), ("total_capacity",
    ...     38654705664), ("avg_read_throughput", 3381447884.8), ("n", 2)]]
    ['0B', '36.00GB', '3224.8MB/s', '2']
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return _inline(value)
    if column in ("used", "remaining") or column.endswith(("capacity", "_bytes")):
        return format_bytes(value)
    if column.endswith("_throughput"):
        return format_rate(value)
    return _inline(value)


def _one_line(value: object) -> bool:
    """Whether ``value`` is a scalar, or a list or mapping of scalars."""
    items = value.values() if isinstance(value, dict) else (
        value if isinstance(value, list) else ()
    )
    return not any(isinstance(item, (dict, list)) for item in items)


def _inline(value: object) -> str:
    """A scalar, or a list or mapping of them, on one line."""
    if isinstance(value, dict):
        return ", ".join(f"{k}={_inline(v)}" for k, v in value.items()) or "-"
    if isinstance(value, list):
        return ", ".join(map(_inline, value)) or "-"
    return "-" if value is None else _cell(value)


def _cell(value: object) -> str:
    """A report cell: ``_fmt``, except that a float below 1 keeps three
    significant digits instead of rounding to ``0.00``.

    >>> [_cell(v) for v in (0.0032, 0.5, 0.0, 2.5, 3381447884.8)]
    ['0.00320', '0.500', '0.00', '2.50', '3381447884.8']
    """
    if isinstance(value, float) and 0 < abs(value) < 1:
        return f"{value:#.3g}"
    return _fmt(value)


def format_series(
    label: str, points: Sequence[tuple[float, float]], unit: str = "MB/s"
) -> str:
    """Render a (time, value) series on one line."""
    rendered = " ".join(f"{t:.0f}s:{v:.0f}" for t, v in points)
    return f"{label:24} [{unit}] {rendered}"
