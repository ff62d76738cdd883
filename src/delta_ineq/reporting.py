"""Report serialization: JSON and CSV with replay-exact float printing.

Every finite float is printed with 17 significant digits, enough for the
binary64 value to round-trip bit-exactly, so a report can be replayed
against the engine without drift; in JSON a non-finite float is Infinity,
-Infinity or NaN, which json.loads reads back.  The CSV dialect is fixed
and versioned: first line ``# delta-ineq v1``, then the column header, then
one row per evaluated bound.
"""

from __future__ import annotations

import json
import math

CSV_VERSION_LINE = "# delta-ineq v1"
CSV_COLUMNS = ("trial_id", "theorem", "variant", "scale_kind",
               "a", "b", "x", "alpha", "beta", "lhs", "rhs", "slack", "pass")


def fmt17(x: float) -> str:
    """17-significant-digit decimal form; round-trips binary64 exactly."""
    return f"{x:.17g}"


def _emit(obj, indent: int, level: int, out: list[str]) -> None:
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            out.append(pad_in)
            out.append(json.dumps(str(key)))
            out.append(": ")
            _emit(value, indent, level + 1, out)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, value in enumerate(obj):
            out.append(pad_in)
            _emit(value, indent, level + 1, out)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "]")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        # non-finite floats as json.dumps writes them, which json.loads reads
        out.append(fmt17(obj) if math.isfinite(obj) else json.dumps(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif obj is None:
        out.append("null")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def json_dumps(obj, indent: int = 2) -> str:
    """Like json.dumps but with 17-significant-digit finite floats;
    non-finite ones are Infinity, -Infinity and NaN, as in json.dumps."""
    out: list[str] = []
    _emit(obj, indent, 0, out)
    return "".join(out)


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return fmt17(value)
    return str(value)


def rows_to_csv(rows: list[dict]) -> str:
    """Bound rows in the fixed v1 layout."""
    lines = [CSV_VERSION_LINE, ",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_csv_cell(row[col]) for col in CSV_COLUMNS))
    return "\n".join(lines) + "\n"
