"""Report serialization: JSON and CSV with replay-exact float printing.

Every float round-trips bit-exactly, so a report can be replayed against
the engine without drift.  JSON values are what json.dumps writes: a
finite float in repr form, so it reads back as the same float, -0.0 and
7.0 included, and a non-finite float as Infinity, -Infinity or NaN, which
json.loads reads back.  CSV writes a float with 17 significant digits.
The CSV dialect is fixed and versioned: first line ``# delta-ineq v1``,
then the column header, then one row per evaluated bound.
"""

from __future__ import annotations

import json

CSV_VERSION_LINE = "# delta-ineq v1"
CSV_COLUMNS = ("trial_id", "theorem", "variant", "scale_kind",
               "a", "b", "x", "alpha", "beta", "lhs", "rhs", "slack", "pass")


def fmt17(x: float) -> str:
    """17-significant-digit decimal form; round-trips binary64 exactly."""
    return f"{x:.17g}"


def json_dumps(obj) -> str:
    """JSON text of a report, one item of its top two levels per line.

    A value two levels down (a check aggregate, a finding or failure
    witness, a bound row, a witness table) is written on its own line by
    json.dumps with no indent, which runs the C encoder; with an indent,
    json falls back to the pure-Python one.  json.loads of the text gives
    what it gives for json.dumps(obj, indent=2).
    """
    return _laid_out(obj, 0)


def _laid_out(obj, depth: int) -> str:
    if depth == 2 or not isinstance(obj, (dict, list, tuple)) or not obj:
        return json.dumps(obj)
    inner, outer = "\n" + "  " * (depth + 1), "\n" + "  " * depth
    if isinstance(obj, dict):
        # json.dumps({k: 0}) turns k into a string key as json.dumps(obj) does
        items = [json.dumps({k: 0})[1:-4] + ": " + _laid_out(v, depth + 1)
                 for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + outer + "}"
    items = [_laid_out(v, depth + 1) for v in obj]
    return "[" + inner + ("," + inner).join(items) + outer + "]"


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
