"""Report serialization: JSON and CSV with replay-exact float printing.

Every float round-trips bit-exactly, so a report can be replayed against
the engine without drift.  JSON values are what json.dumps writes: a
finite float in repr form, so it reads back as the same float, -0.0 and
7.0 included, and a non-finite float as Infinity, -Infinity or NaN, which
json.loads reads back.  CSV writes a float with 17 significant digits.
The CSV dialect is fixed and versioned: first line ``# delta-ineq v1``,
then the column header, then one row per evaluated bound.

Both are made piece by piece (json_pieces, csv_lines), so a report can be
written without its whole text in memory; json_dumps and rows_to_csv join
the same pieces into one string.
"""

from __future__ import annotations

import json

CSV_VERSION_LINE = "# delta-ineq v1"
CSV_COLUMNS = ("trial_id", "theorem", "variant", "scale_kind",
               "a", "b", "x", "alpha", "beta", "lhs", "rhs", "slack", "pass")


def fmt17(x: float) -> str:
    """17-significant-digit decimal form; round-trips binary64 exactly."""
    return f"{x:.17g}"


def json_pieces(obj):
    """The JSON text of a report, piece by piece, one item of its top two
    levels per line.

    A value two levels down (a check aggregate, a finding or failure
    witness, a bound row, a witness table) is written on its own line by
    json.dumps with no indent, which runs the C encoder; with an indent,
    json falls back to the pure-Python one.  A piece is one such value, a
    bracket, or a separator with the key that follows it, so a sink that
    takes the pieces one at a time never holds the whole text.  json.loads of the joined text gives what it gives for
    json.dumps(obj, indent=2).
    """
    return _laid_out(obj, 0)


def json_dumps(obj) -> str:
    """The JSON text of a report: the pieces of json_pieces, joined."""
    return "".join(json_pieces(obj))


def write_json(obj, fh) -> None:
    """Write the JSON text of a report to fh, one piece at a time."""
    fh.writelines(json_pieces(obj))


def _laid_out(obj, depth: int):
    if depth == 2 or not isinstance(obj, (dict, list, tuple)) or not obj:
        yield json.dumps(obj)
        return
    inner, outer = "\n" + "  " * (depth + 1), "\n" + "  " * depth
    sep = inner
    if isinstance(obj, dict):
        yield "{"
        for k, v in obj.items():
            # json.dumps({k: 0}) turns k into a string key as json.dumps(obj) does
            yield sep + json.dumps({k: 0})[1:-4] + ": "
            yield from _laid_out(v, depth + 1)
            sep = "," + inner
        yield outer + "}"
    else:
        yield "["
        for v in obj:
            yield sep
            yield from _laid_out(v, depth + 1)
            sep = "," + inner
        yield outer + "]"


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return fmt17(value)
    return str(value)


def csv_lines(rows: list[dict]):
    """Bound rows in the fixed v1 layout, line by line."""
    yield CSV_VERSION_LINE + "\n"
    yield ",".join(CSV_COLUMNS) + "\n"
    for row in rows:
        yield ",".join(_csv_cell(row[col]) for col in CSV_COLUMNS) + "\n"


def rows_to_csv(rows: list[dict]) -> str:
    """Bound rows in the fixed v1 layout: the lines of csv_lines, joined."""
    return "".join(csv_lines(rows))
