"""Deterministic output formatting: the one CSV writer and the JSON renderer.

Floats are always rendered with the printf pattern ``%.17g`` so that
identical runs produce byte-identical files; 17 significant digits are
enough to round-trip any double.
"""

from __future__ import annotations

from fractions import Fraction


def format_float(value) -> str:
    return format(float(value), ".17g")


def write_csv(stream, columns, rows) -> None:
    """Header, then one line per row: a str cell as it is, None empty, others %.17g."""
    stream.write(",".join(columns) + "\n")
    for row in rows:
        stream.write(",".join([c if isinstance(c, str) else "" if c is None
                               else format_float(c) for c in row]) + "\n")


def render_json(obj, indent: int = 0) -> str:
    """Minimal JSON renderer with the fixed float format.

    Supports None, bools, ints, floats, Fractions, strings, lists and dicts
    (keys emitted in insertion order, which callers keep deterministic).
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, (float, Fraction)):
        return format_float(obj)
    if isinstance(obj, str):
        escaped = (
            obj.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n").replace("\t", "\\t")
        )
        return f'"{escaped}"'
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(inner + render_json(v, indent + 1) for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{inner}"{k}": {render_json(v, indent + 1)}' for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    raise TypeError(f"cannot render {type(obj).__name__} as JSON")
