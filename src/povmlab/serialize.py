"""Deterministic emission of scenario results.

Byte-for-byte reproducibility is part of the output contract, so floats are
always printed with 17 significant digits, JSON keys are sorted, and lines
end with a bare newline regardless of platform.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import IoFailure, ValidationError
from .measurement import NO_DETECTION, Pmf

__all__ = ["label_str", "to_json_bytes", "pmf_to_csv_bytes", "histogram_to_csv_bytes", "emit"]


def label_str(label) -> str:
    """Canonical text form of an outcome label."""
    if label is NO_DETECTION:
        return "none"
    return str(label)


def _fmt_float(x: float) -> str:
    return f"{float(x):.17g}"


# what json.dumps(str) calls: ASCII output, non-ASCII as \uXXXX escapes
_quote = json.encoder.encode_basestring_ascii


def _write_json(value, pad: str, out: list) -> None:
    # the two commonest leaves first; bool is not a float, and no container
    # is a float or a str, so the order changes no output
    if isinstance(value, float):
        out.append(_fmt_float(value))
    elif isinstance(value, str):
        out.append(_quote(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        keys = sorted(value.keys())
        if any(not isinstance(k, str) for k in keys):
            raise ValidationError("JSON object keys must be strings")
        inner = pad + "  "
        lead, sep = "{\n" + inner, ",\n" + inner
        for k in keys:
            out.append(lead + _quote(k) + ": ")
            lead = sep
            _write_json(value[k], inner, out)
        out.append("\n" + pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        lead, sep = "[\n" + inner, ",\n" + inner
        for item in value:
            out.append(lead)
            lead = sep
            _write_json(item, inner, out)
        out.append("\n" + pad + "]")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif value is None:
        out.append("null")
    elif isinstance(value, int):
        out.append(str(value))
    else:
        raise ValidationError(f"cannot serialize {type(value).__name__} deterministically")


def to_json_bytes(payload: dict) -> bytes:
    out: list[str] = []
    _write_json(payload, "", out)
    out.append("\n")
    return "".join(out).encode("utf-8")


def pmf_to_csv_bytes(pmf: Pmf) -> bytes:
    """One ``bin,probability`` row per occupied outcome, declared order."""
    lines = ["bin,probability"]
    for x in pmf.outcomes:
        p = pmf[x]
        if p > 0.0:
            lines.append(f"{label_str(x)},{_fmt_float(p)}")
    if pmf.no_detection > 0.0:
        lines.append(f"none,{_fmt_float(pmf.no_detection)}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def histogram_to_csv_bytes(counts: dict) -> bytes:
    """One ``bin,count`` row per outcome with at least one hit.

    Rows are sorted by numeric bin where labels are numbers, with the
    no-detection row last, so equal histograms emit equal bytes.
    """

    def order(item):
        x = item[0]
        if x is NO_DETECTION:
            return (2, 0, "")
        if isinstance(x, (int, float)):
            return (0, x, "")
        return (1, 0, label_str(x))

    lines = ["bin,count"]
    for x, c in sorted(counts.items(), key=order):
        if c > 0:
            lines.append(f"{label_str(x)},{int(c)}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def emit(result, fmt: str = "json", path=None, histogram: bool = False) -> bytes:
    """Serialize a ScenarioResult and optionally write it out.

    ``fmt='json'`` emits the whole result.  ``fmt='csv'`` emits one table:
    the result's first pmf, or with ``histogram=True`` its first shot
    histogram.  ``pmf_to_csv_bytes`` and ``histogram_to_csv_bytes`` write
    any other one.
    """
    if fmt == "json":
        data = to_json_bytes(result.to_payload())
    elif fmt == "csv":
        if histogram:
            data = histogram_to_csv_bytes(result.histogram_named())
        else:
            data = pmf_to_csv_bytes(result.pmf_named())
    else:
        raise ValidationError(f"unknown format {fmt!r}")
    if path is not None:
        try:
            Path(path).write_bytes(data)
        except OSError as exc:
            raise IoFailure(f"cannot write {path}: {exc}") from exc
    return data
