"""Deterministic report serialization.

JSON output sorts every object's keys and prints floats with 17 significant
digits, so identical runs produce byte-identical files.  Interval sets
serialize as rows ``[lo, hi, lo_closed, hi_closed]`` with "-inf"/"inf"
sentinels.  Strings and keys are escaped as JSON requires: a backslash, a
double quote and every control character U+0000-U+001F (``\\n``, ``\\t`` and
the other short forms where JSON has one, ``\\u00XX`` otherwise); any other
character is written as it is.
"""

from __future__ import annotations

import csv
import math
from json.encoder import encode_basestring as _quote
from typing import Any, Iterable

from .certify import DualCertificate, GapReport
from .conditions import FirstOrderScan
from .intervals import IntervalSet
from .solver import EquivalenceClass, SolveReport


def fmt_float(x: float) -> str:
    if math.isnan(x):
        raise ValueError("NaN is not serializable")
    if x == math.inf:
        return '"inf"'
    if x == -math.inf:
        return '"-inf"'
    return format(float(x), ".17g")


def dumps(obj: Any, indent: int = 0) -> str:
    """``obj`` as indented JSON text; ``indent`` spaces before its closing
    bracket.

    One pass appends the pieces of text to one list and joins it once.
    Each object's pieces are joined into one string as soon as the object
    is complete, so the list holds the pieces of the objects still open and
    one string per finished object."""
    parts: list[str] = []
    _write(parts, obj, " " * indent)
    return "".join(parts)


def _kind(obj: Any) -> type:
    """The JSON kind of an instance of a subclass, such as ``numpy.float64``
    (a float); bool is tested before int, as bool subclasses int."""
    for kind in (bool, int, float, str, dict):
        if isinstance(obj, kind):
            return kind
    if isinstance(obj, (list, tuple)):
        return list
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write(parts: list[str], obj: Any, pad: str, kind: type | None = None) -> None:
    """Append ``obj``'s text to ``parts``, dispatching on its exact type, or
    on ``kind`` (``_kind``'s) for an instance of a subclass."""
    write = parts.append
    if kind is None:
        kind = type(obj)
        if kind is float and obj - obj == 0.0:  # finite: x - x is nan for nan and +-inf
            write(format(obj, ".17g"))
            return
    if kind is float:
        write(fmt_float(obj))
    elif kind is str:
        write(_quote(obj))
    elif kind is dict:
        if not obj:
            write("{}")
            return
        mark = len(parts)
        child = pad + "  "
        sep = "{\n"
        for key in sorted(obj):
            write(f"{sep}{child}{_quote(f'{key}')}: ")
            _write(parts, obj[key], child)
            sep = ",\n"
        write(f"\n{pad}}}")
        parts[mark:] = ["".join(parts[mark:])]
    elif kind is list or kind is tuple:
        if not obj:
            write("[]")
            return
        child = pad + "  "
        sep = "[\n"
        for item in obj:
            write(sep + child)
            _write(parts, item, child)
            sep = ",\n"
        write(f"\n{pad}]")
    elif kind is bool:
        write("true" if obj else "false")
    elif kind is int:
        write(str(obj))
    elif obj is None:
        write("null")
    else:
        _write(parts, obj, pad, _kind(obj))


def class_to_dict(c: EquivalenceClass) -> dict:
    d = c.degenerate
    return {
        "representative": c.representative.to_rows(),
        "members": [
            {"set": m.set.to_rows(), "risk": m.risk.to_dict(),
             "second_order_clean": m.second_order_clean}
            for m in c.members
        ],
        "degenerate": {
            "assumptions_met": d.assumptions_met,
            "maximal_degenerate": d.maximal_degenerate.to_rows(),
            "detected_intervals": IntervalSet(d.detected_intervals).to_rows(),
        },
    }


def scan_to_dict(scan: FirstOrderScan | None) -> dict | None:
    if scan is None:
        return None
    return {
        "a_candidates": [c.to_dict() for c in scan.a_candidates],
        "b_candidates": [c.to_dict() for c in scan.b_candidates],
        "window": [scan.window.lo, scan.window.hi],
        "window_widened": scan.window_widened,
    }


def solve_report_to_dict(r: SolveReport) -> dict:
    return {
        "epsilon": r.epsilon,
        "min_risk": r.min_risk,
        "unique_up_to_degeneracy": r.unique_up_to_degeneracy,
        "classes": [class_to_dict(c) for c in r.classes],
        "first_order": scan_to_dict(r.first_order),
        "plateau_checks": [
            {"kind": p.kind, "plateau": list(p.plateau), "verified": p.verified}
            for p in r.plateau_checks
        ],
        "warnings": r.warnings,
    }


def certificate_to_dict(c: DualCertificate) -> dict:
    return {
        "dual_value": c.dual_value,
        "pairing_radius": c.pairing_radius,
        "n_pairs": c.n_pairs,
    }


def gap_to_dict(g: GapReport) -> dict:
    return {
        "primal": g.primal,
        "gap": g.gap,
        "argmin": g.argmin.to_rows(),
        "grid_h": g.grid_h,
        "max_k": g.max_k,
        "certificate": certificate_to_dict(g.certificate),
    }


def representative_string(s: IntervalSet) -> str:
    if s.is_empty:
        return "empty"
    parts = []
    for iv in s.intervals:
        lo = "-inf" if math.isinf(iv.lo) else format(iv.lo, ".12g")
        hi = "inf" if math.isinf(iv.hi) else format(iv.hi, ".12g")
        parts.append(f"({lo},{hi})")
    return "u".join(parts)


SWEEP_COLUMNS = [
    "epsilon",
    "min_risk",
    "n_classes",
    "comp_classifier",
    "comp_complement",
    "unique_up_to_degeneracy",
    "representative",
    "monotonic_vs_prev",
]

SOLVE_COLUMNS = [
    "epsilon",
    "min_risk",
    "n_classes",
    "unique_up_to_degeneracy",
    "representative",
]


def report_row(r: SolveReport) -> dict:
    """The CSV columns that a solve row and a sweep row share, by name."""
    return {
        "epsilon": fmt_float(r.epsilon),
        "min_risk": fmt_float(r.min_risk),
        "n_classes": len(r.classes),
        "unique_up_to_degeneracy": "true" if r.unique_up_to_degeneracy else "false",
        "representative": representative_string(r.classes[0].representative),
    }


def write_csv(path: str, columns: list[str], rows: Iterable[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row[c] for c in columns])
