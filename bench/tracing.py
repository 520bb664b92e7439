"""Per-layer spans and counts for a traced benchmark run.

The package is not modified: ``Tracer.installed()`` rebinds module
attributes to timing wrappers for the duration of a ``with`` block and puts
the originals back afterwards.  Each span records (name, start, end, parent
span index, op index); spans stay in memory until the run ends.  A layer's
self time is its span's duration minus the durations of its child spans
(calls are nested on one thread, so children never overlap).
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict

import numpy as np

from advbayes import certify, cli, conditions, reportio, solver
from advbayes.density import DistributionPair
from advbayes.intervals import IntervalSet


def _scan_counts(counts, args, scan):
    counts["conditions.candidates"] += len(scan.a_candidates) + len(scan.b_candidates)
    counts["conditions.truncated"] += int(scan.truncated)


def _enumerate_counts(counts, args, result):
    counts["solver.sets_enumerated"] += len(result[0])


def _discretize_counts(counts, args, atoms):
    counts["certify.atoms"] += len(atoms[0]) + len(atoms[1])


def _dual_counts(counts, args, cert):
    counts["certify.matches"] += len(cert.matching)
    counts["certify.dual_atoms"] += len(args[0]) + len(args[1])


def _dumps_counts(counts, args, text):
    counts["reportio.bytes"] += len(text.encode())


# (module, attribute, span name, counter fed from the call's result).  The
# solver's own names are wrapped where it looks them up (solver.adversarial_risk
# is the name the solver calls), so only calls made by the solve pipeline count.
SPANS = (
    (cli, "main", "cli.op", None),
    (solver, "solve", "solver.solve", None),
    (conditions, "solve_first_order", "conditions.scan", _scan_counts),
    (solver, "enumerate_candidates", "solver.enumerate", _enumerate_counts),
    (solver, "adversarial_risk", "risk.adversarial", None),
    (solver, "are_equivalent", "solver.equiv", None),
    (solver, "degenerate_report", "solver.degenerate", None),
    (solver, "check_monotonicity", "solver.monotonicity", None),
    (certify, "duality_gap", "certify.duality_gap", None),
    (certify, "primal_bruteforce", "certify.primal", None),
    (certify, "discretize", "certify.discretize", _discretize_counts),
    (certify, "dual_value", "certify.dual", _dual_counts),
    (reportio, "dumps", "reportio.serialize", _dumps_counts),
)

# (class, method, counter, amount per call); counted, never timed.
COUNTERS = (
    (DistributionPair, "pdf", "density.pdf_calls", lambda args: 1),
    (DistributionPair, "cdf_array", "density.cdf_array_points", lambda args: np.size(args[2])),
    (IntervalSet, "__init__", "intervals.sets_built", lambda args: 1),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple | None] = []  # (name, start, end, parent, op)
        self.counts: Counter = Counter()
        self.op = -1  # index of the op in flight, set by the caller
        self._open: list[tuple[int, str]] = []  # (span index, name), innermost last

    def _span(self, name, fn, count):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # reportio.dumps recurses through its module name: only the
            # outermost call of a name opens a span.
            if open_ and open_[-1][1] == name:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = open_[-1][0] if open_ else -1
            open_.append((idx, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                open_.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def _counter(self, key, fn, amount):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += amount(args)
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Rebind the traced names for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, count in SPANS:
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, self._span(name, getattr(owner, attr), count))
            for owner, attr, key, amount in COUNTERS:
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, self._counter(key, getattr(owner, attr), amount))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def totals(self) -> tuple[dict[str, float], dict[str, float], Counter]:
        """Total duration, total self time and call count per span name."""
        child = defaultdict(float)
        for span in self.spans:
            name, start, end, parent, _ = span
            if parent >= 0:
                child[parent] += end - start
        total, self_time, calls = defaultdict(float), defaultdict(float), Counter()
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start
            self_time[name] += end - start - child[idx]
            calls[name] += 1
        return total, self_time, calls

    def layer_metrics(self, n_ops: int, scale: float) -> dict[str, tuple]:
        """Per-op layer times and counts: name -> (value, unit, raw value).

        Times are multiplied by ``scale`` (see run.py); the raw value is
        given for times and None for counts.
        """
        total, self_time, calls = self.totals()
        c = self.counts
        per_op = max(n_ops, 1)

        def secs(seconds, unit="s/op", per=per_op):
            return scale * seconds / per, unit, seconds / per

        def count(n):
            return n / per_op, "count/op", None

        return {
            "cli.op_s": secs(total["cli.op"]),
            "cli.self_s": secs(self_time["cli.op"]),
            "density.pdf_calls": count(c["density.pdf_calls"]),
            "density.cdf_array_points": count(c["density.cdf_array_points"]),
            "conditions.scan_s": secs(total["conditions.scan"]),
            "conditions.scan_calls": count(calls["conditions.scan"]),
            "conditions.candidates": count(c["conditions.candidates"]),
            "conditions.truncated": count(c["conditions.truncated"]),
            "solver.solve_s": secs(total["solver.solve"]),
            "solver.self_s": secs(self_time["solver.solve"]),
            "solver.enumerate_s": secs(total["solver.enumerate"]),
            "solver.sets_enumerated": count(c["solver.sets_enumerated"]),
            "solver.equiv_s": secs(total["solver.equiv"]),
            "solver.equiv_calls": count(calls["solver.equiv"]),
            "solver.degenerate_s": secs(total["solver.degenerate"]),
            "solver.degenerate_calls": count(calls["solver.degenerate"]),
            "solver.monotonicity_s": secs(total["solver.monotonicity"]),
            "risk.adversarial_s": secs(total["risk.adversarial"]),
            "risk.adversarial_calls": count(calls["risk.adversarial"]),
            "risk.us_per_call": secs(1e6 * total["risk.adversarial"], "us",
                                     max(calls["risk.adversarial"], 1)),
            "intervals.sets_built": count(c["intervals.sets_built"]),
            "certify.duality_gap_s": secs(total["certify.duality_gap"]),
            "certify.primal_s": secs(total["certify.primal"]),
            "certify.discretize_s": secs(total["certify.discretize"]),
            "certify.dual_s": secs(total["certify.dual"]),
            "certify.atoms": count(c["certify.atoms"]),
            "certify.matches": count(c["certify.matches"]),
            "certify.dual_ns_per_atom": secs(1e9 * total["certify.dual"], "ns",
                                             max(c["certify.dual_atoms"], 1)),
            "reportio.serialize_s": secs(total["reportio.serialize"]),
            "reportio.bytes": (c["reportio.bytes"] / per_op, "bytes/op", None),
        }

    def dump(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "counts": dict(self.counts),
        }
