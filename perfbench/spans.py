"""In-memory spans and counters recorded around bmlselect's public calls.

The benchmark never edits the package.  It replaces module attributes
(for example ``bmlselect.selection.estimate_lambda``) with wrappers that
open a span, call the original and close the span, and puts the originals
back when the traced passes are over.  A span is ``[name, start, end,
parent]``; spans are kept in memory, summarised after each pass, and the
last pass's spans are written out when the traced run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import Counter, defaultdict

# Spans inside which a factorization counts toward a candidate's cost.
PER_CANDIDATE = frozenset(
    {"covariance.lambda", "model_core.gls_fit", "criteria.score", "criteria.dic"}
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.cell_n: dict[int, int] = {}  # replication span index -> n of its cell
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._counting = 0
        self._patches: list[tuple] = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def reset(self):
        self.spans.clear()
        self.cell_n.clear()
        self.counts.clear()

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr, name, after=None):
        """Record a span around every call of ``owner.attr``.

        ``after(tracer, span_index, args, result)`` runs once the call returned.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), 0.0, parent]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(self, idx, args, result)
            return result

        self._patch(owner, attr, wrapper)

    def count(self, owner, attr, key, inside):
        """Count entry calls of ``owner.attr`` made while the innermost span is in ``inside``.

        A call made from inside another counted call is not an entry call.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self._counting and self._stack and self.spans[self._stack[-1]][0] in inside:
                self.counts[key] += 1
            self._counting += 1
            try:
                return original(*args, **kwargs)
            finally:
                self._counting -= 1

        self._patch(owner, attr, wrapper)


def _after_table(tracer, idx, args, table):
    tracer.counts["candidates"] += len(table.rows)
    tracer.counts["candidate_criterion_pairs"] += len(table.rows) * len(table.criteria)
    for row in table.rows:
        for reason in row.excluded.values():
            tracer.counts["excluded: " + reason] += 1


def _after_lambda(tracer, idx, args, estimate):
    if estimate.at_boundary:
        tracer.counts["lambda_at_bound"] += 1


def _after_replication(tracer, idx, args, result):
    tracer.cell_n[idx] = args[1].n


def instrument(tracer: Tracer) -> None:
    """Wrap the calls each bmlselect module makes into the next layer down."""
    import numpy
    import scipy.linalg

    from bmlselect import cli, covariance, criteria, selection, simulation

    tracer.wrap(cli, "main", "cli.main")
    # Each module binds score_candidates under its own name.
    for owner in (cli, selection, simulation):
        tracer.wrap(owner, "score_candidates", "selection.score_candidates", after=_after_table)
    tracer.wrap(cli, "report_from_table", "selection.report")
    tracer.wrap(selection, "estimate_phi_full_model", "covariance.phi_profile")
    tracer.wrap(selection, "whiten", "model_core.whiten")
    tracer.wrap(selection, "estimate_lambda", "covariance.lambda", after=_after_lambda)
    tracer.wrap(selection, "gls_fit", "model_core.gls_fit")
    tracer.wrap(criteria, "score", "criteria.score")
    tracer.wrap(criteria, "dic", "criteria.dic")
    tracer.wrap(simulation, "_run_replication", "simulation.replication", after=_after_replication)
    tracer.wrap(simulation, "generate_dataset", "simulation.generate_dataset")
    tracer.count(covariance, "make_whitener", "phi_evals", {"covariance.phi_profile"})
    for owner, attr in (
        (numpy.linalg, "qr"),
        (numpy.linalg, "cholesky"),
        (numpy.linalg, "eigh"),
        (scipy.linalg, "qr"),
        (scipy.linalg, "cholesky"),
        (scipy.linalg, "cho_factor"),
        (scipy.linalg, "eigh"),
    ):
        tracer.count(owner, attr, "factorizations", PER_CANDIDATE)


def _ratio(num, den):
    return num / den if den else 0.0


def _replication_of(spans) -> dict[int, int]:
    """Map the index of each span inside a replication to that replication's span index."""
    rep_of = {}
    for i, (name, start, end, parent) in enumerate(spans):
        if name == "simulation.replication":
            rep_of[i] = i
        elif parent in rep_of:
            rep_of[i] = rep_of[parent]
    return rep_of


def write_spans(tracer: Tracer, path) -> None:
    """Write the recorded spans as JSON rows ``[id, name, start_ms, end_ms, parent, trace]``.

    Times are relative to the first span.  ``trace`` is the id of the
    replication span a span belongs to, shared by all spans of that
    replication, or -1 for spans of the pass outside any replication.
    """
    rep_of = _replication_of(tracer.spans)
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    rows = [
        [i, name, (start - t0) * 1e3, (end - t0) * 1e3, parent, rep_of.get(i, -1)]
        for i, (name, start, end, parent) in enumerate(tracer.spans)
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"spans": rows}, fh)


def summarize_pass(tracer: Tracer) -> tuple[dict, dict, dict]:
    """Layer metrics of one traced pass.

    Returns ``(values, exact, by_n)``: the per-layer metric values, the
    counts that must repeat exactly between passes, and per-replication
    layer milliseconds keyed by the cell's n.
    """
    ms = defaultdict(float)
    self_ms = defaultdict(float)
    calls = Counter()
    covered = defaultdict(float)
    for name, start, end, parent in tracer.spans:
        dur = (end - start) * 1e3
        ms[name] += dur
        calls[name] += 1
        if parent >= 0:
            covered[parent] += dur
    for i, (name, start, end, parent) in enumerate(tracer.spans):
        self_ms[name] += (end - start) * 1e3 - covered[i]

    reps = sorted((s[2] - s[1]) * 1e3 for s in tracer.spans if s[0] == "simulation.replication")
    if len(reps) >= 2:
        deciles = statistics.quantiles(reps, n=10, method="inclusive")
        rep_p50, rep_p90 = statistics.median(reps), deciles[8]
    else:
        rep_p50 = rep_p90 = reps[0] if reps else 0.0

    c = tracer.counts
    values = {
        "covariance.phi_profile.ms": ms["covariance.phi_profile"],
        "covariance.phi_profile.calls": calls["covariance.phi_profile"],
        "covariance.phi_profile.evals_per_call": _ratio(
            c["phi_evals"], calls["covariance.phi_profile"]
        ),
        "covariance.lambda.ms": ms["covariance.lambda"],
        "covariance.lambda.calls": calls["covariance.lambda"],
        "covariance.lambda.at_bound_frac": _ratio(
            c["lambda_at_bound"], calls["covariance.lambda"]
        ),
        "model_core.whiten.ms": ms["model_core.whiten"],
        "model_core.gls_fit.ms": ms["model_core.gls_fit"],
        "model_core.gls_fit.calls": calls["model_core.gls_fit"],
        "model_core.factorizations_per_candidate": _ratio(c["factorizations"], c["candidates"]),
        "criteria.score.ms": ms["criteria.score"],
        "criteria.score.calls": calls["criteria.score"],
        "criteria.dic.ms": ms["criteria.dic"],
        "selection.score_candidates.ms": ms["selection.score_candidates"],
        "selection.self_ms": self_ms["selection.score_candidates"],
        "selection.report.ms": ms["selection.report"],
        "selection.excluded_frac": _ratio(
            sum(v for k, v in c.items() if k.startswith("excluded: ")),
            c["candidate_criterion_pairs"],
        ),
        "simulation.generate_dataset.ms": ms["simulation.generate_dataset"],
        "simulation.replication_ms.p50": rep_p50,
        "simulation.replication_ms.p90": rep_p90,
        "cli.self_ms": self_ms["cli.main"],
    }
    exact = {name + ".calls": n for name, n in sorted(calls.items())}
    exact.update(sorted(c.items()))

    # Per-replication layer time by cell size, for comparison with quoted baselines.
    rep_of = _replication_of(tracer.spans)
    per_n = defaultdict(lambda: defaultdict(float))
    for i, span in enumerate(tracer.spans):
        if i in rep_of:
            per_n[tracer.cell_n[rep_of[i]]][span[0]] += (span[2] - span[1]) * 1e3
    reps_per_n = Counter(tracer.cell_n.values())
    by_n = {
        n: {name: total / reps_per_n[n] for name, total in layers.items()}
        for n, layers in per_n.items()
    }
    return values, exact, by_n
