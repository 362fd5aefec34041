"""Span tracing of bergdpp's public functions, installed from outside the package.

Tracer.install() replaces each traced function by a wrapper on every module
attribute that binds it (`gram`, for instance, is bound in `quadrature`,
`energy`, `cli` and the package root) or on its class, and uninstall() puts
the originals back.  A wrapper records one span (name, start, end, parent,
job id) plus the work counts of COUNTERS.  Spans stay in memory until dump().
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
import sys
import time

PACKAGE = "bergdpp"

# (module, attribute path, span name) of every traced function.
TARGETS = (
    ("cli", "run", "cli.run"),
    ("spaces", "ModelSpace.section_matrix", "spaces.section_matrix"),
    ("quadrature", "build_grid", "quadrature.build_grid"),
    ("quadrature", "gram", "quadrature.gram"),
    ("quadrature", "weighted_gram_matrix", "quadrature.weighted_gram_matrix"),
    ("kernel", "reweighted_evaluator", "kernel.reweighted_evaluator"),
    ("kernel", "scaling_errors", "kernel.scaling_errors"),
    ("sampler", "sample_dpp", "sampler.sample_dpp"),
    ("sampler", "sample_weighted", "sampler.sample_weighted"),
    ("stats", "region_count_stats", "stats.region_count_stats"),
    ("stats", "pair_count_stats", "stats.pair_count_stats"),
    ("stats", "circular_law_distance", "stats.circular_law_distance"),
    ("stats", "measure_convergence", "stats.measure_convergence"),
    ("energy", "partition_function", "energy.partition_function"),
    ("energy", "lambda_report", "energy.lambda_report"),
    ("energy", "mabuchi", "energy.mabuchi"),
    ("energy", "monge_ampere_density", "energy.monge_ampere_density"),
    ("energy", "GramPath.logdet", "energy.GramPath.logdet"),
    ("energy", "GramPath.bergman_derivative", "energy.GramPath.bergman_derivative"),
    ("exprs", "WeightExpr.evaluate", "exprs.WeightExpr.evaluate"),
)
SPAN_NAMES = tuple(name for _, _, name in TARGETS)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _gram_counts(args, kwargs, result) -> dict:
    m, n = _arg(args, kwargs, 1, "grid").size, _arg(args, kwargs, 0, "space").rank
    # the complex (M x N)^T (M x N) product, and the M x N section matrix
    return {"nodes": m, "flops_computed": 8 * m * n * n, "bytes_computed": 16 * m * n}


def _sample_dpp_counts(args, kwargs, result) -> dict:
    n = result.points.shape[0]
    return {"points": n, "expected_proposals": n * sum(1.0 / j for j in range(1, n + 1))}


def _sample_weighted_counts(args, kwargs, result) -> dict:
    steps = _arg(args, kwargs, 1, "config").steps
    return {"steps": steps, "accepted": result.acceptance_rate * steps}


# span name -> counts read from the call's arguments and result
COUNTERS = {
    "spaces.section_matrix": lambda args, kwargs, result: {"rows": result.shape[0]},
    "quadrature.build_grid": lambda args, kwargs, result: {"nodes": result.size},
    "quadrature.gram": _gram_counts,
    "sampler.sample_dpp": _sample_dpp_counts,
    "sampler.sample_weighted": _sample_weighted_counts,
    "exprs.WeightExpr.evaluate": lambda args, kwargs, result: {"points": len(result)},
}


class Tracer:
    """Records spans of the TARGETS functions while installed."""

    def __init__(self):
        self.spans: list[tuple] = []   # (name, start, end, parent index, job, counts)
        self.job = None                # id of the job being run, set by the caller
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                counts = counter(args, kwargs, result) if counter and result is not None else None
                spans[index] = (name, start, end, parent, self.job, counts)

        return traced

    def install(self) -> None:
        modules = [
            mod for key, mod in list(sys.modules.items())
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        for module_name, path, name in TARGETS:
            owner = sys.modules[f"{PACKAGE}.{module_name}"]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original)
            bound_in = [owner] if classes else modules
            for holder in bound_in:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    def dump(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, job, counts in self.spans:
                row = {"name": name, "start": start, "end": end, "parent": parent, "job": job}
                row.update(counts or {})
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")


def layer_metrics(spans: list[tuple], first: int = 0) -> dict[str, float]:
    """Per-layer counts and self times of spans[first:], named as in BENCHMARK.json.

    Self time is a span's duration minus the durations of its direct children;
    `proposals` are the section_matrix rows evaluated directly under sample_dpp.
    """
    spans = spans[first:]
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= first:
            child_time[parent - first] += end - start
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
    totals: dict[str, float] = {}
    proposals = 0
    for i, (name, start, end, parent, _, counts) in enumerate(spans):
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += (end - start) - child_time[i]
        for key, value in (counts or {}).items():
            totals[f"{name}.{key}"] = totals.get(f"{name}.{key}", 0) + value
        if counts and name == "spaces.section_matrix" and parent >= first:
            if spans[parent - first][0] == "sampler.sample_dpp":
                proposals += counts["rows"]
    for key in (
        "spaces.section_matrix.rows",
        "quadrature.build_grid.nodes",
        "quadrature.gram.nodes",
        "quadrature.gram.flops_computed",
        "quadrature.gram.bytes_computed",
        "sampler.sample_dpp.points",
        "sampler.sample_weighted.steps",
        "exprs.WeightExpr.evaluate.points",
    ):
        out[key] = totals.get(key, 0)
    points, steps = out["sampler.sample_dpp.points"], out["sampler.sample_weighted.steps"]
    expected = totals.get("sampler.sample_dpp.expected_proposals", 0)
    out["sampler.sample_dpp.proposals"] = proposals
    # 1/H_N per draw when every candidate is counted; batching lowers the measured ratio
    out["sampler.sample_dpp.accept_ratio"] = points / proposals if proposals else 0.0
    out["sampler.sample_dpp.accept_ratio_expected"] = points / expected if expected else 0.0
    accepted = totals.get("sampler.sample_weighted.accepted", 0)
    out["sampler.sample_weighted.acceptance"] = accepted / steps if steps else 0.0
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Metric-wise median over passes."""
    return {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
