"""Per-layer metrics from one traced pass, and checks that the tracing is complete.

Self time of a span is its duration minus the part of it that its child
spans cover (children may overlap when run_kernel uses a thread pool, so
the covered part is the union of their intervals).  A layer's self time is
the sum of the self times of its spans.
"""

from __future__ import annotations

from collections import defaultdict

from palmlab.rng import CHUNK
from tracer import ATTR, AMS_ENTRIES, COUNT, END, ESTIMATORS, ID, NAME, PARENT, START
from workloads import ALL_IDS

LAYERS = ("cli", "identities", "estimate", "ams", "events", "pattern", "models")
SAMPLED_MODELS = ("poisson_ts", "renewal_ts", "renewal_es", "example84", "pstar")
CLI_COMMANDS = ("palm", "ams", "suite", "example84")
ENTRY_SPANS = frozenset(
    [f"estimate.{n}" for n in ESTIMATORS] + [f"ams.{n}" for n in AMS_ENTRIES]
)


def _union(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class SpanTree:
    def __init__(self, spans: list[list]):
        self.spans = spans
        self.by_id = {rec[ID]: rec for rec in spans}
        self.children = defaultdict(list)
        for rec in spans:
            self.children[rec[PARENT]].append(rec)

    def duration(self, rec) -> float:
        return rec[END] - rec[START]

    def covered(self, rec) -> float:
        kids = self.children.get(rec[ID], ())
        return _union(((k[START], k[END]) for k in kids), rec[START], rec[END])

    def self_time(self, rec) -> float:
        return self.duration(rec) - self.covered(rec)

    def parent_name(self, rec) -> str:
        parent = self.by_id.get(rec[PARENT])
        return parent[NAME] if parent is not None else ""

    def has_ancestor(self, rec, name: str) -> bool:
        parent = self.by_id.get(rec[PARENT])
        while parent is not None:
            if parent[NAME] == name:
                return True
            parent = self.by_id.get(parent[PARENT])
        return False

    def named(self, name: str) -> list[list]:
        return [rec for rec in self.spans if rec[NAME] == name]

    def outermost(self, name: str) -> list[list]:
        """Spans of `name` not nested in a span of the same name."""
        return [rec for rec in self.named(name) if self.parent_name(rec) != name]


def _kernel_chunks(rec) -> tuple[int, int]:
    threads, budget = (int(v) for v in rec[ATTR].split("/"))
    chunks = (budget + CHUNK - 1) // CHUNK
    return chunks, (threads if threads > 1 and chunks > 1 else 1)


def layer_metrics(spans: list[list], traced_wall_s: float) -> tuple[dict, list[str]]:
    """(metrics name -> (value, unit), completeness problems)."""
    tree = SpanTree(spans)
    m: dict[str, tuple[float, str]] = {}

    def total(recs, fn=tree.duration) -> float:
        return float(sum(fn(r) for r in recs))

    self_by_layer = defaultdict(float)
    for rec in spans:
        self_by_layer[rec[NAME].split(".", 1)[0]] += tree.self_time(rec)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_by_layer[layer], "s")

    # models: chunk-level samples are the direct children of run_kernel
    chunk_samples = [r for r in tree.named("models.sample_batch")
                     if tree.parent_name(r) == "estimate.run_kernel"]
    chunks = len(chunk_samples)
    for model in SAMPLED_MODELS:
        recs = [r for r in chunk_samples if r[ATTR] == model]
        m[f"models.sample_ms_per_chunk.{model}"] = (
            1e3 * total(recs) / len(recs) if recs else 0.0, "ms")
    m["models.chunks"] = (chunks, "count")
    m["models.points_sampled"] = (sum(r[COUNT] for r in chunk_samples), "count")

    # identities
    checks = tree.named("identities.check")
    for ident in ALL_IDS:
        m[f"identities.{ident}_s"] = (total(r for r in checks if r[ATTR] == ident), "s")
    kernels = tree.named("estimate.run_kernel")
    checked_chunks = sum(_kernel_chunks(r)[0] for r in kernels
                         if tree.has_ancestor(r, "identities.check"))
    m["identities.chunks_per_check"] = (checked_chunks / len(checks) if checks else 0.0,
                                        "count")

    # pattern
    m["pattern.rows_materialized"] = (len(tree.named("pattern.pattern")), "count")
    m["pattern.global_sorted_ms_per_chunk"] = (
        1e3 * total(tree.named("pattern.global_sorted")) / chunks if chunks else 0.0, "ms")

    # events
    m["events.context_s"] = (total(tree.named("events.context"), tree.self_time), "s")
    m["events.at_events_s"] = (total(tree.named("events.at_events"), tree.self_time), "s")
    m["events.at_events_evals"] = (
        sum(r[COUNT] for r in tree.outermost("events.at_events")), "count")
    m["events.at_origin_s"] = (total(tree.named("events.at_origin"), tree.self_time), "s")
    m["events.segments_s"] = (total(tree.named("events.segments"), tree.self_time), "s")
    m["events.segments_calls"] = (len(tree.outermost("events.segments")), "count")

    # estimate
    reps = sum(int(r[ATTR].split("/")[1]) for r in kernels)
    busy = sum(total(tree.children.get(r[ID], ())) for r in kernels)
    capacity = sum(_kernel_chunks(r)[1] * tree.duration(r) for r in kernels)
    m["estimate.run_kernel_s"] = (total(kernels), "s")
    m["estimate.kernel_self_s"] = (total(tree.named("estimate.kernel"), tree.self_time), "s")
    m["estimate.reduce_s"] = (total(kernels, tree.self_time), "s")
    m["estimate.reps_sampled"] = (reps, "count")
    m["estimate.reject_share"] = (sum(r[COUNT] for r in kernels) / reps if reps else 0.0,
                                  "ratio")
    m["estimate.parallel_efficiency"] = (busy / capacity if capacity else 0.0, "ratio")

    # ams
    m["ams.cesaro_event_s"] = (total(tree.named("ams.cesaro_event")), "s")
    m["ams.cesaro_time_s"] = (total(tree.named("ams.cesaro_time")), "s")
    m["ams.convert_s"] = (total(tree.named("ams.convert_es_to_ts"))
                          + total(tree.named("ams.convert_ts_to_es")), "s")

    # cli: the benchmark's command spans are the roots
    roots = [r for r in spans if r[PARENT] == -1]
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}_s"] = (total(tree.named(f"cli.{cmd}")), "s")

    covered = sum(tree.covered(r) for r in roots)
    m["trace.coverage"] = (covered / traced_wall_s if traced_wall_s > 0 else 0.0, "ratio")
    m["trace.spans"] = (len(spans), "count")
    return m, completeness_problems(tree, roots)


def completeness_problems(tree: SpanTree, roots: list[list]) -> list[str]:
    """Structural evidence that every layer boundary was wrapped."""
    problems = []
    for rec in roots:
        if not rec[NAME].startswith("cli."):
            problems.append(f"root span {rec[NAME]} outside any command")
    for rec in tree.named("estimate.run_kernel"):
        parent = tree.parent_name(rec)
        if parent not in ENTRY_SPANS:
            problems.append(f"run_kernel called from {parent or 'nothing'}")
        if parent and tree.has_ancestor(rec, "cli.suite") and not tree.has_ancestor(
                rec, "identities.check"):
            problems.append("suite run_kernel outside an identity check")
        chunks = _kernel_chunks(rec)[0]
        kids = tree.children.get(rec[ID], ())
        n_kernel = sum(1 for k in kids if k[NAME] == "estimate.kernel")
        n_sample = sum(1 for k in kids if k[NAME] == "models.sample_batch")
        if n_kernel != chunks or n_sample != chunks:
            problems.append(f"run_kernel with {chunks} chunks has {n_kernel} kernel and "
                            f"{n_sample} sampler spans")
    return sorted(set(problems))
