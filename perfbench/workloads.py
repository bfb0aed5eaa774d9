"""The four benchmark workloads.

Each workload returns a :class:`Outcome`: end-to-end metrics measured
with tracing off, per-layer metrics from a traced pass, the deterministic
counters it gates, and the correctness-check failures it found.

Why these four (see also ``BENCHMARK.json``):

* ``corpus-node2vec`` — the paper's headline job, exactly as
  ``repro walk --output`` runs it: graph build, alias tables, node2vec
  with |V| walkers of length 80, corpus streamed to a file.  Exercises
  graph, sampling, algorithms, core and path output; sends no messages
  and uses no service.
* ``cluster-node2vec`` — the distributed engine on 8 simulated nodes
  under a seeded degraded fault plan.  The only workload with the
  query/migrate message exchange, the cost model, retransmission and
  straggler handling; records no paths.
* ``serve-static`` — an open-loop request stream against a
  ``WalkService`` over a static graph: every request rebuilds sampler
  tables and every sharded request forks workers that rebuild them.
* ``serve-churn`` — the same stream against a ``DynamicGraph`` while a
  writer commits update batches: tables and Q(v) bounds are maintained
  per epoch, so requests are bound by the walk and path recording.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import os
import resource
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from perfbench import inputs, speed
from perfbench.probe import LayeredTracer, LayerProbe, install_layers, layer_table

from repro.algorithms import DeepWalk, MetaPathWalk, Node2Vec
from repro.cluster import DistributedWalkEngine
from repro.cluster.cost_model import NodeWork
from repro.cluster.faults import FaultPlan, FlakyLink, MessageFaults, NodeSlowdown
from repro.core.config import WalkConfig
from repro.core.engine import WalkEngine
from repro.errors import ClusterError, ServiceError
from repro.graph import builder
from repro.graph.dynamic import DynamicGraph, EdgeUpdate, UpdateBatch
from repro.service import WalkRequest, WalkService

WALK_LENGTH = 80
NODE2VEC_P, NODE2VEC_Q = 2.0, 0.5
MIN_JOBS = 3

# Small graphs, whose jobs run in a few tenths of a second: a 50 s window
# then holds about 200 jobs, so twenty lie above the job-latency 90th
# percentile, and each job lies between two reference-kernel samples
# taken a few tenths of a second apart (perfbench.speed).
CORPUS_SCALE = 0.05  # LiveJournal stand-in, 600 vertices
CLUSTER_SCALE = 0.05  # Twitter stand-in, 800 vertices
CLUSTER_NODES = 8

# Serve workloads.  16 requests per second: 800 requests in the
# benchmark's 50 s window.  The mix is multimodal (a 3 ms light class
# beside 10-40 ms classes), so its percentiles sit where few requests
# lie; at 8/s (400 requests) the median of serve-churn runs spread by
# 0.17 (IQR / median over five seeds).  The graph is a LiveJournal
# stand-in small enough for one worker: the static service, which
# rebuilds tables per request, takes 44 ms per request of the mix at
# scale 0.05 (about 70% busy at 16/s; 80 ms at scale 0.1); the churn
# service takes about 17 ms (about 27% busy).  A 500-walker request at
# scale 0.5 takes 0.3 s, too long for one worker to serve such a rate.
SERVE_SCALE = 0.05  # 600 vertices, typed + weighted
SERVE_RATE = 16.0  # requests per second, Poisson
MIN_REQUESTS = 100
# Set-ups are short (about 40 ms) and the machine's speed flickers on
# that scale, so setup_s is the median of many.
SETUP_REPEATS = 15
QUEUE_CAPACITY = 512
# One update batch per four requests.  The first request after a commit
# pays the epoch's table and bound upkeep, so about a quarter of the
# requests do: latency_p90_ms carries that upkeep and latency_p50_ms the
# plain requests, rather than the median sitting between the two.  A
# batch holds 0.4 updates per vertex, the ratio of the repository's
# dynamic-churn example (120 updates per epoch on its 300-vertex graph).
COMMIT_RATE = SERVE_RATE / 4
CHURN_UPDATES_PER_VERTEX = 0.4
REPLAYS = 5
PAIR_SAMPLE = 64
RESPONSE_TIMEOUT = 120.0
# A reference-kernel sample (about 30 ms) is taken only if the next
# request is due at least this far ahead.
IDLE_SAMPLE_SLACK = 0.06
# How often the writer re-reads the reference clock while it waits.
WRITER_POLL = 0.02
SCRATCH_DIR = ".perfbench-tmp"


@dataclass
class Outcome:
    # Metric name -> value; the units are declared in BENCHMARK.json.
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    # Printed beside the end-to-end metrics only: name -> (value, unit).
    extra: dict[str, tuple[float, str]] = field(default_factory=dict)
    counters: dict[str, object] = field(default_factory=dict)
    attempted: int = 0
    errors: int = 0
    check_failures: list[str] = field(default_factory=list)
    report: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.check_failures.append(message)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile; 0.0 for an empty sample."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def build_graph(edges: inputs.EdgeInputs):
    # Through the module attribute, so the traced pass sees the call.
    return builder.from_arrays(
        edges.num_vertices,
        edges.sources,
        edges.targets,
        weights=edges.weights,
        edge_types=edges.edge_types,
        undirected=True,
    )


def walk_counters(stats) -> dict[str, int]:
    c = stats.counters
    return {
        "steps": int(stats.total_steps),
        "iterations": int(stats.iterations),
        "trials": int(c.trials),
        "pd_evaluations": int(c.pd_evaluations + stats.full_scan_evaluations),
        "pre_accepts": int(c.pre_accepts),
        "accepts": int(c.accepts),
    }


def rate_metrics(stats_list) -> dict[str, float]:
    trials = sum(s.counters.trials for s in stats_list)
    steps = sum(s.total_steps for s in stats_list)
    pd = sum(
        s.counters.pd_evaluations + s.full_scan_evaluations for s in stats_list
    )
    return {
        "algorithms.pd_evals_per_step": pd / steps if steps else 0.0,
        "core.trials_per_step": trials / steps if steps else 0.0,
        "core.pre_accept_rate": (
            sum(s.counters.pre_accepts for s in stats_list) / trials
            if trials
            else 0.0
        ),
        "core.accept_rate": (
            sum(s.counters.accepts for s in stats_list) / trials if trials else 0.0
        ),
    }


def layer_times(probe: LayerProbe, ops: int) -> dict[str, float]:
    """Per-operation self times of the layers every workload shares.

    Shard-worker self times (sharded requests) are added to the layer
    they belong to; they run concurrently with the parent's wait.
    """
    ops = max(ops, 1)

    def own(*names: str) -> float:
        value = probe.self_time(*names)
        for name in names:
            shard = probe.shard_stats.get(name)
            if shard is not None:
                value += shard.self_time
        return value / ops

    def count(*names: str) -> float:
        value = probe.count(*names)
        for name in names:
            shard = probe.shard_stats.get(name)
            if shard is not None:
                value += shard.count
        return value / ops

    def stage(name: str) -> float:
        # The program's own stage spans, as the tracer measured them.
        return probe.total(f"core.stage.{name}") / ops

    return {
        "graph.build_s": own("graph.build"),
        "sampling.table_build_s": own("sampling.table_build"),
        "sampling.table_builds": count("sampling.table_build"),
        "sampling.draw_s": own("sampling.draw"),
        "sampling.draws": count("sampling.draw"),
        "algorithms.pd_s": own("algorithms.pd"),
        "core.engine_init_s": own("core.engine_init"),
        "core.gather_s": stage("gather"),
        "core.move_s": stage("move"),
        "core.update_s": stage("update"),
        "core.move_self_s": own("core.stage.move"),
        "core.commit_s": own("core.commit"),
        "core.trace_record_s": own("core.trace_record"),
        "core.trace_flush_s": own("core.trace_flush"),
        "core.paths_s": own("core.paths"),
        "cluster.partition_s": own("cluster.partition"),
        "dynamic.snapshot_s": own("dynamic.snapshot"),
        "dynamic.table_maintain_s": own("dynamic.table_maintain"),
        "dynamic.bounds_maintain_s": own("dynamic.bounds_maintain"),
    }


# ======================================================================
# Batch workloads: repeated jobs, each job = setup + run()
# ======================================================================
@dataclass
class Job:
    setup_s: float
    walk_s: float
    traced: bool
    counters: dict
    stats: object
    extra: dict = field(default_factory=dict)
    rss_mb: float = 0.0
    # Takes this job's times to the reference speed (perfbench.speed).
    scale: float = 1.0


def run_jobs(job_fn, seconds: float, probe: LayerProbe | None) -> list[Job]:
    """Jobs until ``seconds`` have passed (at least ``MIN_JOBS``).

    With a probe (the traced run), untraced and traced jobs alternate
    (A, B, A, B...) so the traced-overhead ratio compares runs made
    under the same load; a traced job also records how many sampler
    tables it built.  The reference kernel runs between jobs: each job
    is scaled by the samples just before and just after it.
    """
    jobs: list[Job] = []
    deadline = time.perf_counter() + seconds
    minimum = 2 * MIN_JOBS if probe else MIN_JOBS
    before = speed.kernel_seconds()
    while len(jobs) < minimum or time.perf_counter() < deadline:
        # Each job starts from a collected heap: the leftovers of the
        # previous job otherwise make job times vary by +-20%.
        gc.collect()
        traced = probe is not None and len(jobs) % 2 == 1
        builds = probe.count("sampling.table_build") if traced else 0
        job = job_fn(traced)
        after = speed.kernel_seconds()
        job.scale = speed.scale(before, after)
        before = after
        if traced:
            job.extra["table_builds"] = probe.count("sampling.table_build") - builds
        job.rss_mb = peak_rss_mb()
        jobs.append(job)
    return jobs


def batch_end_to_end(jobs: list[Job], steps: int) -> dict[str, float]:
    """Per-job times at the reference speed, summarised over the run's
    jobs: medians, and the 90th percentile of job latency."""
    setup = percentile([j.setup_s * j.scale for j in jobs], 50)
    walk = percentile([j.walk_s * j.scale for j in jobs], 50)
    job_ms = [1000.0 * (j.setup_s + j.walk_s) * j.scale for j in jobs]
    return {
        "setup_s": setup,
        "walk_s": walk,
        "end_to_end_steps_per_sec": steps / (setup + walk),
        "latency_p50_ms": percentile(job_ms, 50),
        "latency_p90_ms": percentile(job_ms, 90),
        "served_rps": 1000.0 * len(job_ms) / sum(job_ms),
        # After a fixed number of jobs: the allocator's high-water mark
        # keeps creeping with the job count, which depends on speed.
        "peak_rss_mb": jobs[min(MIN_JOBS, len(jobs)) - 1].rss_mb,
    }


def measured_times(jobs: list[Job]) -> str:
    """The job times as measured, before scaling, for the report."""
    setup = [j.setup_s for j in jobs]
    walk = [j.walk_s for j in jobs]
    scales = [j.scale for j in jobs]
    return (
        f"measured (unscaled) medians: setup_s {percentile(setup, 50):.6f}, "
        f"walk_s {percentile(walk, 50):.6f}; speed scale median "
        f"{percentile(scales, 50):.4f} (range {min(scales):.4f}-{max(scales):.4f})"
    )


def gate_counters(out: Outcome, jobs: list[Job]) -> None:
    """Every job ran the same seed: its counters must repeat exactly."""
    out.report.append(
        f"{len(jobs)} jobs (setup_s/walk_s"
        + (", * traced" if any(j.traced for j in jobs) else "")
        + "): "
        + " ".join(
            f"{j.setup_s:.3f}/{j.walk_s:.3f}{'*' if j.traced else ''}"
            for j in jobs
        )
    )
    first = jobs[0].counters
    for index, job in enumerate(jobs[1:], start=1):
        out.check(
            job.counters == first,
            f"job {index} counters {job.counters} differ from job 0 {first}",
        )
    out.counters = dict(first)
    builds = [j.extra["table_builds"] for j in jobs if j.traced]
    if builds:
        out.check(
            len(set(builds)) == 1,
            f"traced jobs built different numbers of sampler tables: {builds}",
        )
        out.counters["table_builds"] = builds[0]


def traced_overhead(jobs: list[Job]) -> float:
    plain = [j.walk_s * j.scale for j in jobs if not j.traced]
    traced = [j.walk_s * j.scale for j in jobs if j.traced]
    return statistics.median(traced) / statistics.median(plain) - 1.0


def check_corpus(out: Outcome, path: str, graph, walkers: int, seed: int) -> str:
    """Line count, path length and a seeded sample of edges; returns
    the corpus digest (line order is deterministic for a seed)."""
    with open(path, "rb") as handle:
        blob = handle.read()
    lines = blob.splitlines()
    out.check(len(lines) == walkers, f"corpus has {len(lines)} lines, want {walkers}")
    short = sum(1 for line in lines if line.count(b" ") != WALK_LENGTH)
    out.check(short == 0, f"{short} corpus lines lack {WALK_LENGTH + 1} vertices")
    rng = np.random.default_rng([seed, 0xC0])
    picks = rng.choice(len(lines), size=min(200, len(lines)), replace=False)
    walks = np.asarray([lines[i].split() for i in picks], dtype=np.int64)
    ok = graph.has_edges_batch(walks[:, :-1].ravel(), walks[:, 1:].ravel())
    out.check(bool(ok.all()), f"{int((~ok).sum())} sampled corpus hops are not edges")
    return hashlib.blake2b(blob, digest_size=12).hexdigest()


def corpus_node2vec(seed: int, seconds: float, trace: bool, root: str) -> Outcome:
    out = Outcome()
    edges = inputs.livejournal_edges(seed, CORPUS_SCALE, weighted=True)
    walkers = edges.num_vertices
    probe = LayerProbe()
    tracer = LayeredTracer(probe) if trace else None
    # The corpus goes to a private directory inside the checkout.
    scratch_root = os.path.join(root, SCRATCH_DIR)
    os.makedirs(scratch_root, exist_ok=True)

    def job(traced: bool, corpus: str) -> Job:
        if traced:
            install_layers(probe)
        try:
            t0 = time.perf_counter()
            graph = build_graph(edges)
            config = WalkConfig(
                num_walkers=walkers,
                max_steps=WALK_LENGTH,
                seed=seed,
                stream_paths_to=corpus,
            )
            engine = WalkEngine(graph, Node2Vec(p=NODE2VEC_P, q=NODE2VEC_Q), config)
            if traced:
                engine.observe(tracer)
            t1 = time.perf_counter()
            result = engine.run()
            t2 = time.perf_counter()
        finally:
            probe.uninstall()
        counters = walk_counters(result.stats)
        counters["corpus_bytes"] = os.path.getsize(corpus)
        counters["corpus_digest"] = check_corpus(out, corpus, graph, walkers, seed)
        out.check(
            result.stats.total_steps == walkers * WALK_LENGTH,
            f"steps {result.stats.total_steps} != {walkers * WALK_LENGTH}",
        )
        os.remove(corpus)
        return Job(t1 - t0, t2 - t1, traced, counters, result.stats)

    try:
        with tempfile.TemporaryDirectory(dir=scratch_root) as scratch:
            corpus = os.path.join(scratch, "corpus.txt")
            jobs = run_jobs(
                lambda traced: job(traced, corpus), seconds, probe if trace else None
            )
    finally:
        with contextlib.suppress(OSError):
            os.rmdir(scratch_root)  # only if no other run is using it
    gate_counters(out, jobs)
    out.attempted = len(jobs)
    plain = [j for j in jobs if not j.traced]
    out.end_to_end = batch_end_to_end(plain, walkers * WALK_LENGTH)
    out.report.append(measured_times(plain))
    if trace:
        traced = [j for j in jobs if j.traced]
        per_layer = layer_times(probe, len(traced))
        per_layer.update(rate_metrics([j.stats for j in traced]))
        per_layer["core.corpus_bytes"] = float(out.counters["corpus_bytes"])
        per_layer["obs.traced_overhead"] = traced_overhead(jobs)
        out.per_layer = per_layer
        reference = probe.total("core.run")
        out.report.append(
            layer_table(probe, reference, f"{len(traced)} traced jobs")
        )
    return out


# ----------------------------------------------------------------------
def cluster_sim_breakdown(engine, tracer) -> dict[str, float]:
    """Split simulated time into compute, message and barrier shares.

    Uses the cluster's declared spans: each superstep's critical node is
    its longest ``node.compute`` span; the cost model's terms for that
    span's work counts split its time; the ``message.flush`` tail is
    message time and a ``checkpoint`` span is barrier time.
    """
    model = engine.cost_model
    supersteps = {}
    children: dict[int, list] = {}
    for span in tracer.spans:
        if span.track == "cluster" and span.name == "superstep":
            supersteps[span.span_id] = span
        elif span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    compute = message = barrier = 0.0
    for span_id, step in supersteps.items():
        kids = children.get(span_id, [])
        nodes = [k for k in kids if k.name == "node.compute"]
        flush = sum(k.dur for k in kids if k.name == "message.flush")
        checkpoint = sum(k.dur for k in kids if k.name == "checkpoint")
        critical_time = step.dur - flush - checkpoint
        if nodes:
            args = max(nodes, key=lambda k: k.dur).args
            threads = args["threads"]
            work = NodeWork(
                trials=args["trials"],
                pd_evaluations=args["pd_evaluations"],
                messages=args["messages"],
                active_walkers=args["active_walkers"],
            )
            # stage_times tiles node_time: gather and update are thread
            # and barrier overhead, move is compute plus messaging.
            gather, move, update = model.stage_times(work, threads)
            c = model.compute_time(work, threads)
            whole = model.node_time(work, threads)
            compute += critical_time * c / whole
            message += critical_time * (move - c) / whole
            barrier += critical_time * (gather + update) / whole
        else:
            barrier += critical_time
        message += flush
        barrier += checkpoint
    return {"compute": compute, "message": message, "barrier": barrier}


# Deterministic cluster counters that are also per-layer metrics.
CLUSTER_COUNTERS = (
    "sim_seconds",
    "messages.state_query",
    "messages.query_response",
    "messages.walker_migrate",
    "bytes",
    "retransmissions",
    "straggler_suspicions",
    "walkers_rebalanced",
)


def cluster_node2vec(seed: int, seconds: float, trace: bool, root: str) -> Outcome:
    del root  # no files: the cluster workload records no paths
    out = Outcome()
    edges = inputs.twitter_edges(seed, CLUSTER_SCALE)
    walkers = edges.num_vertices
    spec = inputs.degraded_plan_spec(seed, CLUSTER_NODES)
    probe = LayerProbe()

    def job(traced: bool) -> Job:
        plan = FaultPlan(
            seed=spec.plan_seed,
            slowdowns=(NodeSlowdown(node=spec.slow_node, factor=spec.slow_factor),),
            flaky_links=(
                FlakyLink(
                    a=spec.link[0],
                    b=spec.link[1],
                    faults=MessageFaults(drop=spec.drop, delay=spec.delay),
                ),
            ),
        )
        tracer = LayeredTracer(probe) if traced else None
        if traced:
            install_layers(probe)
        try:
            t0 = time.perf_counter()
            graph = build_graph(edges)
            engine = DistributedWalkEngine(
                graph,
                Node2Vec(p=NODE2VEC_P, q=NODE2VEC_Q),
                WalkConfig(num_walkers=walkers, max_steps=WALK_LENGTH, seed=seed),
                num_nodes=CLUSTER_NODES,
                fault_plan=plan,
            )
            if traced:
                engine.observe(tracer)
            t1 = time.perf_counter()
            result = engine.run()
            t2 = time.perf_counter()
        finally:
            probe.uninstall()
        cluster = result.cluster
        try:
            cluster.delivery.check_conservation()
        except ClusterError as error:
            out.check(False, f"delivery conservation: {error}")
        out.check(
            result.stats.total_steps == walkers * WALK_LENGTH,
            f"steps {result.stats.total_steps} != {walkers * WALK_LENGTH}",
        )
        counters = walk_counters(result.stats)
        counters.update(
            {f"messages.{k.lower()}": v for k, v in cluster.network.per_kind_totals().items()}
        )
        counters["bytes"] = int(cluster.network.total_bytes())
        counters["retransmissions"] = int(cluster.delivery.retransmissions)
        counters["sim_seconds"] = float(cluster.simulated_seconds)
        counters["straggler_suspicions"] = int(cluster.health.suspect_events)
        counters["walkers_rebalanced"] = int(cluster.health.migrated_walkers)
        extra = {"balance": cluster.compute_balance()}
        if traced:
            extra["sim"] = cluster_sim_breakdown(engine, tracer)
        return Job(t1 - t0, t2 - t1, traced, counters, result.stats, extra)

    jobs = run_jobs(job, seconds, probe if trace else None)
    gate_counters(out, jobs)
    out.attempted = len(jobs)
    plain = [j for j in jobs if not j.traced]
    out.end_to_end = batch_end_to_end(plain, walkers * WALK_LENGTH)
    out.report.append(measured_times(plain))
    c = out.counters
    out.extra["sim_seconds"] = (c["sim_seconds"], "s")
    if trace:
        traced = [j for j in jobs if j.traced]
        per_layer = layer_times(probe, len(traced))
        per_layer.update(rate_metrics([j.stats for j in traced]))
        for name in CLUSTER_COUNTERS:
            per_layer[f"cluster.{name}"] = float(c[name])
        sim = traced[0].extra["sim"]
        for part in ("compute", "message", "barrier"):
            per_layer[f"cluster.sim_{part}_s"] = sim[part]
        supersteps = probe.get("cluster.superstep").durations
        per_layer["cluster.host_superstep_p50_ms"] = 1000.0 * percentile(supersteps, 50)
        per_layer["cluster.compute_balance"] = traced[0].extra["balance"]
        per_layer["obs.traced_overhead"] = traced_overhead(jobs)
        out.per_layer = per_layer
        out.report.append(
            layer_table(probe, probe.total("cluster.run"), f"{len(traced)} traced jobs")
        )
        out.report.append(
            "simulated time: "
            + ", ".join(f"{k} {v:.6f}s" for k, v in sim.items())
            + f" (sum {sum(sim.values()):.6f}s of {c['sim_seconds']:.6f}s)"
        )
    return out


# ======================================================================
# Serve workloads
# ======================================================================
def make_program(kind: str, schemes):
    if kind == "deepwalk":
        return DeepWalk()
    if kind == "node2vec":
        return Node2Vec(p=NODE2VEC_P, q=NODE2VEC_Q)
    return MetaPathWalk(schemes)


def make_request(spec: inputs.RequestSpec, schemes) -> WalkRequest:
    return WalkRequest(
        program=make_program(spec.kind, schemes),
        config=WalkConfig(
            num_walkers=spec.walkers,
            max_steps=spec.steps,
            seed=spec.seed,
            record_paths=True,
            start_vertices=spec.starts,
        ),
        num_shards=spec.shards,
        tag=spec.kind,
    )


def to_update_batch(batch: inputs.ChurnBatch) -> UpdateBatch:
    return UpdateBatch.from_updates(
        [
            EdgeUpdate(kind, int(u), int(v), float(w), int(t))
            for kind, u, v, w, t in zip(
                batch.kinds,
                batch.sources,
                batch.targets,
                batch.weights,
                batch.edge_types,
            )
        ]
    )


@dataclass
class ServeInputs:
    edges: inputs.EdgeInputs
    schemes: list
    specs: list
    warmups: list
    batches: list  # UpdateBatch, empty on serve-static


def serve_inputs(seed: int, seconds: float, churn: bool) -> ServeInputs:
    edges = inputs.livejournal_edges(seed, SERVE_SCALE, weighted=True, typed=True)
    count = max(MIN_REQUESTS, int(round(SERVE_RATE * seconds)))
    specs = inputs.request_stream(seed, count, SERVE_RATE, edges.num_vertices)
    warmups = inputs.warmup_requests(seed, edges.num_vertices)
    batches = []
    if churn:
        span = specs[-1].due
        raw = inputs.churn_stream(
            seed,
            edges,
            int(span * COMMIT_RATE) + 1,
            int(CHURN_UPDATES_PER_VERTEX * edges.num_vertices),
        )
        batches = [to_update_batch(b) for b in raw]
    return ServeInputs(edges, inputs.metapath_schemes(seed), specs, warmups, batches)


@dataclass
class Session:
    setup_s: float
    service: WalkService
    target: object
    responses: list = field(default_factory=list)  # (spec, due, lag, ticket, response)
    commit_ms: list = field(default_factory=list)
    warmup_run_s: float = 0.0
    warmup_counters: list = field(default_factory=list)
    duration: float = 0.0  # reference seconds (perfbench.speed)
    errors: int = 0
    speed: speed.SpeedLog = field(default_factory=speed.SpeedLog)


def serve_setup(ins: ServeInputs, churn: bool, out: Outcome, tracer=None) -> Session:
    """Graph build, service construction and one warm-up request per
    program kind (lazy table and bound caches fill before timing)."""
    t0 = time.perf_counter()
    graph = build_graph(ins.edges)
    target = DynamicGraph(graph) if churn else graph
    service = WalkService(
        target,
        num_workers=1,
        queue_capacity=QUEUE_CAPACITY,
        degradation=None,
        tracer=tracer,
    )
    warmup_run_s = 0.0
    warmup_counters = []
    for spec in ins.warmups:
        response = service.submit(make_request(spec, ins.schemes)).wait(RESPONSE_TIMEOUT)
        out.check(response.ok, f"warm-up {spec.kind} request: {response.status}")
        if response.ok:
            warmup_run_s += response.run_seconds
            warmup_counters.append(replay_counters(response.result))
    return Session(
        time.perf_counter() - t0,
        service,
        target,
        warmup_run_s=warmup_run_s,
        warmup_counters=warmup_counters,
    )


def serve_stream(session: Session, ins: ServeInputs) -> None:
    """Open loop: the caller's thread submits each request at its due
    time; on serve-churn a writer thread commits at a fixed rate.

    Due times and commit times are a schedule in reference seconds,
    paced by a :class:`~perfbench.speed.ReferenceClock`: the offered
    load stays fixed relative to the machine's speed.  Queueing grows
    faster than linearly with load, so without this a slow phase of the
    host inflated waits far beyond what scaling by speed takes out.

    A sharded request runs in two worker processes, so a commit beside
    it would make three busy processes on a two-core machine.  The
    writer therefore waits for every submitted sharded request to
    finish, then commits holding ``exclusive`` (if none was submitted
    meanwhile); the generator takes it to submit a sharded request, so
    it is held up by a commit, never by a wait.
    """
    service = session.service
    failures: list[Exception] = []
    exclusive = threading.Lock()
    sharded: list = []
    session.speed.sample()
    clock = speed.ReferenceClock(session.speed, time.monotonic() + 0.05)

    def sample_speed_if_idle(reference_due: float, last) -> None:
        # The reference kernel runs only while no request is queued or
        # running, no commit is under way and the next request is not
        # yet due, so it delays no request.
        due = clock.wall_at(reference_due)
        if last is not None:
            with contextlib.suppress(ServiceError):
                last.wait(max(0.0, due - IDLE_SAMPLE_SLACK - time.monotonic()))
        for _ in range(3):  # the worker resolves, then leaves the count
            if not service.pending():
                break
            time.sleep(0.001)
        if due - time.monotonic() < IDLE_SAMPLE_SLACK or service.pending():
            return
        if not exclusive.acquire(blocking=False):
            return
        try:
            if not service.pending():
                session.speed.sample()
                clock.retune()
        finally:
            exclusive.release()

    def writer() -> None:
        try:
            for index, batch in enumerate(ins.batches):
                # The clock may be retuned while the writer waits.
                while (delay := clock.wall_at(index / COMMIT_RATE) - time.monotonic()) > 0:
                    time.sleep(min(delay, WRITER_POLL))
                committed = False
                while not committed:
                    for ticket in list(sharded):
                        ticket.wait(RESPONSE_TIMEOUT)
                    with exclusive:
                        if all(ticket.done() for ticket in sharded):
                            sharded.clear()
                            t0 = time.perf_counter()
                            service.apply_updates(batch)
                            session.commit_ms.append(
                                1000.0 * (time.perf_counter() - t0)
                            )
                            committed = True
        except Exception as error:  # noqa: BLE001 - re-raised below
            failures.append(error)

    thread = threading.Thread(target=writer, name="perfbench-writer")
    if ins.batches:
        thread.start()
    pending = []
    for spec in ins.specs:
        sample_speed_if_idle(spec.due, pending[-1][3] if pending else None)
        due = clock.wall_at(spec.due)
        delay = due - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        request = make_request(spec, ins.schemes)
        if spec.shards > 1 and ins.batches:
            with exclusive:
                lag = time.monotonic() - due
                ticket = service.submit(request)
                sharded.append(ticket)
        else:
            lag = time.monotonic() - due
            ticket = service.submit(request)
        pending.append((spec, due, lag, ticket))
    finished = []
    for spec, due, lag, ticket in pending:
        finished.append((spec, due, lag, ticket, ticket.wait(RESPONSE_TIMEOUT)))
    if ins.batches:
        thread.join()
    if failures:
        raise failures[0]
    session.speed.sample()
    session.responses = finished
    session.duration = clock.reference_at(
        max(t.submitted_at + r.wait_seconds + r.run_seconds for _, _, _, t, r in finished)
    )


def check_paths(out: Outcome, spec, response, graph=None) -> None:
    """Walk shape, step accounting, and a sample of hops against the
    graph the request ran on (``None``: epoch unknown, hops skipped)."""
    paths = response.result.paths
    out.check(
        paths is not None and len(paths) == spec.walkers,
        f"request {spec.index}: {0 if paths is None else len(paths)} paths",
    )
    if paths is None:
        return
    lengths = np.asarray([len(p) for p in paths])
    out.check(
        bool((lengths >= 1).all() and (lengths <= spec.steps + 1).all()),
        f"request {spec.index}: path lengths outside [1, {spec.steps + 1}]",
    )
    out.check(
        int((lengths - 1).sum()) == response.result.stats.total_steps,
        f"request {spec.index}: paths disagree with step count",
    )
    if graph is None:
        return
    rng = np.random.default_rng([spec.seed, 0xAB])
    sources, targets = [], []
    for index in rng.choice(len(paths), size=min(PAIR_SAMPLE, len(paths)), replace=False):
        path = paths[int(index)]
        if len(path) > 1:
            hop = int(rng.integers(len(path) - 1))
            sources.append(path[hop])
            targets.append(path[hop + 1])
    if sources:
        ok = graph.has_edges_batch(np.asarray(sources), np.asarray(targets))
        out.check(bool(ok.all()), f"request {spec.index}: sampled hop is not an edge")


def replay_counters(result) -> dict:
    counters = walk_counters(result.stats)
    counters["paths"] = hashlib.blake2b(
        b"".join(np.asarray(p, dtype=np.int64).tobytes() for p in result.paths),
        digest_size=12,
    ).hexdigest()
    return counters


def check_replay(out: Outcome, spec, response, graph, schemes) -> None:
    """The service adds no randomness: a direct run of the same request
    on the graph (or epoch snapshot) it used must match bit for bit."""
    request = make_request(spec, schemes)
    again = WalkEngine(graph, request.program, request.config).run()
    out.check(
        replay_counters(again) == replay_counters(response.result),
        f"request {spec.index}: a direct replay differs from the served walk",
    )


def verify_session(out: Outcome, session: Session, ins: ServeInputs, seed: int, churn: bool) -> None:
    """Accounting, path checks, and bit-identical replays of a seeded
    sample of requests on the epoch each one pinned."""
    service = session.service
    metrics = service.metrics
    expected = len(ins.specs) + len(ins.warmups)
    out.check(service.accounting_balanced(), "service accounting is not balanced")
    out.check(
        metrics.submitted == metrics.served + metrics.shed + metrics.failed
        and metrics.submitted == expected,
        f"submitted {metrics.submitted} != served {metrics.served} + shed "
        f"{metrics.shed} + failed {metrics.failed} (want {expected})",
    )
    ok = [(s, r) for s, _, _, _, r in session.responses if r.ok]
    session.errors = len(session.responses) - len(ok)
    rng = np.random.default_rng([seed, 0x4E])
    unsharded = [i for i, (s, _) in enumerate(ok) if s.shards == 1]
    replay = set(
        rng.choice(unsharded, size=min(REPLAYS, len(unsharded)), replace=False).tolist()
        if unsharded
        else []
    )
    if not churn:
        for index, (spec, response) in enumerate(ok):
            check_paths(out, spec, response, session.target)
            if index in replay:
                check_replay(out, spec, response, session.target, ins.schemes)
        return
    # serve-churn: rebuild every epoch on an independent replica.
    out.check(
        metrics.epochs_committed == len(ins.batches)
        and session.target.epoch == len(ins.batches),
        f"epochs committed {metrics.epochs_committed}, graph epoch "
        f"{session.target.epoch}, batches {len(ins.batches)}",
    )
    replica = DynamicGraph(build_graph(ins.edges))
    by_epoch: dict = {}
    for index, (spec, response) in enumerate(ok):
        epoch = response.graph_epoch
        if epoch is None:  # sharded: the merged stats carry no epoch
            check_paths(out, spec, response)
            continue
        by_epoch.setdefault(epoch, []).append((index, spec, response))
    for epoch in sorted(by_epoch):
        while replica.epoch < epoch:
            replica.commit(ins.batches[replica.epoch])
        snapshot = replica.snapshot()
        for index, spec, response in by_epoch[epoch]:
            check_paths(out, spec, response, snapshot.graph)
            if index in replay:
                check_replay(out, spec, response, snapshot, ins.schemes)


def serve_end_to_end(session: Session, setups: list[float]) -> dict:
    """Latency and walk time of each request at the reference speed,
    scaled by the kernel samples taken just before it was due and just
    after it completed."""
    ok = [(s, d, t, r) for s, d, _, t, r in session.responses if r.ok]
    latency, walks = [], []
    for _, due, ticket, r in ok:
        end = ticket.submitted_at + r.wait_seconds + r.run_seconds
        scale = session.speed.scale_between(due, end)
        latency.append(1000.0 * (end - due) * scale)
        walks.append(r.result.stats.wall_time_seconds * scale)
    steps = sum(r.result.stats.total_steps for *_, r in ok)
    setup = statistics.median(setups)
    return {
        "setup_s": setup,
        # Mean, not median: the request mix is multimodal, and a median
        # would jump between request kinds from seed to seed.
        "walk_s": statistics.fmean(walks),
        "end_to_end_steps_per_sec": steps / (setup + session.duration),
        "latency_p50_ms": percentile(latency, 50),
        "latency_p90_ms": percentile(latency, 90),
        "served_rps": len(ok) / session.duration,
    }


def measured_latency(session: Session, setups: list[float]) -> str:
    """Latency percentiles as measured, before scaling, for the report."""
    latency = [
        1000.0 * (t.submitted_at + r.wait_seconds + r.run_seconds - d)
        for _, d, _, t, r in session.responses
        if r.ok
    ]
    kernels = session.speed.kernels
    return (
        f"measured (unscaled): setup_s median {statistics.median(setups):.6f}, "
        f"latency_p50_ms {percentile(latency, 50):.4f}, latency_p90_ms "
        f"{percentile(latency, 90):.4f}; {len(kernels)} idle kernel samples, "
        f"median {1000.0 * statistics.median(kernels):.3f} ms"
    )


def stream_counters(session: Session) -> dict:
    """Work summed over the stream; deterministic on a static graph
    when every request is served."""
    totals: dict[str, int] = {}
    for *_, r in session.responses:
        if r.ok:
            for key, value in walk_counters(r.result.stats).items():
                totals[key] = totals.get(key, 0) + value
    return totals


def churn_counters(session: Session) -> dict:
    """The update outcome.  Which epoch a request pins depends on
    timing, so walk counters are not repeatable here; each replayed
    request is checked bit for bit in verify_session instead."""
    dyn = session.target.stats
    return {
        "epochs": int(dyn.epochs_committed),
        "inserts": int(dyn.inserts_applied),
        "deletes": int(dyn.deletes_applied),
        "reweights": int(dyn.reweights_applied),
        # Only the first table and bound builds (the warm-ups) are full.
        "full_rebuilds": int(session.target.maintenance.full_rebuilds),
    }


def serve_layers(
    session: Session, probe: LayerProbe, requests: int, churn: bool
) -> dict:
    """Per-request layer times (``requests`` counts the warm-ups the
    probe also saw) plus the service's own latency split."""
    ok = [(s, d, lag, r) for s, d, lag, _, r in session.responses if r.ok]
    per_layer = layer_times(probe, requests)
    per_layer["graph.build_s"] = probe.self_time("graph.build")
    per_layer.update(rate_metrics([r.result.stats for *_, r in ok]))
    dispatch = []
    for spec, _, _, r in ok:
        registry = getattr(r.result, "metrics", None)
        if spec.shards > 1 and registry is not None:
            slowest = max(
                registry.value("walk_init_seconds", shard=str(i))
                + registry.value("walk_wall_seconds", shard=str(i))
                for i in range(r.result.num_workers)
            )
            dispatch.append(r.run_seconds - slowest)

    def ms(values, q: float) -> float:
        return 1000.0 * percentile(values, q)

    per_layer.update(
        {
            "service.queue_wait_p50_ms": ms([r.wait_seconds for *_, r in ok], 50),
            "service.queue_wait_p90_ms": ms([r.wait_seconds for *_, r in ok], 90),
            "service.run_p50_ms": ms([r.run_seconds for *_, r in ok], 50),
            "service.engine_init_p50_ms": ms(
                [r.result.stats.init_time_seconds for *_, r in ok], 50
            ),
            "service.walk_p50_ms": ms(
                [r.result.stats.wall_time_seconds for *_, r in ok], 50
            ),
            "service.generator_lag_p90_ms": ms([lag for _, _, lag, _ in ok], 90),
            "parallel.dispatch_p50_ms": ms(dispatch, 50),
        }
    )
    if churn:
        commits = max(len(session.commit_ms), 1)
        maintenance = session.target.maintenance
        per_layer.update(
            {
                "dynamic.commit_s": probe.self_time("dynamic.commit") / commits,
                "dynamic.commit_p50_ms": percentile(session.commit_ms, 50),
                "dynamic.vertices_rebuilt": float(maintenance.vertices_rebuilt),
                "dynamic.full_rebuilds": float(maintenance.full_rebuilds),
            }
        )
    return per_layer


def serve(seed: int, seconds: float, trace: bool, root: str, churn: bool) -> Outcome:
    del root  # no files: paths are returned in the responses
    out = Outcome()
    ins = serve_inputs(seed, seconds, churn)
    operations = len(ins.specs) + len(ins.batches)
    first_warmups: list = []
    measured_setups: list[float] = []

    def session(traced_probe=None, repeats=1) -> tuple[Session, list[float]]:
        tracer = None
        if traced_probe is not None:
            install_layers(traced_probe)
            tracer = LayeredTracer(traced_probe)
        try:
            setups = []
            for attempt in range(repeats):
                gc.collect()  # as between batch jobs
                before = speed.kernel_seconds_per_cpu()
                current = serve_setup(ins, churn, out, tracer)
                scale = speed.scale(before, speed.kernel_seconds_per_cpu())
                setups.append(current.setup_s * scale)
                measured_setups.append(current.setup_s)
                # Warm-ups run on epoch 0: every setup repeats them exactly.
                if not first_warmups:
                    first_warmups.extend(current.warmup_counters)
                out.check(
                    current.warmup_counters == first_warmups,
                    f"warm-up counters {current.warmup_counters} differ from "
                    f"the first setup's {first_warmups}",
                )
                if attempt + 1 < repeats:
                    current.service.close(wait=True)
            gc.collect()
            try:
                serve_stream(current, ins)
            finally:
                current.service.close(wait=True)
        finally:
            if traced_probe is not None:
                traced_probe.uninstall()
        verify_session(out, current, ins, seed, churn)
        for spec, _, _, _, r in current.responses:
            registry = getattr(r.result, "metrics", None)
            if traced_probe is not None and registry is not None:
                traced_probe.add_shard_stats(registry)
        out.attempted += operations
        out.errors += current.errors
        return current, setups

    plain, setups = session(repeats=SETUP_REPEATS)
    out.end_to_end = serve_end_to_end(plain, setups)
    out.report.append(measured_latency(plain, measured_setups))
    out.report.append(
        f"samples: {sum(r.ok for *_, r in plain.responses)} ok of "
        f"{len(plain.responses)} requests, {len(setups)} setups"
        + (f", {len(plain.commit_ms)} commits" if churn else "")
    )
    out.end_to_end["peak_rss_mb"] = peak_rss_mb()
    if churn:
        out.extra["commit_p50_ms"] = (percentile(plain.commit_ms, 50), "ms")
        out.report.append(
            "dynamic.vertices_rebuilt "
            f"{plain.target.maintenance.vertices_rebuilt} (not gated: a "
            "request rebuilds the vertices touched since the epoch the "
            "previous request pinned, and which epochs are pinned depends "
            "on timing)"
        )
    counters = churn_counters if churn else stream_counters
    out.counters = counters(plain)
    if trace:
        probe = LayerProbe()
        traced, _ = session(traced_probe=probe)
        out.check(
            counters(traced) == out.counters,
            f"traced session counters {counters(traced)} differ from the "
            f"untraced session's {out.counters}",
        )
        per_layer = serve_layers(
            traced, probe, len(traced.responses) + len(ins.warmups), churn
        )
        plain_walk = out.end_to_end["walk_s"]
        traced_walk = serve_end_to_end(traced, [0.0])["walk_s"]
        per_layer["obs.traced_overhead"] = traced_walk / plain_walk - 1.0
        out.per_layer = per_layer
        reference = traced.warmup_run_s + sum(
            r.run_seconds for *_, r in traced.responses
        )
        out.report.append(
            layer_table(
                probe,
                reference,
                f"{len(traced.responses)} traced requests + "
                f"{len(ins.warmups)} warm-ups; reference is their run_seconds",
            )
        )
        builds = probe.get("sampling.table_build").self_time
        shard_builds = probe.shard_stats.get("sampling.table_build")
        shard_s = shard_builds.self_time if shard_builds else 0.0
        walks = probe.total("core.run")
        out.report.append(
            f"share of request run_seconds ({reference:.4f}s): table builds "
            f"{builds / reference:.1%} in the service thread (+{shard_s:.4f}s "
            f"in shard workers, two concurrent per sharded request); "
            f"in-thread run() {walks / reference:.1%}"
        )
        if probe.shard_stats:
            out.report.append(
                "in shard workers (concurrent): "
                + ", ".join(
                    f"{name} {entry.self_time:.4f}s/{entry.calls}"
                    for name, entry in sorted(probe.shard_stats.items())
                )
            )
    return out


def serve_static(seed: int, seconds: float, trace: bool, root: str) -> Outcome:
    return serve(seed, seconds, trace, root, churn=False)


def serve_churn(seed: int, seconds: float, trace: bool, root: str) -> Outcome:
    return serve(seed, seconds, trace, root, churn=True)


WORKLOADS = {
    "corpus-node2vec": corpus_node2vec,
    "cluster-node2vec": cluster_node2vec,
    "serve-static": serve_static,
    "serve-churn": serve_churn,
}
