"""The five workloads: set up, drive, check outputs, reduce to metrics.

Every runner takes ``(seed, scale, tracer)`` and returns a :class:`RunResult`.
With a tracer the same inputs run under spans and ``result.layer`` holds the
per-layer metrics; ``result.end_to_end`` is always computed and, in a traced
run, says what tracing did to the headline numbers.
"""

from __future__ import annotations

import resource
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.data.few_shot import pairs_from_mentions
from repro.eval.protocol import evaluate_pipeline
from repro.generation.synthesis import build_bundle
from repro.index import IVFBackend
from repro.kb.entity import Mention
from repro.meta.metablink import MetaBlinkTrainer
from repro.meta.seed import few_shot_seed
from repro.serving import EntityLinkingPipeline, LinkingResult

from . import layers, stack, workloads
from .load import LoadLog, drive_closed_loop, drive_open_loop
from .trace import Tracer


@dataclass(frozen=True)
class Scale:
    """How much one run does; only ``seconds`` comes from the command line."""

    seconds: float
    warmup: float = 1.5
    setup_repeats: int = 3
    large_kb: int = 100_000
    churn_kb: int = 50_000
    #: Requests / mentions re-linked offline or checked against the oracle.
    verify_sample: int = 256
    oracle_sample: int = 128

    @classmethod
    def quick(cls, seconds: float = 2.0) -> "Scale":
        """Small and fast, for ``--quick`` and the benchmark's own tests."""
        return cls(seconds=seconds, warmup=0.5, setup_repeats=1, large_kb=20_000,
                   churn_kb=10_000, verify_sample=64, oracle_sample=32)


@dataclass
class RunResult:
    workload: str
    fingerprint: str
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    end_to_end: Dict[str, float] = field(default_factory=dict)
    layer: Dict[str, float] = field(default_factory=dict)
    #: Sample counts and spreads printed beside the metrics.
    notes: Dict[str, object] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def fail(self, count: int, problem: str) -> None:
        if count:
            self.failed += count
            if len(self.problems) < 8:
                self.problems.append(f"{count} x {problem}")


def _finish(result: RunResult, tracer: Optional[Tracer], wall: float, crossencoder) -> RunResult:
    result.end_to_end["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.restore()
        result.layer = {**layers.zeros(), **result.layer}
        result.layer.update(layers.nn_probe(crossencoder))
        result.layer.update(layers.trace_overhead(tracer, wall))
        result.layer["trace.latency_p50_ms"] = result.end_to_end["latency_p50_ms"]
        result.layer["trace.throughput_per_s"] = result.end_to_end["throughput_per_s"]
    return result


# ----------------------------------------------------------------------
# serve_steady / serve_saturated
# ----------------------------------------------------------------------
def _check_served(
    result: RunResult,
    reference: EntityLinkingPipeline,
    requests: Sequence[Mention],
    served: Sequence[Optional[LinkingResult]],
    seed: int,
    sample: int,
) -> None:
    """Structure of every result; a seeded sample against the offline ``link``."""
    answered = [i for i, outcome in enumerate(served) if outcome is not None]
    if not answered:
        return
    malformed = sum(
        1 for i in answered
        if served[i].mention_id != requests[i].mention_id
        or len(served[i].candidate_ids) != stack.SERVING_K
        or served[i].predicted_entity_id not in served[i].candidate_ids
        or served[i].degraded
    )
    result.fail(malformed, "served result malformed (id, candidate count, prediction or degraded)")
    rng = np.random.default_rng([seed, 9])
    chosen = rng.choice(answered, size=min(sample, len(answered)), replace=False)
    offline = reference.link([requests[int(i)] for i in chosen])
    wrong = 0
    for position, expected in zip(chosen, offline):
        if served[int(position)].predicted_entity_id == expected.predicted_entity_id:
            continue
        top_two = sorted(expected.rerank_scores, reverse=True)[:2]
        if len(top_two) < 2 or top_two[0] - top_two[1] > 1e-9:
            wrong += 1
    result.fail(wrong, "served prediction differs from the offline pipeline.link reference")
    result.notes["verified_against_reference"] = len(chosen)


def _outcomes(result: RunResult, log: LoadLog) -> List[Optional[LinkingResult]]:
    served: List[Optional[LinkingResult]] = []
    unfinished = errored = 0
    for future in log.futures:
        if not future.done():
            unfinished += 1
            served.append(None)
        elif future.exception() is not None:
            errored += 1
            served.append(None)
        else:
            served.append(future.result())
    result.fail(unfinished, "request not completed when the run ended")
    result.fail(errored, "request failed or was refused")
    return served


def _serve(workload: str, seed: int, scale: Scale, tracer: Optional[Tracer] = None) -> RunResult:
    open_loop = workload == "serve_steady"
    serving, setup_s = stack.median_setup(stack.serving_stack, scale.setup_repeats)
    pool = serving.model.mentions()
    positions: Dict[str, List[int]] = {}
    for position, mention in enumerate(pool):
        positions.setdefault(mention.domain, []).append(position)
    by_world = [np.array(members) for members in positions.values()]
    duration = scale.warmup + scale.seconds
    try:
        if tracer is not None:
            layers.trace_serving(tracer, serving)
        started = time.perf_counter()
        if open_loop:
            inputs = workloads.open_loop(seed, by_world, duration)
            requests = [workloads.request(pool, p, n) for n, p in enumerate(inputs.positions)]
            log = drive_open_loop(serving.router.submit, requests, inputs.offsets)
        else:
            inputs = workloads.closed_loop(seed, by_world, duration)
            log = drive_closed_loop(
                serving.router.submit,
                lambda n: workloads.request(pool, inputs.positions[n % len(inputs.positions)], n),
                workloads.SATURATED_WINDOW, duration,
            )
        wall = time.perf_counter() - started
        result = RunResult(workload, inputs.fingerprint, attempted=len(log.requests))
        if tracer is not None:
            # Read the spans before the offline reference pass adds its own.
            result.layer.update(layers.serving_metrics(tracer, serving, log, wall))
            result.layer.update(layers.pipeline_metrics(tracer))
            result.layer.update(layers.index_metrics(tracer, serving.pipeline.index))
            result.layer["index.build_s"] = serving.index_build_s
            tracer.restore()
    finally:
        serving.close()

    served = _outcomes(result, log)
    window_start = log.began + scale.warmup
    window_end = window_start + scale.seconds
    ok = np.array([outcome is not None for outcome in served])
    latency = log.latency_ms()
    if open_loop:
        measured = (log.start >= window_start) & (log.start < window_end)
        good = measured & ok & (latency <= layers.SLO_MS)
        throughput = good.sum() / scale.seconds
    else:
        measured = (log.done >= window_start) & (log.done < window_end)
        throughput = (measured & ok).sum() / scale.seconds
    counted = measured & ok
    if not counted.any():
        result.fail(1, "no request completed in the measured window")
        counted = ok if ok.any() else np.ones(len(served), dtype=bool)
    if open_loop:
        latency_p50 = float(np.nanmedian(latency[counted]))
    else:
        # Per-request latency in the closed loop is two humps (the short queue
        # of the lighter replica, the long queue of the busier one) and its
        # median falls in the gap between them.  What a caller with a window
        # of requests waits for is the window turning over once.
        finished = np.sort(log.done[counted])
        turns = finished[workloads.SATURATED_WINDOW::workloads.SATURATED_WINDOW] \
            - finished[:-workloads.SATURATED_WINDOW:workloads.SATURATED_WINDOW]
        latency_p50 = float(np.median(turns)) * 1000.0 if len(turns) else float(np.nanmedian(latency[counted]))
    result.end_to_end.update({
        "latency_p50_ms": latency_p50,
        "throughput_per_s": float(throughput),
        "quality": float(np.mean([bool(served[i] and served[i].correct) for i in np.flatnonzero(counted)])),
        "setup_s": setup_s,
    })
    result.notes["latency_samples"] = int(counted.sum())
    _check_served(result, serving.pipeline.clone(), log.requests, served, seed, scale.verify_sample)
    if tracer is not None:
        result.layer.update(layers.load_metrics(log, measured, open_loop))
    return _finish(result, tracer, wall, serving.model.blink.crossencoder)


# ----------------------------------------------------------------------
# link_large_kb / link_under_churn
# ----------------------------------------------------------------------
def _malformed_candidates(results: Sequence[LinkingResult], k: int) -> int:
    """Results whose candidate list is not ``k`` long with non-increasing scores."""
    return sum(
        1 for result in results
        if len(result.candidate_ids) != k
        or any(a < b for a, b in zip(result.retrieval_scores, result.retrieval_scores[1:]))
    )


def _oracle_recall(
    result: RunResult,
    pipeline: EntityLinkingPipeline,
    mentions: Sequence[Mention],
    live: Dict[str, Dict[str, np.ndarray]],
    routed: bool,
) -> float:
    """Recall@k of ``pipeline.link`` against brute-force numpy top-k over ``live``.

    Also checks each returned candidate is live and carries its true score.
    """
    k = pipeline.k
    queries = pipeline.biencoder.embed_mentions(list(mentions))
    linked = pipeline.link(mentions)
    everything = {eid: vec for members in live.values() for eid, vec in members.items()}
    matrices = {}
    for world, members in (live.items() if routed else [(None, everything)]):
        ids = list(members)
        matrices[world] = (ids, np.stack([members[i] for i in ids]))
    overlap = 0
    stale = mis_scored = 0
    for mention, query, outcome in zip(mentions, queries, linked):
        ids, matrix = matrices[mention.domain if routed else None]
        scores = matrix @ query
        top = np.argpartition(-scores, k - 1)[:k]
        truth = {ids[int(i)] for i in top}
        overlap += len(truth.intersection(outcome.candidate_ids))
        for entity_id, score in zip(outcome.candidate_ids, outcome.retrieval_scores):
            if entity_id not in everything:
                stale += 1
            elif abs(float(everything[entity_id] @ query) - score) > 1e-9:
                mis_scored += 1
    result.fail(stale, "candidate is not in the live entity set")
    result.fail(mis_scored, "candidate score differs from its true inner product")
    result.fail(_malformed_candidates(linked, k), "candidate list short or out of order")
    result.notes["oracle_queries"] = len(mentions)
    return overlap / (k * len(mentions))


def _sample(mentions: Sequence[Mention], seed: int, count: int) -> List[Mention]:
    rng = np.random.default_rng([seed, 8])
    chosen = rng.choice(len(mentions), size=min(count, len(mentions)), replace=False)
    return [mentions[int(i)] for i in chosen]


def link_large_kb(seed: int, scale: Scale, tracer: Optional[Tracer] = None) -> RunResult:
    kb, setup_s = stack.median_setup(
        lambda: stack.kb_stack(scale.large_kb, route_by_domain=False), scale.setup_repeats
    )
    pool = kb.model.mentions(kb.model.test_worlds)
    duration = scale.warmup + scale.seconds
    inputs = workloads.link_batches(seed, len(pool), duration, workloads.LINK_BATCH)
    result = RunResult("link_large_kb", inputs.fingerprint)
    if tracer is not None:
        layers.trace_pipeline(tracer, kb.pipeline)
    began = time.perf_counter()
    window_start = began + scale.warmup
    window_end = window_start + scale.seconds
    call_ms: List[float] = []
    number = 0
    while True:
        started = time.perf_counter()
        if started >= window_end:
            break
        batch = [pool[int(p)] for p in inputs.positions[number % len(inputs.positions)]]
        number += 1
        try:
            linked = kb.pipeline.link(batch)
        except Exception as error:  # the benchmark must report, not die
            result.fail(len(batch), f"link raised {error!r}")
            continue
        finished = time.perf_counter()
        result.fail(_malformed_candidates(linked, stack.KB_K), "candidate list short or out of order")
        if started >= window_start and finished <= window_end:
            call_ms.append((finished - started) * 1000.0)
    wall = time.perf_counter() - began
    result.attempted = number * workloads.LINK_BATCH
    live = workloads.live_after(kb.kb, [])
    result.end_to_end.update({
        "latency_p50_ms": float(np.median(call_ms)),
        "throughput_per_s": len(call_ms) * workloads.LINK_BATCH / (sum(call_ms) / 1000.0),
        "setup_s": setup_s,
    })
    result.notes["latency_samples"] = len(call_ms)
    if tracer is not None:
        # Before the oracle pass, whose link calls are not part of the workload.
        result.layer.update(layers.pipeline_metrics(tracer))
        result.layer.update(layers.index_metrics(tracer, kb.pipeline.index))
        result.layer["index.build_s"] = kb.index_build_s
        tracer.restore()
    result.end_to_end["quality"] = _oracle_recall(
        result, kb.pipeline, _sample(pool, seed, scale.oracle_sample), live, routed=False
    )
    return _finish(result, tracer, wall, kb.model.blink.crossencoder)


#: link_under_churn: seconds between ``compact()`` calls.
COMPACT_EVERY_S = 4.0


def link_under_churn(seed: int, scale: Scale, tracer: Optional[Tracer] = None) -> RunResult:
    kb, setup_s = stack.median_setup(
        lambda: stack.kb_stack(scale.churn_kb, backend=IVFBackend(nprobe=8)), scale.setup_repeats
    )
    index = kb.pipeline.index
    pool = kb.model.mentions(kb.model.test_worlds)
    duration = scale.warmup + scale.seconds
    inputs = workloads.churn(seed, len(pool), duration, kb.kb)
    result = RunResult("link_under_churn", inputs.fingerprint)
    if tracer is not None:
        layers.trace_pipeline(tracer, kb.pipeline)

    # RetrieveStage resolves ids after the search returns, so a remove that
    # lands in between makes link raise KeyError at this commit.  Removes
    # therefore take turns with reads; adds, updates and compact run beside
    # them.  The wait for a turn is not part of the remove's latency.
    removes_take_turns = threading.Lock()
    stop = threading.Event()
    write_ms: List[float] = []
    write_at: List[float] = []
    late_ms: List[float] = []
    write_errors: List[str] = []
    applied = [0]
    began = time.perf_counter()

    def mutate() -> None:
        next_compact = began + COMPACT_EVERY_S
        for number, mutation in enumerate(inputs.script):
            due = began + number / workloads.CHURN_OPS_PER_S
            while not stop.is_set():
                remaining = due - time.perf_counter()
                if remaining <= 0:
                    break
                time.sleep(remaining)
            if stop.is_set():
                return
            late_ms.append((time.perf_counter() - due) * 1000.0)
            turn = removes_take_turns if mutation.kind == "remove" else nullcontext()
            with turn:
                started = time.perf_counter()
                try:
                    if mutation.kind == "add":
                        index.add_entities([mutation.entity], mutation.vector[None, :])
                    elif mutation.kind == "update":
                        index.update_entities([mutation.entity], mutation.vector[None, :])
                    else:
                        index.remove_entities([mutation.entity.entity_id])
                except Exception as error:
                    write_errors.append(f"{mutation.kind} raised {error!r}")
                    return
                finished = time.perf_counter()
            write_ms.append((finished - started) * 1000.0)
            write_at.append(started)
            applied[0] = number + 1
            if finished >= next_compact:
                index.compact()
                next_compact += COMPACT_EVERY_S

    mutator = threading.Thread(target=mutate, name="perf-mutator")
    mutator.start()
    window_start = began + scale.warmup
    window_end = window_start + scale.seconds
    read_ms: List[float] = []
    reads = 0
    try:
        while time.perf_counter() < window_end:
            batch = [pool[int(p)] for p in inputs.reads[reads % len(inputs.reads)]]
            reads += 1
            with removes_take_turns:
                started = time.perf_counter()
                try:
                    linked = kb.pipeline.link(batch)
                except Exception as error:
                    result.fail(len(batch), f"link raised {error!r}")
                    continue
                finished = time.perf_counter()
            result.fail(_malformed_candidates(linked, stack.KB_K), "candidate list short or out of order")
            if started >= window_start and finished <= window_end:
                read_ms.append((finished - started) * 1000.0)
    finally:
        stop.set()
        mutator.join()
    wall = time.perf_counter() - began
    result.fail(len(write_errors), "; ".join(write_errors))
    in_window = [ms for ms, at in zip(write_ms, write_at) if window_start <= at < window_end]
    result.attempted = reads * workloads.CHURN_READ_BATCH + applied[0] + len(write_errors)
    result.end_to_end.update({
        "latency_p50_ms": float(np.median(in_window)),
        # Reads per second of the window, not of read time: time lost to the
        # writer (the GIL, a remove's turn) is the cost being measured.
        "throughput_per_s": len(read_ms) * workloads.CHURN_READ_BATCH / scale.seconds,
        "setup_s": setup_s,
    })
    result.notes.update(latency_samples=len(in_window), read_calls=len(read_ms))
    if tracer is not None:
        result.layer.update(layers.pipeline_metrics(tracer))
        result.layer.update(layers.index_metrics(tracer, index))
        result.layer.update({
            "index.build_s": kb.index_build_s,
            "index.mutations_applied": float(applied[0]),
            "index.mutation_late_p99_ms": float(np.percentile(late_ms, 99.0)),
        })
        tracer.restore()
    live = workloads.live_after(kb.kb, inputs.script[:applied[0]])
    result.end_to_end["quality"] = _oracle_recall(
        result, kb.pipeline, _sample(pool, seed, scale.oracle_sample), live, routed=True
    )
    return _finish(result, tracer, wall, kb.model.blink.crossencoder)


# ----------------------------------------------------------------------
# fewshot_train
# ----------------------------------------------------------------------
#: Recipe sizes (see stack.FEWSHOT_*): rewriter pairs per source world,
#: synthetic pairs trained on, cross-encoder examples.
REWRITER_PAIRS_PER_WORLD = 10
SYNTHETIC_PAIRS = 32
CROSSENCODER_EXAMPLES = 12
#: Fixed per world so its trained model, and so ``quality``, repeats exactly.
GENERATION_SEED = 13
TRAINING_SEED = 6


def fewshot_train(seed: int, scale: Scale, tracer: Optional[Tracer] = None) -> RunResult:
    context, setup_s = stack.median_setup(stack.fewshot_stack, scale.setup_repeats)
    worlds = context.corpus.domain_names(split="test")
    order, fingerprint = workloads.world_order(seed, worlds)
    result = RunResult("fewshot_train", fingerprint)
    engines = layers.trace_training(tracer) if tracer is not None else []
    config = context.config

    recipe_ms: List[float] = []
    train_s = trained_pairs = decoded_tokens = 0
    accuracy: Dict[str, float] = {}
    trainer = None
    began = time.perf_counter()
    # At least one recipe per world, so quality is the same mean in every run.
    while len(recipe_ms) < len(order) or time.perf_counter() - began < scale.seconds:
        world = order[len(recipe_ms) % len(order)]
        entities = context.corpus.entities(world)
        split = context.splits[world]
        span = tracer.span("recipe", request=f"{world}#{len(recipe_ms)}") if tracer else nullcontext()
        started = time.perf_counter()
        with span:
            bundle = build_bundle(
                context.corpus, world, tokenizer=context.tokenizer,
                rewriter_config=config.rewriter, per_entity=1, include_syn_star=False,
                limit_per_domain=REWRITER_PAIRS_PER_WORLD, seed=GENERATION_SEED,
            )
            synthetic = bundle.syn[:SYNTHETIC_PAIRS]
            seed_pairs = few_shot_seed(
                pairs_from_mentions(context.corpus, world, split.train, source="seed")
            )
            trainer = MetaBlinkTrainer(
                context.tokenizer, config.biencoder, config.crossencoder, config.meta
            )
            train_started = time.perf_counter()
            trainer.train(
                synthetic, seed_pairs, candidate_pool=entities,
                max_crossencoder_examples=CROSSENCODER_EXAMPLES, seed=TRAINING_SEED,
            )
            train_s += time.perf_counter() - train_started
            serving = EntityLinkingPipeline.from_blink(
                trainer.pipeline, entities=entities, k=config.recall_k
            )
            if tracer is not None:
                tracer.wrap(serving, "link", "eval.link", work=len)
            evaluation = evaluate_pipeline(serving, split.test)
        recipe_ms.append((time.perf_counter() - started) * 1000.0)
        trained_pairs += len(synthetic)
        decoded_tokens += sum(len(pair.mention.surface.split()) for pair in bundle.syn)
        accuracy.setdefault(world, evaluation.metrics.unnormalized_accuracy / 100.0)

        finite = all(
            np.isfinite(parameter.data).all()
            for model in (trainer.pipeline.biencoder, trainer.pipeline.crossencoder)
            for parameter in model.parameters()
        )
        result.fail(int(not finite), f"non-finite model parameter after training on {world}")
        result.fail(int(len(bundle.syn) != len(bundle.exact_match)),
                    f"rewriting changed the number of pairs on {world}")
        unlinked = sum(
            1 for p in evaluation.predictions if p.predicted_entity_id not in p.candidate_ids
        ) + abs(len(evaluation.predictions) - len(split.test))
        result.fail(unlinked, f"test mention without a prediction among its candidates on {world}")
    wall = time.perf_counter() - began
    result.attempted = len(recipe_ms)
    result.end_to_end.update({
        "latency_p50_ms": float(np.median(recipe_ms)),
        "throughput_per_s": trained_pairs / train_s,
        "quality": float(np.mean(list(accuracy.values()))),
        "setup_s": setup_s,
    })
    result.notes.update(latency_samples=len(recipe_ms), accuracy_by_world=accuracy)
    if tracer is not None:
        result.layer.update(layers.training_metrics(tracer, engines, len(recipe_ms), decoded_tokens))
    return _finish(result, tracer, wall, trainer.pipeline.crossencoder)


RUNNERS: Dict[str, Callable[[int, Scale, Optional[Tracer]], RunResult]] = {
    "serve_steady": partial(_serve, "serve_steady"),
    "serve_saturated": partial(_serve, "serve_saturated"),
    "link_large_kb": link_large_kb,
    "link_under_churn": link_under_churn,
    "fewshot_train": fewshot_train,
}
