"""The four benchmark workloads, driven only through ``repro``'s public API.

Each workload has a ``setup`` (inputs, built from the seed where the work
does not depend on the input values) and a ``run_pass`` that does one
repetition of the timed work, checks every output and returns a
:class:`PassResult`.

Fit inputs are fixed.  The Y-step's work depends on the input far more
than on the machine: on a 2-vCPU box an AnchorMVSC fit at n=2000 took
2.9-9.3 s over five data seeds and 3.1-8.1 s over five row orders of one
set, and a 16-batch stream took 2.9-3.6 s over four stream seeds.  A
seed-drawn fit input would therefore measure the input, not the code, so
the seed drives only the serving traffic, whose cost does not depend on
the values it carries.
"""

from __future__ import annotations

import functools
import hashlib
import math
import time
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass, field

import numpy as np

from repro import (
    AnchorMVSC,
    ModelArtifact,
    PredictionService,
    Predictor,
    ReproError,
    ServiceOverloadedError,
    SparseMVSC,
    StreamingMVSC,
    UnifiedMVSC,
    load_benchmark,
    make_multiview_blobs,
)
from repro.datasets.scenarios import StreamDrift, get_scenario, stream_batches
from repro.metrics.report import evaluate_clustering

#: Random state of every model: the solvers' only stochastic input.
MODEL_SEED = 0


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, problem: str | None = None) -> bool:
        """Count one operation; ``problem`` marks it failed."""
        self.attempted += 1
        if problem:
            self.failed += 1
            self.problems.append(problem)
        return not problem


@dataclass
class PassResult:
    """One repetition of a workload's timed work."""

    work_s: float
    p50_s: float  # median latency of one operation
    digest: str  # hash of every output of the pass
    acc: float
    nmi: float
    named: dict  # per-pass values of the workload's own metrics
    counters: dict = field(default_factory=dict)
    windows: dict = field(default_factory=dict)  # rate -> (start, end)
    # Median latency of each block of consecutive operations, where the
    # workload takes its run-level p50 from blocks (see ServeOpenloop).
    block_p50_s: list = field(default_factory=list)


def label_problem(labels, n: int, c: int, *, every_cluster: bool = True):
    """Why ``labels`` is not a valid clustering of n rows into c clusters."""
    labels = np.asarray(labels)
    if labels.shape != (n,):
        return f"expected {n} labels, got shape {labels.shape}"
    if n and (labels.min() < 0 or labels.max() >= c):
        return f"labels outside [0, {c})"
    if every_cluster and np.unique(labels).size != c:
        return f"{c - np.unique(labels).size} empty cluster(s)"
    return None


def digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
        h.update(b"|")
    return h.hexdigest()


def nearest_rank(values, q: float) -> float:
    """The q-th percentile by nearest rank: p99 of 1000 has 10 above it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def quality(truth, labels) -> tuple[float, float]:
    scores = evaluate_clustering(truth, labels, metrics=("acc", "nmi"))
    return scores["acc"], scores["nmi"]


class Workload:
    """Inputs from ``setup``; one checked repetition from ``run_pass``."""

    name = ""

    def __init__(self, seed: int, latency_limit_ms: float) -> None:
        self.seed = seed
        self.limit_ms = latency_limit_ms

    def run_p50_s(self, passes) -> float:
        """The run's p50 latency: the median over passes of each pass's."""
        return float(np.median([p.p50_s for p in passes]))


class PaperTables(Workload):
    """UnifiedMVSC, default hyperparameters, on five paper replicas."""

    name = "paper_tables"
    datasets = ("three_sources", "bbcsport", "msrcv1", "orl", "yale")

    def setup(self) -> None:
        self.data = [load_benchmark(name) for name in self.datasets]

    def run_pass(self, tally: Tally) -> PassResult:
        ops, outputs, accs, nmis = [], [], [], []
        for ds in self.data:
            tick = time.perf_counter()
            try:
                labels = UnifiedMVSC(
                    ds.n_clusters, random_state=MODEL_SEED
                ).fit(ds.views).labels
            except ReproError as exc:
                tally.op(f"{ds.name}: {exc!r}")
                ops.append(math.inf)
                continue
            ops.append(time.perf_counter() - tick)
            if tally.op(label_problem(labels, ds.n_samples, ds.n_clusters)):
                acc, nmi = quality(ds.labels, labels)
                accs.append(acc)
                nmis.append(nmi)
            outputs.append(labels)
        acc, nmi = float(np.mean(accs or [0.0])), float(np.mean(nmis or [0.0]))
        fit_s = sum(ops)
        return PassResult(
            work_s=fit_s,
            p50_s=nearest_rank(ops, 50),
            digest=digest(outputs),
            acc=acc,
            nmi=nmi,
            named={"fit_s": fit_s, "acc_mean": acc, "nmi_mean": nmi},
        )

    def named(self, passes) -> list:
        return _median_named(passes, (
            ("fit_s", "s"), ("acc_mean", "ratio"), ("nmi_mean", "ratio"),
        ))


class ScaleFit(Workload):
    """AnchorMVSC and SparseMVSC cold fits on one n=2000 blob set.

    The anchor fit runs three times per pass: one fit lasts about 2.5 s,
    and single fits that short swung +-20% with host load on a 2-vCPU box.
    """

    name = "scale_fit"
    solvers = (AnchorMVSC, AnchorMVSC, AnchorMVSC, SparseMVSC)

    def setup(self) -> None:
        self.data = make_multiview_blobs(
            2000, 4, view_dims=(20, 30), separation=5.0, random_state=0
        )

    def run_pass(self, tally: Tally) -> PassResult:
        ds = self.data
        outputs, seconds, scores = [], {}, {}
        for solver in self.solvers:
            tick = time.perf_counter()
            try:
                labels = solver(
                    ds.n_clusters, random_state=MODEL_SEED
                ).fit_predict(ds.views)
            except ReproError as exc:
                tally.op(f"{solver.__name__}: {exc!r}")
                seconds.setdefault(solver, []).append(math.inf)
                continue
            seconds.setdefault(solver, []).append(time.perf_counter() - tick)
            if tally.op(label_problem(labels, ds.n_samples, ds.n_clusters)):
                scores[solver] = quality(ds.labels, labels)
            outputs.append(labels)
        acc = float(np.mean([a for a, _ in scores.values()] or [0.0]))
        nmi = float(np.mean([n for _, n in scores.values()] or [0.0]))
        anchor_s = nearest_rank(seconds[AnchorMVSC], 50)
        return PassResult(
            work_s=sum(sum(v) for v in seconds.values()),
            p50_s=anchor_s,
            digest=digest(outputs),
            acc=acc,
            nmi=nmi,
            named={
                "anchor_fit_s": anchor_s,
                "sparse_fit_s": seconds[SparseMVSC][0],
                "acc_mean": acc,
                "nmi_mean": nmi,
            },
        )

    def named(self, passes) -> list:
        return _median_named(passes, (
            ("anchor_fit_s", "s"), ("sparse_fit_s", "s"),
            ("acc_mean", "ratio"), ("nmi_mean", "ratio"),
        ))


class ServeOpenloop(Workload):
    """Open-loop single-row traffic into a PredictionService.

    One pass is one cycle of three rate phases.  Each phase replays a
    schedule fixed in set-up from the seed, through a fresh service, and
    times each request from its due time.  The schedule is Poisson arrivals
    carrying every pool row once, in a seeded order, so each phase asks the
    same questions and served quality is exact.

    After each phase a closed loop asks ``Predictor.predict`` for the same
    rows one at a time on the caller's thread; that is the gated p50.  The
    open-loop p50 is not gated: an unqueued open-loop request spends about
    two thirds of its latency waiting for the service worker to wake, which
    measures the host's scheduler rather than the program.

    A shared host slows this Python-bound call 1.5-2x for stretches of
    0.1 s to 20 s: medians of 100 consecutive calls read 0.16-0.19 ms in
    quiet stretches and 0.25-0.36 ms in slow ones, and a 15 s run's plain
    median moved 20% between runs.  So the run's p50 is the median latency
    of a quiet stretch: the 10th percentile, over the run, of the medians
    of 100-call blocks.  The plain median is printed as ``p50_ms.direct``.
    """

    name = "serve_openloop"
    rates = (("low", 500.0), ("mid", 2000.0), ("high", 5000.0))
    n_train = 2000
    #: Requests per phase; at least 1000, so p99 has ten samples beyond it.
    n_pool = 1000
    #: Counters the arrival timing decides: coalescing sets the batch count.
    timing_dependent = ("serving.predict_calls",)
    #: Closed-loop calls per block, and the percentile of block medians
    #: that gives the run's p50.
    block = 100
    quiet_percentile = 10

    def setup(self) -> None:
        ds = make_multiview_blobs(
            self.n_train + self.n_pool, 4, view_dims=(16, 24), random_state=0
        )
        artifact = ModelArtifact(
            model_class="UnifiedMVSC",
            train_views=[v[: self.n_train] for v in ds.views],
            train_labels=ds.labels[: self.n_train],
            view_weights=np.array([0.5, 0.5]),
            n_clusters=ds.n_clusters,
        )
        self.predictor = Predictor(artifact)
        pool = [v[self.n_train:] for v in ds.views]
        self.pool = pool
        self.truth = ds.labels[self.n_train:]
        # The oracle every service answer must equal.
        self.reference = self.predictor.predict(pool)
        rng = np.random.default_rng(self.seed)
        self.schedules = {}
        for rate_name, rate in self.rates:
            due = np.cumsum(rng.exponential(1.0 / rate, self.n_pool))
            rows = rng.permutation(self.n_pool)
            samples = [[v[r] for v in pool] for r in rows]
            self.schedules[rate_name] = (due, rows, samples)

    def _phase(self, rate_name: str, tally: Tally):
        due, rows, samples = self.schedules[rate_name]
        n = len(due)
        done = np.full(n, math.inf)
        late = np.zeros(n)
        futures = [None] * n

        def finished(i, future):
            done[i] = time.perf_counter()

        with PredictionService(
            self.predictor, max_batch=64, max_latency_ms=0.0
        ) as service:
            due_at = time.perf_counter() + 0.002 + due
            for i in range(n):
                # Sleep even when behind schedule: a generator that spins
                # holds the GIL and starves the service worker.
                time.sleep(max(0.0, due_at[i] - time.perf_counter()))
                late[i] = time.perf_counter() - due_at[i]
                try:
                    futures[i] = service.submit(samples[i])
                except ServiceOverloadedError:
                    continue
                futures[i].add_done_callback(functools.partial(finished, i))
            answers = np.full(n, -1)
            for i, future in enumerate(futures):
                if future is None:
                    tally.op(f"{rate_name} request {i} refused")
                    continue
                try:
                    answers[i] = future.result(timeout=30.0)
                except (ReproError, FutureTimeout) as exc:
                    done[i] = math.inf
                    tally.op(f"{rate_name} request {i}: {exc!r}")
                    continue
                expected = self.reference[rows[i]]
                if not tally.op(
                    None if answers[i] == expected else
                    f"{rate_name} request {i}: service answered "
                    f"{answers[i]}, serial predict {expected}"
                ):
                    done[i] = math.inf  # a wrong answer misses every limit
            stats = service.stats()
        latency = done - due_at
        finite = done[np.isfinite(done)]
        window = (due_at[0], float(finite.max()) if finite.size else due_at[-1])
        return latency, late, answers, stats, window

    def _direct(self, rate_name: str, tally: Tally):
        """Closed-loop single-row ``Predictor.predict``, in a phase's order."""
        rows = self.schedules[rate_name][1]
        latency = np.full(rows.size, math.inf)
        answers = np.full(rows.size, -1)
        for i, r in enumerate(rows):
            query = [v[r:r + 1] for v in self.pool]
            tick = time.perf_counter()
            try:
                answer = self.predictor.predict(query)
            except ReproError as exc:
                tally.op(f"direct request {i}: {exc!r}")
                continue
            elapsed = time.perf_counter() - tick
            answers[i] = answer[0] if answer.shape == (1,) else -1
            if tally.op(
                None if answers[i] == self.reference[r] else
                f"direct request {i}: predict answered {answer!r}, "
                f"serial predict {self.reference[r]}"
            ):
                latency[i] = elapsed
        return latency, answers

    def run_pass(self, tally: Tally) -> PassResult:
        outputs, direct_outputs, named, windows = [], [], {}, {}
        rejected = 0
        late_all, direct, blocks = [], [], []
        for rate_name, _ in self.rates:
            latency, late, answers, stats, window = self._phase(
                rate_name, tally
            )
            lat_ms = list(latency * 1e3)
            outputs.append(answers)
            late_all.extend(late)
            windows[rate_name] = window
            rejected += stats.rejected
            named[f"p50_ms.{rate_name}"] = nearest_rank(lat_ms, 50)
            named[f"p99_ms.{rate_name}"] = nearest_rank(lat_ms, 99)
            named[f"batch_mean.{rate_name}"] = (
                stats.completed / max(stats.batches, 1)
            )
            latency, answers = self._direct(rate_name, tally)
            direct.extend(latency * 1e3)
            blocks.extend(
                nearest_rank(latency[i:i + self.block], 50)
                for i in range(0, latency.size, self.block)
            )
            direct_outputs.append(answers)
        answers = np.concatenate(outputs)
        truth = np.concatenate([self.truth[s[1]] for s in self.schedules.values()])
        ok = answers >= 0
        acc, nmi = quality(truth[ok], answers[ok])
        named["gen_late_ms.p99"] = nearest_rank(late_all, 99) * 1e3
        outputs.extend(direct_outputs)
        named["p50_ms.direct"] = nearest_rank(direct, 50)
        return PassResult(
            work_s=sum(end - start for start, end in windows.values()),
            p50_s=nearest_rank(blocks, self.quiet_percentile),
            digest=digest(outputs),
            acc=acc,
            nmi=nmi,
            named=named,
            counters={"serving.rejected": rejected,
                      "gen_late_ms.p99": named["gen_late_ms.p99"]},
            windows=windows,
            block_p50_s=blocks,
        )

    def run_p50_s(self, passes) -> float:
        blocks = [b for p in passes for b in p.block_p50_s]
        return nearest_rank(blocks, self.quiet_percentile)

    def named(self, passes) -> list:
        out = _median_named(passes, [
            (f"{stat}_ms.{rate}", "ms")
            for rate, _ in self.rates for stat in ("p50", "p99")
        ] + [(f"batch_mean.{rate}", "rows") for rate, _ in self.rates]
          + [("gen_late_ms.p99", "ms"), ("p50_ms.direct", "ms")])
        p99 = {name: value for name, value, _ in out}
        meeting = [
            rate for name, rate in self.rates
            if p99[f"p99_ms.{name}"] <= self.limit_ms
        ]
        out.append(("max_ok_rps", max(meeting, default=0.0), "req/s"))
        return out


class StreamAdapt(Workload):
    """StreamingMVSC over a drifting stream, serving beside the updates."""

    name = "stream_adapt"
    n_batches = 16
    batch_rows = 200

    def setup(self) -> None:
        scenario = get_scenario("confused_pairs").with_size(self.batch_rows)
        self.n_clusters = scenario.n_clusters
        self.batches = stream_batches(
            scenario,
            self.n_batches,
            drift=StreamDrift(at_batch=8, mean_shift=4.0, imbalance=5.0),
            random_state=0,
        )
        self.truth = np.concatenate([b.labels for b in self.batches])

    def run_pass(self, tally: Tally) -> PassResult:
        c = self.n_clusters
        streamer = StreamingMVSC(AnchorMVSC(c, random_state=MODEL_SEED))
        predictor = None
        updates, queries, outputs = [], [], []
        fit_s = 0.0
        labels = None
        for i, batch in enumerate(self.batches):
            tick = time.perf_counter()
            try:
                labels = streamer.partial_fit(batch.views)
                fitted = time.perf_counter()
                new = labels[-batch.n_samples:]
                if predictor is None:
                    predictor = Predictor(streamer.model.to_artifact())
                else:
                    predictor.adapt(batch.views, labels=new)
            except ReproError as exc:
                tally.op(f"batch {i} update: {exc!r}")
                updates.append(math.inf)
                break
            updates.append(time.perf_counter() - tick)
            fit_s += fitted - tick
            # Checks the label count against n_seen_ as well.
            problem = label_problem(labels, streamer.n_seen_, c)
            tally.op(problem and f"batch {i} update: {problem}")
            outputs.append(labels)
            if i + 1 == len(self.batches):
                break
            nxt = self.batches[i + 1]
            tick = time.perf_counter()
            try:
                answer = predictor.predict(nxt.views)
            except ReproError as exc:
                tally.op(f"batch {i + 1} query: {exc!r}")
                queries.append(math.inf)
                continue
            queries.append(time.perf_counter() - tick)
            problem = label_problem(
                answer, nxt.n_samples, c, every_cluster=False
            )
            tally.op(problem and f"batch {i + 1} query: {problem}")
            outputs.append(answer)
        actions = [r.action for r in streamer.history]
        if labels is not None and labels.shape == self.truth.shape:
            acc, nmi = quality(self.truth, labels)
        else:
            acc = nmi = 0.0
        named = {
            "fit_s": fit_s,
            "update_p50_ms": nearest_rank(updates, 50) * 1e3,
            "query_p50_ms": nearest_rank(queries or [math.inf], 50) * 1e3,
            "acc_mean": acc,
            "nmi_mean": nmi,
        }
        return PassResult(
            work_s=sum(updates) + sum(queries),
            p50_s=nearest_rank(updates, 50),
            digest=digest(outputs),
            acc=acc,
            nmi=nmi,
            named=named,
            counters={
                f"streaming.{action}": actions.count(action)
                for action in ("fold_in", "partial_refit", "full_refit")
            },
        )

    def named(self, passes) -> list:
        return _median_named(passes, (
            ("fit_s", "s"), ("update_p50_ms", "ms"), ("query_p50_ms", "ms"),
            ("acc_mean", "ratio"), ("nmi_mean", "ratio"),
        ))


def _median_named(passes, keys) -> list:
    return [
        (key, float(np.median([p.named[key] for p in passes])), unit)
        for key, unit in keys
    ]


WORKLOADS = {
    w.name: w for w in (PaperTables, ScaleFit, ServeOpenloop, StreamAdapt)
}
