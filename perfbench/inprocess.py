"""In-process work: client replay, reference solves and the traced run.

The traced run re-executes a workload's queries through each layer's
public functions and wraps every call in a span recorded here; nothing
inside ``src/`` is instrumented.  Spans stay in memory (name, trace id,
parent, start, end, attributes) and are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import itertools
import json
import shutil
import time
from pathlib import Path
from statistics import median
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from harness import Expected, Query, Tally


class Tracer:
    """Spans kept in memory; a disabled tracer records nothing."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: List[dict] = []
        self._stack: List[dict] = []
        self._ids = itertools.count(1)

    @contextlib.contextmanager
    def span(self, name: str, **attrs) -> Iterator[dict]:
        if not self.enabled:
            yield attrs
            return
        parent = self._stack[-1] if self._stack else None
        span_id = next(self._ids)
        record = {
            "id": span_id,
            "name": name,
            "trace": parent["trace"] if parent else span_id,
            "parent": parent["id"] if parent else None,
            "attrs": attrs,
        }
        self._stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield attrs
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(record)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="ascii") as handle:
            for span in sorted(self.spans, key=lambda s: s["start"]):
                handle.write(json.dumps(span, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# client-side checks (every run)
# ----------------------------------------------------------------------


def verify(
    queries: Sequence[Query],
    expected: Expected,
    verdicts: Dict[Query, str],
    tally: Tally,
    tracer: Optional[Tracer] = None,
) -> float:
    """What an untrusting client pays: ``replay_artifact(loads(bytes))``
    over every served cold artifact.  Returns the wall time in seconds."""
    from repro.certificates.canonical import CertificateError
    from repro.certificates.models import build_model
    from repro.certificates.replay import replay_artifact
    from repro.certificates.store import loads

    tracer = tracer or Tracer(enabled=False)
    # The client builds every model itself: nothing cached by an earlier
    # pass or by the traced re-execution.
    build_model.cache_clear()
    gc.collect()
    start = time.perf_counter()
    for query in queries:
        data = expected.data.get(query)
        if data is None:
            continue  # never served; already counted as failed
        with tracer.span("verify", model=query[0]):
            try:
                with tracer.span("store.loads"):
                    artifact = loads(data.decode("ascii"))
                with tracer.span("replay.replay"):
                    outcome = replay_artifact(artifact)
            except (CertificateError, UnicodeDecodeError) as exc:
                tally.fail(f"{query}: replay rejected the served artifact: {exc}", wrong=True)
                continue
        if outcome.verdict != verdicts[query]:
            tally.fail(f"{query}: replayed verdict {outcome.verdict!r}, expected {verdicts[query]!r}")
    return time.perf_counter() - start


def reference(queries: Sequence[Query], expected: Expected, tally: Tally, store: Path) -> None:
    """Each served cold artifact must equal ``solve_query`` run here.

    ``store`` keeps the reference digests of one source tree (the caller
    names it by the tree's sha256), so a checkout solves each reference
    once; the artifacts are deterministic functions of the source.
    """
    from repro.service.specs import QuerySpec, solve_query

    known = json.loads(store.read_text(encoding="ascii")) if store.exists() else {}
    for query in queries:
        if query not in expected.data:
            continue
        name = "/".join(query)
        if name not in known:
            text = solve_query(QuerySpec(*query), workers=1)
            known[name] = hashlib.sha256(text.encode("ascii")).hexdigest()
        if known[name] != expected.digest[query]:
            tally.fail(f"{query}: served bytes differ from an in-process solve_query", wrong=True)
    store.parent.mkdir(parents=True, exist_ok=True)
    store.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n", encoding="ascii")


# ----------------------------------------------------------------------
# the traced re-execution
# ----------------------------------------------------------------------


class LayerPass:
    """One query set through the layers, as the server's cold path runs it."""

    def __init__(self, tracer: Tracer, cache_dir: Path, max_bytes: Optional[int],
                 workers: int = 1, remote_workers: Optional[List[str]] = None):
        from repro.service.cache import CertificateCache

        self.tracer = tracer
        self.cache = CertificateCache(cache_dir, max_bytes=max_bytes)
        self.workers = workers
        self.remote_workers = remote_workers
        self.candidates = 0
        self.journal_bytes = 0
        #: ``(dispatch, fault_log)`` of each sweep; the reports themselves
        #: hold whole certificates and are dropped.
        self.accounts: List[Tuple[object, object]] = []
        self.payloads: Dict[Query, bytes] = {}

    def cold(self, queries: Sequence[Query]) -> float:
        from repro.certificates.models import build_model

        # Every pass builds its models afresh, as a new server process does.
        build_model.cache_clear()
        gc.collect()
        start = time.perf_counter()
        for query in queries:
            with self.tracer.span("query", model=query[0], obligation=query[1]):
                self._cold_one(query)
        return time.perf_counter() - start

    def _cold_one(self, query: Query) -> None:
        from repro.certificates.canonical import program_digest
        from repro.certificates.certs import FixpointCertificate, InvariantCertificate
        from repro.certificates.store import wrap
        from repro.core.kbp import solve_si
        from repro.predicates import limits, using_backend
        from repro.service.specs import QuerySpec, cache_key, resolve_model
        from repro.transformers import sst

        span = self.tracer.span
        spec = QuerySpec(*query)
        with span("models.build"):
            model = resolve_model(spec)
        with span("specs.cache_key"):
            key = cache_key(spec, model=model)
        with span("cache.get"):
            if self.cache.get(key) is not None:
                raise RuntimeError(f"{query}: traced cold pass found a cached entry")
        journal = self.cache.journal_path(key)
        program = model.program
        with using_backend("auto"):
            if spec.obligation == "si-solve":
                with span("kbp.certified_sweep"):
                    report = solve_si(
                        program, emit_certificate=True, workers=self.workers,
                        checkpoint=journal, remote_workers=self.remote_workers,
                    )
                self.candidates += report.candidates_checked
                self.accounts.append((report.dispatch, report.fault_log))
                certificate = report.certificate
            else:
                symbolic = program.space.size > limits.get_limit("explicit")
                with span("robdd.chain" if symbolic else "sst.chain"):
                    result = sst(program, program.init)
                certificate = FixpointCertificate(
                    claim="si", program=program_digest(program),
                    seed=program.init, chain=result.chain,
                )
                if spec.obligation == "invariant":
                    label, predicate = model.safety_obligations[0]
                    if not result.predicate.entails(predicate):
                        raise RuntimeError(f"{query}: obligation {label!r} fails")
                    certificate = InvariantCertificate(si=certificate, predicate=predicate, label=label)
        with span("store.wrap"):
            artifact = wrap(certificate, spec.model)
        with span("store.dumps"):
            payload = (artifact.dumps() + "\n").encode("ascii")
        if journal.exists():
            self.journal_bytes += journal.stat().st_size
        with span("cache.put"):
            self.cache.put(key, payload, meta={"model": spec.model, "obligation": spec.obligation})
        self.cache.clear_journal(key)
        self.payloads[query] = payload



def hits(tracer: Tracer, cache_dir: Path, queries: Sequence[Query], count: int,
         tally: Tally, expected: Expected) -> List[float]:
    """The server's hot path without the wire: seconds per hit."""
    from repro.service.cache import CertificateCache
    from repro.service.specs import QuerySpec, cache_key, resolve_model

    cache = CertificateCache(cache_dir)
    span = tracer.span
    samples = []
    for i in range(count):
        query = queries[i % len(queries)]
        start = time.perf_counter()
        with span("hit", model=query[0]):
            with span("specs.cache_key"):
                spec = QuerySpec.from_request({"model": query[0], "obligation": query[1]})
                key = cache_key(spec, model=resolve_model(spec))
            with span("cache.get"):
                data = cache.get(key)
        samples.append(time.perf_counter() - start)
        if data != expected.data.get(query):
            tally.fail(f"{query}: in-process hit differs from the served bytes", wrong=True)
    return samples


def sweep_attribution(repeats: int = 5) -> Dict[str, float]:
    """The uncertified ``kbp24-f12`` sweep three ways, to split the old
    headline ``parallel_speedup`` into batching and process gains."""
    from repro.certificates.models import build_model
    from repro.core.kbp import solve_si
    from repro.core.parallel import solve_si_parallel

    program = build_model("kbp24-f12").program

    def timed(fn) -> float:
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start

    serial = timed(lambda: solve_si(program, parallel="never"))
    w1 = median([timed(lambda: solve_si_parallel(program, workers=1)) for _ in range(repeats)])
    w2 = median([timed(lambda: solve_si_parallel(program, workers=2)) for _ in range(repeats)])
    return {
        "sweep.serial_s": serial,
        "sweep.batched_w1_s": w1,
        "sweep.batched_w2_s": w2,
        "sweep.batching_gain": serial / w1,
        "sweep.process_gain": w1 / w2,
    }


def dispatch_counters(accounts: Sequence[Tuple[object, object]]) -> Dict[str, float]:
    """Transport and supervisor counters summed over the pass's solves."""
    out = {
        "transport.frames_sent": 0.0,
        "transport.net_bytes": 0.0,
        "transport.bytes_per_shard": 0.0,
        "transport.workers_lost": 0.0,
        "transport.retries": 0.0,
        "supervisor.incidents": 0.0,
    }
    shards = shard_bytes = 0
    for stats, log in accounts:
        if stats is not None:
            out["transport.frames_sent"] += stats.frames_sent
            out["transport.net_bytes"] += stats.net_bytes_sent + stats.net_bytes_received
            out["transport.workers_lost"] += stats.workers_lost
            out["transport.retries"] += sum(stats.worker_retries.values())
            shards += stats.shards_dispatched
            shard_bytes += stats.bytes_dispatched
        if log is not None:
            out["supervisor.incidents"] += len(log.incidents)
    out["transport.bytes_per_shard"] = shard_bytes / shards if shards else 0.0
    return out


def warm_imports(scratch: Path) -> None:
    """Pay lazy imports and first-call costs before anything is timed."""
    from repro.certificates.replay import replay_artifact
    from repro.certificates.store import loads

    tracer = Tracer(enabled=False)
    layer = LayerPass(tracer, scratch, None)
    layer.cold([("fig1", "si-solve"), ("seqtrans-standard-L1-reliable", "invariant")])
    for payload in layer.payloads.values():
        replay_artifact(loads(payload.decode("ascii")))
    shutil.rmtree(scratch, ignore_errors=True)
