"""The certificate-service benchmark: ``python3 perfbench/run.py``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload hot-read --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --all --seed 1        # every workload in turn

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Lines before it give every metric by name with its unit, the server's
``status`` counters and the run's host metadata; the same record, and the
traced run's spans, are written under ``.perfbench/`` in the checkout.
The exit code is 0 only when every served byte checked out.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import (  # noqa: E402
    BenchError, Tally, adopt_orphans, pin_to_fastest_cpu, reap_children, start_workers, stop_all,
)
from stats import self_times, tail  # noqa: E402
from workloads import CACHE_BUDGET, FANOUT_DAEMONS, VERDICTS, WORKLOADS, Run  # noqa: E402

HOT_LOOP_HITS = 400
#: Client replays of the cold artifacts per untraced run; ``verify_s`` is
#: the median over them.
VERIFY_PASSES = 3
COLD_LAYERS = ("models.build", "specs.cache_key", "cache.get", "kbp.certified_sweep",
               "sst.chain", "robdd.chain", "store.wrap", "store.dumps", "cache.put")


def load_benchmark(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))


def metadata(root: Path, workload: str, seed: int, seconds: float, traced: bool) -> dict:
    import numpy

    from repro.predicates import get_default_backend

    backend = get_default_backend()
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "predicate_backend": os.environ.get("REPRO_PREDICATE_BACKEND")
        or getattr(backend, "name", str(backend)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def cpu_ticks() -> Tuple[int, int]:
    """``(steal, total)`` jiffies over all CPUs, from ``/proc/stat``."""
    with open("/proc/stat", encoding="ascii") as handle:
        fields = [int(x) for x in handle.readline().split()[1:]]
    return fields[7], sum(fields[:8])


def counters(statuses: List[dict]) -> Dict[str, int]:
    """The server ``status`` counters, summed over a run's measured servers."""
    total = dict.fromkeys(("hits", "misses", "puts", "evictions", "lru_evictions", "coalesced"), 0)
    for status in statuses:
        for name in ("hits", "misses", "puts", "evictions", "lru_evictions"):
            total[name] += status["cache"][name]
        total["coalesced"] += status["queue"]["coalesced"]
    return total


def per_layer(run: Run, root: Path, workload: str, spans_path: Path) -> Dict[str, float]:
    """Re-execute the workload's queries in-process, one span per layer call."""
    from inprocess import LayerPass, Tracer, dispatch_counters, hits, sweep_attribution, verify, warm_imports

    warm_imports(run.run_dir / "warm-imports")
    # The in-process passes mirror the workload's server: its cache budget,
    # its warmed cache and its solver workers.
    budget = CACHE_BUDGET if workload == "read-under-solve" else None

    def pass_dir(name: str) -> Path:
        path = run.cache_dir(name)
        if run.warm_template is not None:
            shutil.copytree(run.warm_template, path)
        return path

    daemons: list = []
    remote: Optional[List[str]] = None
    workers = 1
    if workload == "cold-fanout":
        workers = FANOUT_DAEMONS
        with open(run.run_dir / "daemons.log", "wb") as log:
            daemons, remote = start_workers(root, run.run_dir, workers, log, time.monotonic() + 60)
    try:
        plain = LayerPass(Tracer(enabled=False), pass_dir("untraced"), budget, workers, remote)
        untraced_cold = plain.cold(run.cold_set)
        tracer = Tracer()
        layer = LayerPass(tracer, pass_dir("traced"), budget, workers, remote)
        traced_cold = layer.cold(run.cold_set)
    finally:
        stop_all(daemons)
    for query, payload in layer.payloads.items():
        if payload != run.expected.data.get(query):
            run.tally.fail(f"{query}: traced re-execution differs from the served bytes", wrong=True)
    cold_spans = list(tracer.spans)

    # The hot loop reads the last server's cache, which holds the read set.
    args = (run.hot_cache, run.read_set, HOT_LOOP_HITS, run.tally, run.expected)
    hits(Tracer(enabled=False), *args)  # page cache and model cache warm-up
    untraced_hits = hits(Tracer(enabled=False), *args)
    traced_hits = hits(tracer, *args)
    hot_spans = tracer.spans[len(cold_spans):]
    verify(run.cold_set, run.expected, VERDICTS, run.tally, tracer)
    replay_spans = tracer.spans[len(cold_spans) + len(hot_spans):]
    tracer.write(spans_path)

    own = self_times(tracer.spans)

    def total(spans: List[dict], name: str) -> float:
        return sum(own[s["id"]] for s in spans if s["name"] == name)

    def median_ms(spans: List[dict], name: str) -> float:
        return 1e3 * median([s["end"] - s["start"] for s in spans if s["name"] == name])

    sweep_s = total(cold_spans, "kbp.certified_sweep")
    accounted = sum(total(cold_spans, name) for name in COLD_LAYERS)
    status = counters(run.statuses)
    lookups = status["hits"] + status["misses"]
    key_ms = median_ms(hot_spans, "specs.cache_key")
    get_ms = median_ms(hot_spans, "cache.get")
    return {
        "hot_p50_ms": 1e3 * median(run.hot_latency),
        "hot_p99_ms": 1e3 * tail(run.hot_latency)[1],
        "hot_capacity_qps": median(run.capacity),
        "failed_frac": run.tally.failed / max(run.tally.attempted, 1),
        "models.build_s": total(cold_spans, "models.build"),
        "kbp.certified_sweep_s": sweep_s,
        "kbp.candidates_per_s": layer.candidates / sweep_s if sweep_s else 0.0,
        "sst.chain_s": total(cold_spans, "sst.chain"),
        "robdd.chain_s": total(cold_spans, "robdd.chain"),
        "store.wrap_s": total(cold_spans, "store.wrap"),
        "store.dumps_s": total(cold_spans, "store.dumps"),
        "store.loads_s": total(replay_spans, "store.loads"),
        "replay.replay_s": total(replay_spans, "replay.replay"),
        "checkpoint.journal_bytes": float(layer.journal_bytes),
        "specs.cache_key_ms": key_ms,
        "cache.get_ms": get_ms,
        "server.residual_ms": 1e3 * median(run.idle) - key_ms - get_ms,
        "cache.put_ms": median_ms(cold_spans, "cache.put"),
        "cache.lru_evictions": float(status["lru_evictions"]),
        "cache.hit_ratio": status["hits"] / lookups if lookups else 0.0,
        "cache.hits": float(status["hits"]),
        "cache.misses": float(status["misses"]),
        "cache.puts": float(status["puts"]),
        "cache.evictions": float(status["evictions"]),
        "queue.coalesced": float(status["coalesced"]),
        **dispatch_counters(layer.accounts),
        "loadgen.late_p99_ms": 1e3 * tail(run.late)[1] if len(run.late) >= 11 else 0.0,
        **sweep_attribution(),
        "trace.cold_batch_s": traced_cold,
        "trace.residual_s": traced_cold - accounted,
        "trace.overhead_cold_batch_s": traced_cold - untraced_cold,
        "trace.overhead_hot_p50_ms": 1e3 * (median(traced_hits) - median(untraced_hits)),
    }


def run_workload(root: Path, workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """One run; returns the full record (the last output line is a subset)."""
    from inprocess import reference, verify

    bench = load_benchmark(root)
    out = root / ".perfbench"
    run_dir = out / "runs" / f"{workload}-seed{seed}-trace{int(traced)}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "tmp").mkdir(parents=True)
    tempfile.tempdir = str(run_dir / "tmp")
    meta = metadata(root, workload, seed, seconds, traced)
    run = Run(root=root, run_dir=run_dir, seed=seed, seconds=seconds, traced=traced)
    usable = os.sched_getaffinity(0)
    if not traced:
        # The traced run keeps every CPU: its sweep split times 2 processes.
        speeds = pin_to_fastest_cpu()
        meta["cpu_probe_s"] = {str(cpu): t for cpu, t in speeds.items()}
        meta["pinned_cpu"] = min(speeds, key=speeds.get)
    steal_before = cpu_ticks()
    try:
        WORKLOADS[workload](run)
        verify_passes = [verify(run.cold_set, run.expected, VERDICTS, run.tally)]
        # Later passes replay the same bytes; only their time is kept.
        verify_passes += [verify(run.cold_set, run.expected, VERDICTS, Tally())
                          for _ in range(0 if traced else VERIFY_PASSES - 1)]
        verify_s = median(verify_passes)
        reference(list(run.expected.data), run.expected, run.tally,
                  out / "reference" / f"{meta['source_sha256']}.json")
        end_to_end = run.end_to_end(verify_s)
        section = "end_to_end"
        if traced:
            (out / "spans").mkdir(parents=True, exist_ok=True)
            spans_path = out / "spans" / f"{workload}-seed{seed}.jsonl"
            metrics = per_layer(run, root, workload, spans_path)
            section = "per_layer"
            meta["spans"] = str(spans_path.relative_to(root))
        else:
            metrics = end_to_end
    finally:
        tempfile.tempdir = None
        shutil.rmtree(run_dir, ignore_errors=True)
        os.sched_setaffinity(0, usable)
    steal_after = cpu_ticks()
    # CPU time the hypervisor gave to other guests: the main source of
    # run-to-run spread on a shared host.
    meta["steal_frac"] = (steal_after[0] - steal_before[0]) / max(1, steal_after[1] - steal_before[1])
    units = {m["name"]: m["unit"] for m in bench[section]}
    missing = set(units) - set(metrics)
    if missing:
        raise BenchError(f"run produced no value for {sorted(missing)}")
    tally = run.tally
    record = {
        "meta": meta,
        "end_to_end": end_to_end,
        "failed_frac": tally.failed / max(tally.attempted, 1),
        "wrong_bytes": tally.wrong_bytes,
        "hot_samples": len(run.hot_latency),
        "hot_tail_percentile": run.tail_q,
        "hot_cache_tags": run.hot_tags,
        "setup_samples": run.setup,
        "cold_batch_samples": run.cold_batch,
        "verify_samples": verify_passes,
        "status": counters(run.statuses),
        "errors": tally.errors,
        "result": {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        },
    }
    if traced:
        record["per_layer"] = metrics
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-seed{seed}-trace{int(traced)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="ascii"
    )
    return record


def report(record: dict, bench: dict) -> None:
    """Human-readable lines: every metric by name with its unit."""
    meta = record["meta"]
    print(f"# {meta['workload']}  seed={meta['seed']}  traced={meta['traced']}  "
          f"cpus={meta['cpus']}  backend={meta['predicate_backend']}  "
          f"python={meta['python']}  numpy={meta['numpy']}  commit={meta['git_commit'][:12]}")
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    for name, value in record["end_to_end"].items():
        print(f"  {name:<22} {value:>12.4f} {units.get(name, '')}")
    print(f"  {'failed_frac':<22} {record['failed_frac']:>12.4f} 1")
    print(f"  hot tail = p{record['hot_tail_percentile']:g} of {record['hot_samples']} samples; "
          f"hot cache tags {record['hot_cache_tags']}")
    print(f"  status counters {record['status']}")
    for name, value in record.get("per_layer", {}).items():
        print(f"  {name:<30} {value:>14.4f}")
    for error in record["errors"]:
        print(f"  FAILED: {error}")
    print("# meta " + json.dumps(meta, sort_keys=True))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload in BENCHMARK.json in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement length (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.all and not args.workload:
        parser.error("name a --workload or pass --all")
    root = Path.cwd()
    if not (root / "src" / "repro" / "service" / "server.py").is_file():
        print("error: run from the root of a checkout holding src/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    bench = load_benchmark(root)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]] if args.all else [args.workload]
    ok = True
    record = None
    # Every process the run starts, and every helper those start, ends
    # before this one does: on success, on failure and on SIGTERM.
    adopt_orphans()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        for name in names:
            record = run_workload(root, name, args.seed, seconds, bool(args.trace))
            report(record, bench)
            ok = ok and record["result"]["correct"]
    finally:
        reap_children()
    if not args.all:
        print(json.dumps(record["result"], sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
