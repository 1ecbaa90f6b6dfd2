"""The sharded, batched exhaustive solver for eq. (25).

The serial sweep in :mod:`repro.core.kbp` probes every candidate
``x ⊇ init`` one at a time; its cost is ``2^(size - |init|)`` full Φ
evaluations of pure-Python kernel calls.  This module keeps the *sweep*
(completeness is non-negotiable — ``ŜP`` is not monotone, so nothing short
of exhaustion decides well-posedness) and attacks the constant factor on
two independent axes:

**Sharding.**  The candidate sublattice ``[init, true]`` is partitioned by
fixing the top ``k`` free state-bits: each of the ``2^k`` assignments names
one shard, and shards are farmed to a ``ProcessPoolExecutor`` (~4 shards
per worker, so the executor queue work-steals around uneven shard costs).
Within a shard the remaining free bits are walked in binary-reflected
Gray-code order — consecutive candidates differ in exactly one state — so
the per-worker :class:`~repro.core.kbp.CandidateResolver` term and
operational caches get maximal reuse on the fallback path.

**One sweep, one dispatch loop.**  A solve is described once, by a
picklable :class:`SweepSpec`; wherever a shard is swept — a pool process,
a ``python -m repro.worker`` session, or in-process — a
:class:`ShardSweep` built from that spec runs it.  Every sweep, in-process
or multiprocess, is driven by :class:`repro.robustness.ShardSupervisor`
over a transport from :mod:`repro.core.transport`.

**Batching.**  When the program is *batchable* — every knowledge term
non-nested, knowledge only in guards, guards Boolean over terms and
knowledge-free leaves — :func:`compile_phi_plan` freezes Φ into a
:class:`~repro.predicates.backends.batch.PhiPlan`: one flat buffer of
static masks, successor arrays and cylinder partitions plus a small
layout, and whole blocks of candidates go through the backend's
``batch_phi`` kernel at once.  On the numpy backend that is a fully
vectorized sweep over a ``(batch, words)`` uint64 matrix; even single-CPU
hosts see a large win because the per-candidate Python interpreter cost
collapses into a handful of array ops per batch.

Exactness: the merged report is bit-identical to the serial sweep — the
same sorted ``solutions``, the same ``candidates_checked``, and (with
``emit_certificate=True``) the same per-candidate evidence in the same
order, so certificates replay unchanged.  Certified sweeps of batchable
programs run the batched kernel too: ``batch_phi_rows`` hands back each
candidate's resolved term and guard rows with Φ, and
:func:`repro.core.kbp._evidence_from_rows` turns them into refutations;
only solutions (and blocks that hit a poisoned state) go through the
per-candidate resolver evidence.  Programs without a plan take the
resolver for every candidate.  The merge re-sorts evidence into the
serial enumeration order (strictly descending free-bit submask).

``any_solution=True`` turns the sweep into a pure well-posedness query:
workers stop at their shard's first solution, the parent cancels every
not-yet-started shard, and the (partial) report says only whether a
solution exists.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..predicates import Predicate
from ..predicates.backends import (
    PredicateBackend,
    batch_backend_for,
    get_default_backend,
    set_default_backend,
)
from ..predicates.backends.batch import (
    BatchPoisonError,
    PhiPlan,
    PlanLayout,
    StatementPlan,
    TermPlan,
)
from ..robustness import (
    FaultLog,
    FaultPlan,
    FaultPolicy,
    ShardJournal,
    ShardSupervisor,
)
from ..statespace import State
from ..unity import Program
from ..unity.expressions import Binary, Ite, Knowledge, Unary
from .transport import (
    DispatchStats,
    LocalPoolTransport,
    SocketTransport,
    SocketTransportError,
    parse_address,
)

#: Default batch size for ``batch_phi`` blocks (candidates per kernel call).
BATCH_SIZE = 1024

#: Environment knob for the default worker count.
WORKERS_ENV_VAR = "REPRO_SOLVER_WORKERS"

#: Environment knob for the pool start method ("fork", "spawn", ...).
START_METHOD_ENV_VAR = "REPRO_SOLVER_START_METHOD"

#: Environment knob: comma-separated ``host:port`` list of
#: ``python -m repro.worker`` daemons to dispatch shards to over TCP.
REMOTE_WORKERS_ENV_VAR = "REPRO_SOLVER_REMOTE_WORKERS"


def _resolve_remote_workers(
    remote_workers: Optional[Sequence[str]],
) -> Optional[List[str]]:
    """The socket worker address list: explicit arg, then the env knob."""
    if remote_workers is None:
        raw = os.environ.get(REMOTE_WORKERS_ENV_VAR, "").strip()
        if not raw:
            return None
        remote_workers = [part for part in raw.split(",") if part.strip()]
    addresses = [str(a).strip() for a in remote_workers if str(a).strip()]
    if not addresses:
        return None
    for address in addresses:
        parse_address(address)
    return addresses


def _resolve_start_method(start_method: Optional[str]) -> str:
    """The pool start method: explicit arg, then env, then fork-if-available.

    Pool processes receive everything by value in their initializer
    arguments (the spec and the plan's bytes), so any method the platform
    offers is valid; fork stays the default for its startup cost.
    """
    if start_method is None:
        start_method = os.environ.get(START_METHOD_ENV_VAR) or None
    methods = mp.get_all_start_methods()
    if start_method is None:
        return "fork" if "fork" in methods else methods[0]
    if start_method not in methods:
        raise ValueError(
            f"start_method {start_method!r} is not available here "
            f"(have {methods})"
        )
    return start_method


def default_workers() -> int:
    """Worker count: ``REPRO_SOLVER_WORKERS`` if set, else ``min(8, cpus)``."""
    raw = os.environ.get(WORKERS_ENV_VAR)
    if raw is not None:
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(
                f"{WORKERS_ENV_VAR}={raw!r} is not an integer worker count"
            ) from None
        if value < 1:
            raise ValueError(f"{WORKERS_ENV_VAR} must be >= 1, got {value}")
        return value
    return min(8, os.cpu_count() or 1)


# ----------------------------------------------------------------------
# Φ-plan compilation
# ----------------------------------------------------------------------


class _Ineligible(Exception):
    """The program cannot be batched; fall back to the per-candidate path."""


def _static_mask(program: Program, expr) -> int:
    """A knowledge-free guard subtree as an exact mask over all states.

    The serial evaluator short-circuits ``and``/``or``/``=>``, so a leaf it
    never reaches may be one we cannot evaluate everywhere; any evaluation
    failure marks the whole program ineligible (conservative — the serial
    path then decides, with identical semantics).
    """
    space = program.space
    mask = 0
    for i in range(space.size):
        try:
            if expr.eval(State(space, i)):
                mask |= 1 << i
        except Exception:
            raise _Ineligible from None
    return mask


def _guard_ops(
    program: Program, expr, term_index: Dict[Knowledge, int], intern
) -> List[Tuple[Any, ...]]:
    """Compile a guard into postfix ops over knowledge terms and static
    leaves (``intern`` maps a leaf's mask to its statics slot)."""
    if isinstance(expr, Knowledge):
        return [("term", term_index[expr])]
    if not expr.knowledge_terms():
        return [("static", intern(_static_mask(program, expr)))]
    if isinstance(expr, Unary) and expr.op == "not":
        operand = _guard_ops(program, expr.operand, term_index, intern)
        return operand + [("not",)]
    if isinstance(expr, Binary):
        left = _guard_ops(program, expr.left, term_index, intern)
        right = _guard_ops(program, expr.right, term_index, intern)
        if expr.op == "and":
            return left + right + [("and",)]
        if expr.op == "or":
            return left + right + [("or",)]
        if expr.op == "=>":
            return left + [("not",)] + right + [("or",)]
        if expr.op == "<=>":
            return left + right + [("xor",), ("not",)]
        raise _Ineligible  # knowledge under arithmetic/comparison
    if isinstance(expr, Ite):
        cond = _guard_ops(program, expr.cond, term_index, intern)
        then = _guard_ops(program, expr.then, term_index, intern)
        orelse = _guard_ops(program, expr.orelse, term_index, intern)
        return (
            cond + then + [("and",)] + cond + [("not",)] + orelse
            + [("and",), ("or",)]
        )
    raise _Ineligible


def _unguarded_successors(
    program: Program, stmt
) -> Tuple[Tuple[int, ...], int]:
    """``stmt``'s assignment successor ignoring the guard, plus a poison mask.

    Bit ``i`` of the poison mask is set where some right-hand side cannot be
    evaluated or leaves its domain — states the *guarded* statement may
    never execute, so they only matter for candidates whose resolved guard
    enables them (→ :class:`BatchPoisonError`, then a serial re-run that
    raises the original error).
    """
    space = program.space
    succ = [0] * space.size
    poison = 0
    for i in range(space.size):
        state = State(space, i)
        try:
            changes = {}
            for target, expr in zip(stmt.targets, stmt.exprs):
                value = expr.eval(state)
                if value not in space.var(target).domain:
                    raise _Ineligible  # poison, not a compile failure
                changes[target] = value
            succ[i] = space.reindex(i, changes)
        except Exception:
            poison |= 1 << i
            succ[i] = i
    return tuple(succ), poison


def compile_phi_plan(program: Program) -> Optional[PhiPlan]:
    """Freeze ``Φ`` into a :class:`PhiPlan`, or ``None`` when not batchable.

    Eligibility: every knowledge term is non-nested and owned by a declared
    process, knowledge occurs only in guards, and each knowledge-based
    guard compiles to the postfix Boolean vocabulary with all static leaves
    evaluable everywhere.  Ineligible programs take the per-candidate
    resolver path — still sharded, just not vectorized.

    The plan is written straight into its buffer layout: every distinct
    static mask is interned once (init, term bodies, poison sets, guard
    leaves), cylinder partitions are deduplicated by variable tuple, and
    the three blocks are packed little-endian into one ``bytes``.
    """
    space = program.space
    statics: Dict[int, int] = {}  # mask → slot, in slot order

    def intern(mask: int) -> int:
        return statics.setdefault(mask, len(statics))

    groups: Dict[Tuple[str, ...], int] = {}
    group_rows: List[Tuple[Any, int]] = []
    succ_rows: List[Sequence[int]] = []
    terms = sorted(program.knowledge_terms(), key=repr)
    try:
        init_slot = intern(program.init.mask)
        term_plans = []
        term_index: Dict[Knowledge, int] = {}
        for position, term in enumerate(terms):
            if term.formula.knowledge_terms():
                raise _Ineligible  # nested K: body depends on the candidate
            process = program.processes.get(term.process)
            if process is None:
                raise _Ineligible
            variables = tuple(sorted(process.variables))
            if variables not in groups:
                groups[variables] = len(group_rows)
                group_rows.append(space.cylinder_partition_np(variables))
            term_plans.append(
                TermPlan(
                    body_slot=intern(_static_mask(program, term.formula)),
                    variables=variables,
                    group_index=groups[variables],
                )
            )
            term_index[term] = position
        statement_plans = []
        for stmt in program.statements:
            if not stmt.is_knowledge_based():
                succ_rows.append(program.successor_array(stmt))
                statement_plans.append(StatementPlan(name=stmt.name))
                continue
            if any(e.knowledge_terms() for e in stmt.exprs):
                raise _Ineligible  # candidate-dependent successor arrays
            guard = tuple(_guard_ops(program, stmt.guard, term_index, intern))
            succ, poison = _unguarded_successors(program, stmt)
            succ_rows.append(succ)
            statement_plans.append(
                StatementPlan(
                    name=stmt.name,
                    guard=guard,
                    poison_slot=intern(poison) if poison else None,
                )
            )
    except _Ineligible:
        return None
    except Exception:
        # Anything the serial sweep would raise (e.g. a GuardDomainError in
        # a knowledge-free statement) is its to raise — with its own message.
        return None
    layout = PlanLayout(
        size=space.size,
        n_statics=len(statics),
        init_slot=init_slot,
        statements=tuple(statement_plans),
        terms=tuple(term_plans),
        group_counts=tuple(int(count) for _, count in group_rows),
    )
    width = layout.n_words * 8
    buffer = b"".join(
        [mask.to_bytes(width, "little") for mask in statics]
        + [np.asarray(row, dtype="<i8").tobytes() for row in succ_rows]
        + [np.asarray(row, dtype="<i8").tobytes() for row, _ in group_rows]
    )
    return PhiPlan(layout, space, buffer)


# ----------------------------------------------------------------------
# shard planning and Gray-code enumeration
# ----------------------------------------------------------------------


def _bit_positions(mask: int) -> List[int]:
    out = []
    position = 0
    while mask:
        if mask & 1:
            out.append(position)
        mask >>= 1
        position += 1
    return out


def plan_shards(
    free_bits: Sequence[int], workers: int
) -> Tuple[List[int], List[int]]:
    """Split free bit positions into (low walk bits, high shard bits).

    The top ``k`` free bits are fixed per shard, sized so that there are at
    least ~4 shards per worker (the executor queue then load-balances
    uneven shards); a single worker gets one shard and walks everything.
    """
    free_bits = list(free_bits)
    if workers <= 1:
        return free_bits, []
    target = 4 * workers
    k = 0
    while (1 << k) < target and k < len(free_bits):
        k += 1
    return free_bits[: len(free_bits) - k], free_bits[len(free_bits) - k :]


def gray_masks(positions: Sequence[int]) -> Iterator[int]:
    """All ``2^len(positions)`` masks over ``positions``, Gray-code ordered.

    Consecutive masks differ in exactly one bit (the binary-reflected
    code: step ``j`` flips the bit indexed by ``ctz(j)``), which is what
    lets a shard's walk reuse the resolver's per-candidate caches.
    """
    mask = 0
    yield mask
    for j in range(1, 1 << len(positions)):
        mask ^= 1 << positions[(j & -j).bit_length() - 1]
        yield mask


def assignment_mask(positions: Sequence[int], assignment: int) -> int:
    """The mask fixing ``positions`` to the bits of ``assignment``."""
    mask = 0
    for offset, position in enumerate(positions):
        if assignment >> offset & 1:
            mask |= 1 << position
    return mask


# ----------------------------------------------------------------------
# the shard sweep (one per solve; in a pool process, a worker daemon's
# session, or in-process for workers == 1 and the serial fallback)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    """The picklable description of one solve's shard sweep.

    The one thing that crosses into a sweeping process: a local pool gets
    it as its initializer argument, a socket worker as its ``attach``
    payload, and the in-process runner builds from it too.  ``plan_layout``
    is set when the parent compiled a plan (so the sweep is batched,
    certified or not); the plan's buffer travels next to the spec, by
    value — a pool's second initializer argument, a socket worker's
    ``plan`` frame — and is decoded against this layout.  Without a plan
    (nested knowledge, knowledge in right-hand sides, guards outside the
    postfix vocabulary) every candidate goes through the resolver.
    ``backend_selection`` replays the parent's backend choice, which a
    spawned child would otherwise lose (the selection is process-global
    state, not environment).
    """

    program: Program
    base_mask: int
    low_positions: Tuple[int, ...]
    emit_certificate: bool
    any_solution: bool
    batch_size: int
    fault_plan: Optional[Any] = None
    backend_selection: Optional[str] = None
    plan_layout: Optional[PlanLayout] = None


class ShardSweep:
    """One solve's per-shard sweep: ``run(index, fixed_mask)``.

    Built from a :class:`SweepSpec` plus the plan its host decoded —
    from the parent's compiled bytes or a copy of them — or ``None`` for
    plan-less programs, which take the per-candidate
    resolver loop (:meth:`_resolved`).  The resolver
    is built on first use: batched sweeps need one only for a solution's
    certificate chain or when a poisoned candidate forces the exact
    serial re-run.  Instances share nothing, so concurrent in-process
    solves never see each other's sweep.
    """

    def __init__(
        self,
        spec: SweepSpec,
        plan: Optional[PhiPlan] = None,
        resolver: Optional[Any] = None,
    ):
        self.spec = spec
        self.plan = plan
        self.backend = (
            batch_backend_for(spec.program.space.size, spec.batch_size)
            if plan is not None
            else None
        )
        self._resolver = resolver

    @property
    def resolver(self):
        """The sweep's :class:`CandidateResolver`, built on first use."""
        if self._resolver is None:
            from .kbp import CandidateResolver

            self._resolver = CandidateResolver(self.spec.program)
        return self._resolver

    def run(
        self, index: int, fixed_mask: int
    ) -> Tuple[List[int], int, List[Tuple[str, Any]]]:
        """One shard's sweep: ``(solution_masks, candidates_checked, evidence)``.

        Evidence is empty unless the spec asks for a certificate; with
        ``any_solution`` the walk stops at the first solution (the returned
        count is then partial, as documented).  The spec's fault plan, if
        any, fires its worker-side clauses here — ``crash``/``hang`` before
        the sweep, ``delay`` after it (a valid result arriving late).
        """
        fault_plan = self.spec.fault_plan
        if fault_plan is not None:
            fault_plan.before_shard(index)
        if self.plan is not None:
            result = self._batched(fixed_mask)
        else:
            result = self._resolved(fixed_mask)
        if fault_plan is not None:
            fault_plan.after_shard(index)
        return result

    def _candidates(self, fixed_mask: int) -> Iterator[int]:
        base = self.spec.base_mask | fixed_mask
        for gray in gray_masks(self.spec.low_positions):
            yield base | gray

    def _blocks(self, fixed_mask: int) -> Iterator[List[int]]:
        block: List[int] = []
        for mask in self._candidates(fixed_mask):
            block.append(mask)
            if len(block) >= self.spec.batch_size:
                yield block
                block = []
        if block:
            yield block

    def _batched(self, fixed_mask: int):
        certify = self.spec.emit_certificate
        any_solution = self.spec.any_solution
        solutions: List[int] = []
        evidence: List[Tuple[str, Any]] = []
        checked = 0
        for block in self._blocks(fixed_mask):
            if not certify:
                checked += len(block)
                phis = self._block_phis(block)
                solutions.extend(m for m, phi in zip(block, phis) if phi == m)
                if any_solution and solutions:
                    break
                continue
            for kind, payload in self._block_evidence(block):
                checked += 1
                evidence.append((kind, payload))
                if kind == "solution":
                    solutions.append(payload.candidate.mask)
                    if any_solution:
                        return solutions, checked, evidence
        return solutions, checked, evidence

    def _block_phis(self, block: List[int]) -> List[int]:
        try:
            return self.backend.batch_phi(self.plan, block)
        except BatchPoisonError:
            # Some candidate enables a statement outside its domain;
            # the serial resolver raises the original error for it.
            resolver = self.resolver
            space = self.spec.program.space
            return [resolver.phi(Predicate(space, m)).mask for m in block]

    def _block_evidence(self, block: List[int]) -> Iterator[Tuple[str, Any]]:
        from .kbp import _candidate_evidence, _evidence_from_rows

        try:
            rows = self.backend.batch_phi_rows(self.plan, block)
        except BatchPoisonError:
            # The per-candidate path raises the original error at the
            # first candidate that enables a domain exit.
            space = self.spec.program.space
            return (
                _candidate_evidence(self.resolver, Predicate(space, m))
                for m in block
            )
        return _evidence_from_rows(self.resolver, self.plan, rows, block)

    def _resolved(self, fixed_mask: int):
        """The per-candidate resolver loop, with evidence when certifying."""
        from .kbp import _candidate_evidence

        resolver = self.resolver
        space = self.spec.program.space
        certify = self.spec.emit_certificate
        solutions: List[int] = []
        checked = 0
        evidence: List[Tuple[str, Any]] = []
        for mask in self._candidates(fixed_mask):
            checked += 1
            candidate = Predicate(space, mask)
            if certify:
                kind, payload = _candidate_evidence(resolver, candidate)
                evidence.append((kind, payload))
                solved = kind == "solution"
            else:
                solved = resolver.phi(candidate) == candidate
            if solved:
                solutions.append(mask)
                if self.spec.any_solution:
                    break
        return solutions, checked, evidence


#: The pool process's sweep, set by :func:`_init_worker`.  The one
#: per-process instance left: a pool process serves exactly one solve.
_POOL_SWEEP: Optional[ShardSweep] = None


def _init_worker(spec: SweepSpec, buffer: Optional[bytes]) -> None:
    """Pool-process initializer, spawn-start-method clean.

    Replays the parent's backend choice, decodes the parent's plan bytes
    (no recompilation) and builds the process's :class:`ShardSweep`.
    """
    global _POOL_SWEEP
    if spec.backend_selection is not None:
        set_default_backend(spec.backend_selection)
    plan = None
    if spec.plan_layout is not None:
        plan = PhiPlan(spec.plan_layout, spec.program.space, buffer)
    _POOL_SWEEP = ShardSweep(spec, plan)


def _run_pool_shard(index: int, fixed_mask: int):
    """The pool task: one shard through the process's sweep."""
    return _POOL_SWEEP.run(index, fixed_mask)


# ----------------------------------------------------------------------
# the public solver
# ----------------------------------------------------------------------


def _encode_evidence(evidence: Sequence[Tuple[str, Any]]) -> List[Any]:
    """Evidence (kind, payload-object) pairs → journalable JSON values."""
    return [[kind, payload.to_payload()] for kind, payload in evidence]


def _decode_evidence(items: Sequence[Any], space) -> List[Tuple[str, Any]]:
    """Journaled evidence values → the certificate payload objects."""
    from ..certificates.certs import CandidateRefutation, KbpSolutionEntry

    out: List[Tuple[str, Any]] = []
    for item in items:
        kind, payload = item
        cls = KbpSolutionEntry if kind == "solution" else CandidateRefutation
        out.append((kind, cls.from_payload(payload, space)))
    return out


def _journal_header(
    program: Program,
    base_mask: int,
    low_positions: List[int],
    high_positions: List[int],
    shard_count: int,
    emit_certificate: bool,
    batch_size: int,
) -> Dict[str, Any]:
    """What a checkpoint journal pins about its solve.

    Any difference — another program or init, a different shard layout, a
    different certificate mode — makes resume refuse the journal.
    """
    from ..certificates.canonical import program_digest

    return {
        "program": program_digest(program),
        "base_mask": base_mask,
        "low_positions": list(low_positions),
        "high_positions": list(high_positions),
        "shard_count": shard_count,
        "emit_certificate": bool(emit_certificate),
        "batch_size": batch_size,
    }


def solve_si_parallel(
    program: Program,
    workers: Optional[int] = None,
    emit_certificate: bool = False,
    any_solution: bool = False,
    batch_size: int = BATCH_SIZE,
    resolver: Optional[Any] = None,
    fault_policy: Optional[Any] = None,
    checkpoint: Optional[Any] = None,
    fault_plan: Optional[Any] = None,
    progress: Optional[Any] = None,
    start_method: Optional[str] = None,
    collect_stats: bool = False,
    remote_workers: Optional[Sequence[str]] = None,
):
    """Exhaustively solve eq. (25) with sharding and batched Φ.

    Bit-identical to :func:`repro.core.kbp.solve_si` on complete sweeps:
    the same sorted solutions, the same candidate count, and (under
    ``emit_certificate``) the same evidence order, hence the same
    certificate digests.  ``any_solution=True`` answers well-posedness
    only: the sweep stops at the first solution found, outstanding shards
    are cancelled, and ``candidates_checked`` reflects the partial walk.

    ``workers`` defaults to ``REPRO_SOLVER_WORKERS`` or ``min(8, cpus)``;
    ``workers=1`` runs in-process (no executor) but still batches, which
    is where most of the speedup lives on small hosts.  Certified sweeps
    batch as well, building refutation evidence from the kernel's term
    and guard rows; only programs :func:`compile_phi_plan` cannot lower
    (nested knowledge, knowledge in right-hand sides, guards outside the
    postfix vocabulary) sweep candidate by candidate on the resolver.  ``resolver`` is
    honored on the in-process path only — worker processes build their own
    (term caches cannot be shared across process boundaries).

    Fault tolerance (DESIGN.md §10): every sweep runs under a
    :class:`repro.robustness.ShardSupervisor` — shards lost to worker
    crashes or deadlines are re-dispatched (re-spawning the pool), and a
    shard that exhausts its retry budget falls back to the in-process
    sweep.  ``fault_policy`` tunes this (without ``serial_fallback`` an
    exhausted shard raises :class:`~repro.robustness.SolverWorkerError`);
    the report's ``fault_log`` records every incident.  ``checkpoint`` names a journal
    file (or :class:`~repro.robustness.ShardJournal`): completed shards are
    journaled as they land, and a killed solve re-run with the same
    checkpoint resumes from disk — the final report and certificate are
    byte-identical to an uninterrupted run.  ``fault_plan`` (or the
    ``REPRO_FAULT_PLAN`` environment variable) injects deterministic
    faults for the chaos suite.

    ``progress`` is an optional callback receiving
    :class:`~repro.robustness.SolveProgress` ticks — one per resumed
    batch and one per completed shard, in journal order.

    ``remote_workers`` (or ``REPRO_SOLVER_REMOTE_WORKERS``) names
    ``host:port`` addresses of ``python -m repro.worker`` daemons; shards
    then dispatch over the TCP transport (DESIGN.md §15) instead of a
    local pool.  Degradation is graceful and logged: unreachable workers
    at attach fall back to the local pool (``degraded-to-local``
    incident), a worker lost mid-shard surrenders only its own lease
    (``worker-lost``), and losing *every* worker respawns through the
    factory — socket again if anything answers, local pool otherwise,
    with the per-shard serial fallback as the last resort.  Reports and
    certificates stay byte-identical to serial throughout.
    """
    from .kbp import SolveReport, _check_exhaustive_size, solve_si

    space = program.space
    _check_exhaustive_size(space)
    if not program.is_knowledge_based():
        if checkpoint is not None:
            raise ValueError(
                "checkpoint journals are for knowledge-based sweeps; a "
                "standard program's SI is a single sst computation"
            )
        return solve_si(
            program, emit_certificate=emit_certificate, parallel="never"
        )
    addresses = _resolve_remote_workers(remote_workers)
    if workers is None:
        workers = max(2, len(addresses)) if addresses else default_workers()
    elif addresses:
        # Socket dispatch needs shard granularity (workers==1 would take
        # the in-process path and never touch the network).
        workers = max(workers, 2)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if fault_policy is None:
        fault_policy = FaultPolicy()
    if checkpoint is not None and any_solution:
        raise ValueError(
            "checkpoint requires a complete sweep; any_solution stops early"
        )
    if fault_plan is None:
        fault_plan = FaultPlan.from_env()

    base_mask = program.init.mask
    free_bits = _bit_positions(space.full_mask & ~base_mask)
    # A single worker normally walks one giant shard, but a checkpoint is
    # only as fine-grained as the shard layout — resuming a one-shard
    # journal would restart from scratch — so checkpointed in-process
    # solves shard as if two workers were sweeping.
    plan_workers = 2 if (workers == 1 and checkpoint is not None) else workers
    low_positions, high_positions = plan_shards(free_bits, plan_workers)
    shard_masks = [
        assignment_mask(high_positions, a)
        for a in range(1 << len(high_positions))
    ]
    if fault_plan is not None:
        fault_plan = fault_plan.bind(
            len(shard_masks), len(addresses) if addresses else 1
        )

    journal = None
    if checkpoint is not None:
        journal = (
            checkpoint
            if isinstance(checkpoint, ShardJournal)
            else ShardJournal(checkpoint)
        )
    header = _journal_header(
        program, base_mask, low_positions, high_positions,
        len(shard_masks), emit_certificate, batch_size,
    )

    resolved_method = _resolve_start_method(start_method)
    # The plan is compiled exactly once, parent-side, for certified and
    # uncertified sweeps alike.  The in-process sweep reads its bytes
    # directly; pool processes and socket workers receive a copy of them.
    plan = compile_phi_plan(program)
    backend_selection = get_default_backend()
    if isinstance(backend_selection, PredicateBackend):
        backend_selection = backend_selection.name
    spec = SweepSpec(
        program=program,
        base_mask=base_mask,
        low_positions=tuple(low_positions),
        emit_certificate=emit_certificate,
        any_solution=any_solution,
        batch_size=batch_size,
        fault_plan=fault_plan,
        backend_selection=backend_selection,
        plan_layout=plan.layout if plan is not None else None,
    )
    stats = DispatchStats(start_method=resolved_method) if workers > 1 else None
    buffer = plan.buffer if plan is not None else None
    # One log serves the supervisor *and* the pool factory, so transport
    # degradation (socket → local) is an incident on the report, not a
    # silent change of dispatch mechanism.
    shared_log = FaultLog()

    def pool_factory():
        if addresses:
            try:
                return SocketTransport(
                    addresses,
                    program_digest=header["program"],
                    spec=spec,
                    plan_buffer=buffer,
                    policy=fault_policy,
                    stats=stats,
                    log=shared_log,
                    fault_plan=fault_plan,
                )
            except SocketTransportError as exc:
                shared_log.record(
                    "degraded-to-local",
                    detail=f"socket transport unavailable ({exc}); "
                    "dispatching through a local pool instead",
                )
        return LocalPoolTransport(
            workers=min(workers, len(shard_masks)),
            mp_context=mp.get_context(resolved_method),
            initializer=_init_worker,
            initargs=(spec, buffer),
            stats=stats,
        )

    # The in-process sweep: the whole solve when workers == 1, and the
    # supervisor's degradation path otherwise.  It reuses the
    # parent-compiled plan, honors a caller-supplied resolver, and runs no
    # fault plan — a crash clause must not kill the parent.
    in_process = ShardSweep(replace(spec, fault_plan=None), plan, resolver)
    drain_hook = None
    if collect_stats and workers > 1:

        def drain_hook(pool):
            stats.worker_peak_rss_kb = max(
                stats.worker_peak_rss_kb, pool.sample_worker_rss()
            )

    supervisor = ShardSupervisor(
        pool_factory=None if workers == 1 else pool_factory,
        task=_run_pool_shard,
        shard_masks=shard_masks,
        policy=fault_policy,
        any_solution=any_solution,
        journal=journal,
        journal_header=header,
        # Parent-side clauses (kill/torn) only; worker clauses travel in
        # the spec and fire in pool processes and worker daemons.
        fault_plan=fault_plan,
        serial_runner=in_process.run,
        encode_evidence=_encode_evidence,
        decode_evidence=lambda items: _decode_evidence(items, space),
        progress=progress,
        drain_hook=drain_hook,
        log=shared_log,
    )
    solution_masks, checked, evidence = supervisor.run()

    solutions = [Predicate(space, mask) for mask in solution_masks]
    solutions.sort(key=lambda p: (p.count(), p.mask))
    certificate = None
    if emit_certificate:
        certificate = _merged_certificate(
            program, evidence, space.full_mask & ~base_mask
        )
    return SolveReport(
        solutions=tuple(solutions),
        candidates_checked=checked,
        certificate=certificate,
        fault_log=supervisor.log,
        dispatch=stats,
    )


def _merged_certificate(program: Program, evidence, free_mask: int):
    """Re-assemble shard evidence into the serial sweep's certificate.

    The serial enumeration visits free-bit submasks in strictly decreasing
    numeric order, so sorting merged evidence by descending
    ``candidate & free`` reproduces its entry sequence exactly — byte-for-
    byte equal certificates, digests included.
    """
    from ..certificates.canonical import program_digest
    from ..certificates.certs import KbpSolveCertificate

    ordered = sorted(
        evidence, key=lambda item: -(item[1].candidate.mask & free_mask)
    )
    entries = tuple(p for kind, p in ordered if kind == "solution")
    refutations = tuple(p for kind, p in ordered if kind == "refutation")
    return KbpSolveCertificate(
        program=program_digest(program),
        init=program.init,
        solutions=entries,
        refutations=refutations,
    )
