"""Shared-memory predicate arenas: zero-copy Φ-plan dispatch.

The sharded eq.-(25) solver used to ship its compiled
:class:`~repro.predicates.backends.batch.PhiPlan` to every worker by
value — the program pickled through initargs, then each worker re-ran
``compile_phi_plan`` (O(size) Python evals per statement) and converted
every successor array and static mask into backend form again.  An arena
moves all of that *solve-wide immutable state* into one
``multiprocessing.shared_memory`` segment, written once by the parent:

========  ============================================================
block     contents
========  ============================================================
statics   ``n_statics × n_words`` uint64 — every distinct constant
          bitset the plan references (init, knowledge-term bodies,
          poison sets, static guard leaves), interned by mask
succ      ``n_statements × size`` int64 — unguarded successor arrays
groups    ``n_group_tables × size`` int64 — cylinder ``group_of``
          partitions, deduplicated by variable tuple
========  ============================================================

Workers receive only an :class:`ArenaSpec` — a few hundred bytes naming
the segment and indexing its blocks — attach by name, and evaluate
``batch_phi_rows`` through an :class:`ArenaPlan`: a duck-typed stand-in for
``PhiPlan`` whose handles are **read-only views over the mapping** (the
numpy backend aliases the segment directly; the exact int backend
necessarily copies through Python ints, which is its representation, not
a dispatch cost).

Crash-cleanup invariants (DESIGN.md §14):

* the **creator owns the segment**: it stays registered with its own
  ``resource_tracker``, so even a SIGKILLed parent gets the segment
  unlinked when the tracker reaps; orderly solves unlink in a
  ``finally``;
* **attachers never adopt ownership**: :func:`attach_segment`
  unregisters the attach-side tracker entry (``track=False`` on
  3.13+), otherwise the first worker to exit — including every pool
  respawn — would unlink the arena out from under the live solve;
* segment names embed the creating PID, so :func:`sweep_stale_segments`
  can reap leftovers whose creator is gone (e.g. a SIGKILLed solve on a
  platform without tracker coverage) without ever touching a live
  solve's arena.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "ArenaPlan",
    "ArenaSpec",
    "SolveArena",
    "attach_segment",
    "list_segments",
    "sweep_stale_segments",
]

#: Arena segment name prefix.  Kept short: POSIX shm names share a ~31-char
#: ceiling on some platforms (macOS), and the full name is
#: ``rpa-<digest12>-<pid>-<seq>``.
SEGMENT_PREFIX = "rpa-"

#: Where POSIX shared memory surfaces as files (Linux).  Segment listing —
#: a test/hygiene concern — degrades to empty elsewhere.
_SHM_DIR = "/dev/shm"

_sequence = [0]


def _segment_name(digest: str) -> str:
    _sequence[0] += 1
    return f"{SEGMENT_PREFIX}{digest[:12]}-{os.getpid()}-{_sequence[0]}"


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment *without* adopting cleanup duty.

    ``SharedMemory(name=...)`` registers the segment with the attaching
    process's resource tracker; when any attacher exits, its tracker
    unlinks the segment — under the feet of every other process.  Python
    3.13 grew ``track=False`` for exactly this; on earlier interpreters
    the registration is reverted by hand.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pre-3.13: no track parameter
        # Suppressing registration beats register-then-unregister: fork and
        # spawn children share the parent's tracker *process*, so an
        # unregister sent from a worker would delete the creator's entry
        # and forfeit the SIGKILL cleanup the creator is counting on.
        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


def list_segments(prefix: str = SEGMENT_PREFIX) -> List[str]:
    """Names of live arena segments (empty where /dev/shm is absent)."""
    try:
        entries = os.listdir(_SHM_DIR)
    except OSError:
        return []
    return sorted(name for name in entries if name.startswith(prefix))


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # exists, owned by someone else
        return True
    except OSError:
        return True
    return True


def sweep_stale_segments(prefix: str = SEGMENT_PREFIX) -> List[str]:
    """Unlink arena segments whose creating process is dead.

    The belt to the resource tracker's braces: a solve killed hard enough
    to lose its tracker leaves a named segment behind, and the *next*
    solve reaps it here (names embed the creator PID).  Live creators —
    this process included — are never touched, so concurrent solves
    cannot sweep each other.
    """
    removed: List[str] = []
    for name in list_segments(prefix):
        parts = name.split("-")
        if len(parts) < 3:
            continue
        try:
            pid = int(parts[-2])
        except ValueError:
            continue
        if pid == os.getpid() or _pid_alive(pid):
            continue
        try:
            segment = attach_segment(name)
        except FileNotFoundError:
            continue
        # The dead creator's tracker (not ours) held this entry; a normal
        # unlink would send our tracker an unregister for a name it never
        # saw and spill a KeyError traceback on stderr.
        original = resource_tracker.unregister
        resource_tracker.unregister = lambda *args, **kwargs: None
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - lost a reap race
            pass
        finally:
            resource_tracker.unregister = original
        segment.close()
        removed.append(name)
    return removed


# ----------------------------------------------------------------------
# the picklable descriptor
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ArenaTerm:
    """One knowledge term: arena coordinates of its body and partition."""

    body_slot: int
    variables: Tuple[str, ...]
    group_index: int
    n_groups: int


@dataclass(frozen=True)
class ArenaStatement:
    """One statement: its successor row plus guard/poison coordinates.

    ``guard`` is the compiled postfix program with every ``("static",
    mask)`` leaf rewritten to ``("static", slot)`` — inside an arena the
    opaque static key is a slot index, not a mask.
    """

    name: str
    guard: Optional[Tuple[Tuple[Any, ...], ...]]
    poison_slot: Optional[int]


@dataclass(frozen=True)
class ArenaSpec:
    """Everything a worker needs to rebuild a Φ plan from a segment name.

    This is the *only* plan state that crosses the process boundary —
    a few hundred bytes of names and indices, independent of state-space
    size.  ``program`` records the solve's program digest for diagnostics
    and cross-checks; the layout fields locate the three blocks.
    """

    segment: str
    program: str
    size: int
    n_words: int
    n_statics: int
    init_slot: int
    statements: Tuple[ArenaStatement, ...]
    terms: Tuple[ArenaTerm, ...]
    n_group_tables: int

    @property
    def statics_bytes(self) -> int:
        return self.n_statics * self.n_words * 8

    @property
    def succ_bytes(self) -> int:
        return len(self.statements) * self.size * 8

    @property
    def groups_bytes(self) -> int:
        return self.n_group_tables * self.size * 8

    @property
    def total_bytes(self) -> int:
        return self.statics_bytes + self.succ_bytes + self.groups_bytes

    def attach(self, space) -> "ArenaPlan":
        """Map the segment and wrap it as a plan (worker side)."""
        return ArenaPlan(self, space, attach_segment(self.segment))

    def try_attach(self, space) -> Optional["ArenaPlan"]:
        """:meth:`attach`, or ``None`` when the segment does not resolve.

        The remote-worker fallback path: a socket worker on another host
        (or one that outlived the creating solve) cannot map the parent's
        segment by name — it answers ``None`` here and asks the
        coordinator to ship the full plan payload instead.
        """
        try:
            return self.attach(space)
        except FileNotFoundError:
            return None


# ----------------------------------------------------------------------
# the attached plan
# ----------------------------------------------------------------------


class ArenaPlan:
    """A ``PhiPlan``-shaped view over an attached arena segment.

    Implements the plan interface ``batch_phi_rows`` evaluates against —
    ``init_handle``, ``term_body``, ``group_table``, ``poison_handle``,
    ``succ_table``, ``static_handle`` — plus ``succ_ints`` for certificate
    evidence, with handles
    built lazily (memoized per backend) from read-only views over the
    shared mapping.  The numpy backend's handles alias the segment with
    zero copies; writes through them raise.
    """

    def __init__(self, spec: ArenaSpec, space, segment) -> None:
        if space.size != spec.size:
            raise ValueError(
                f"arena was built over {spec.size} states; space has "
                f"{space.size}"
            )
        self.spec = spec
        self.space = space
        self.segment = segment
        self.statements = spec.statements
        self.terms = spec.terms
        self._statics: Dict[Tuple[str, int], Any] = {}
        self._tables: Dict[Tuple[str, int], Any] = {}
        self._groups: Dict[Tuple[str, int], Any] = {}

    # -- raw views ---------------------------------------------------------

    def _static_view(self, slot: int) -> memoryview:
        width = self.spec.n_words * 8
        offset = slot * width
        return memoryview(self.segment.buf)[offset : offset + width].toreadonly()

    def _int64_view(self, offset: int) -> "np.ndarray":
        arr = np.frombuffer(
            self.segment.buf, dtype="<i8", count=self.spec.size, offset=offset
        )
        if arr.flags.writeable:  # frombuffer of a writable buf
            arr.setflags(write=False)
        return arr

    def succ_array(self, index: int) -> "np.ndarray":
        """Statement ``index``'s successor row (read-only int64 view)."""
        return self._int64_view(
            self.spec.statics_bytes + index * self.spec.size * 8
        )

    def group_array(self, group_index: int) -> "np.ndarray":
        """Cylinder partition ``group_index`` (read-only int64 view)."""
        return self._int64_view(
            self.spec.statics_bytes
            + self.spec.succ_bytes
            + group_index * self.spec.size * 8
        )

    # -- the plan interface ------------------------------------------------

    def static_handle(self, backend, slot: int) -> Any:
        key = (backend.name, slot)
        handle = self._statics.get(key)
        if handle is None:
            handle = backend.from_buffer_in(self.space, self._static_view(slot))
            self._statics[key] = handle
        return handle

    def init_handle(self, backend) -> Any:
        return self.static_handle(backend, self.spec.init_slot)

    def term_body(self, backend, index: int) -> Any:
        return self.static_handle(backend, self.terms[index].body_slot)

    def poison_handle(self, backend, index: int) -> Optional[Any]:
        slot = self.statements[index].poison_slot
        if slot is None:
            return None
        return self.static_handle(backend, slot)

    def succ_table(self, backend, index: int) -> Any:
        key = (backend.name, index)
        table = self._tables.get(key)
        if table is None:
            table = backend.table_from_array_in(self.space, self.succ_array(index))
            self._tables[key] = table
        return table

    def succ_ints(self, index: int) -> List[int]:
        """Statement ``index``'s successor array as Python ints."""
        return self.succ_array(index).tolist()

    def group_table(self, backend, index: int) -> Any:
        term = self.terms[index]
        key = (backend.name, term.group_index)
        table = self._groups.get(key)
        if table is None:
            try:
                table = backend.group_table_from_array(
                    self.group_array(term.group_index),
                    term.n_groups,
                    self.spec.size,
                )
            except NotImplementedError:
                # Backends with a name-derived group form (int's big-int
                # group masks, robdd's level sets) rebuild from the space.
                table = backend.group_table(self.space, term.variables)
            self._groups[key] = table
        return table

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Drop cached views and unmap (never unlink) the segment.

        With live numpy views still referencing the mapping the close is
        refused by the buffer protocol; the mapping then simply lives
        until the process exits, which is exactly as long as those views
        can be dereferenced.
        """
        self._statics.clear()
        self._tables.clear()
        self._groups.clear()
        try:
            self.segment.close()
        except BufferError:  # exported views outlive us; the OS reaps
            pass


# ----------------------------------------------------------------------
# the parent-side builder
# ----------------------------------------------------------------------


class SolveArena:
    """Parent-side owner of one solve's arena segment.

    Built once per solve from the compiled plan; :meth:`close` unlinks.
    The parent also evaluates through :attr:`plan` on its serial paths so
    in-process and pooled sweeps share one copy of the statics.
    """

    def __init__(self, spec: ArenaSpec, segment) -> None:
        self.spec = spec
        self.segment = segment

    @classmethod
    def build(cls, plan, program_digest: str) -> "SolveArena":
        """Write ``plan``'s shared state into a fresh segment.

        ``plan`` is a locally compiled
        :class:`~repro.predicates.backends.batch.PhiPlan`; the arena
        interns every distinct static mask once (init, bodies, poisons,
        guard leaves) and deduplicates group tables by variable tuple.
        Also reaps stale segments from dead creators first — the cheap
        moment to do it, and exactly when leaked memory would hurt.
        """
        sweep_stale_segments()
        space = plan.space
        size = space.size
        n_words = (size + 63) >> 6

        slots: Dict[int, int] = {}

        def intern(mask: int) -> int:
            slot = slots.get(mask)
            if slot is None:
                slot = len(slots)
                slots[mask] = slot
            return slot

        init_slot = intern(plan.init_mask)

        group_keys: Dict[Tuple[str, ...], int] = {}
        group_tables: List[Tuple["np.ndarray", int]] = []
        terms: List[ArenaTerm] = []
        for term in plan.terms:
            body_slot = intern(term.body_mask)
            group_index = group_keys.get(term.variables)
            if group_index is None:
                group_of, n_groups = space.cylinder_partition_np(term.variables)
                group_index = len(group_tables)
                group_keys[term.variables] = group_index
                group_tables.append(
                    (np.asarray(group_of, dtype=np.int64), int(n_groups))
                )
            terms.append(
                ArenaTerm(
                    body_slot=body_slot,
                    variables=term.variables,
                    group_index=group_index,
                    n_groups=group_tables[group_index][1],
                )
            )

        statements: List[ArenaStatement] = []
        for stmt in plan.statements:
            guard = None
            poison_slot = None
            if stmt.guard is not None:
                guard = tuple(
                    ("static", intern(op[1])) if op[0] == "static" else op
                    for op in stmt.guard
                )
                if stmt.poison_mask:
                    poison_slot = intern(stmt.poison_mask)
            statements.append(
                ArenaStatement(
                    name=stmt.name, guard=guard, poison_slot=poison_slot
                )
            )

        spec = ArenaSpec(
            segment="",  # placeholder; frozen dataclass rebuilt below
            program=program_digest,
            size=size,
            n_words=n_words,
            n_statics=len(slots),
            init_slot=init_slot,
            statements=tuple(statements),
            terms=tuple(terms),
            n_group_tables=len(group_tables),
        )
        segment = shared_memory.SharedMemory(
            name=_segment_name(program_digest),
            create=True,
            size=max(1, spec.total_bytes),
        )
        try:
            _write_blocks(segment, spec, slots, plan.statements, group_tables)
        except BaseException:
            try:
                segment.close()
            except BufferError:  # pragma: no cover - stray views
                pass
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
            raise
        return cls(replace(spec, segment=segment.name), segment)

    def plan(self, space) -> ArenaPlan:
        """An attached plan over this arena for the parent's own use."""
        return ArenaPlan(self.spec, space, self.segment)

    @property
    def nbytes(self) -> int:
        return self.segment.size

    def close(self, unlink: bool = True) -> None:
        """Unmap and (by default) unlink the segment; idempotent."""
        try:
            self.segment.close()
        except BufferError:  # pragma: no cover - parent-held views linger
            pass
        if unlink:
            try:
                self.segment.unlink()
            except FileNotFoundError:
                pass


def _write_blocks(segment, spec: ArenaSpec, slots, plan_statements, group_tables):
    """Fill the three arena blocks.

    Isolated so every view over the mapping is function-local and released
    on return — ``SharedMemory.close`` refuses while exported views live.
    """
    buf = segment.buf
    width = spec.n_words * 8
    size = spec.size
    for mask, slot in slots.items():
        offset = slot * width
        buf[offset : offset + width] = mask.to_bytes(width, "little")
    for index, stmt_plan in enumerate(plan_statements):
        row = np.frombuffer(
            buf, dtype="<i8", count=size,
            offset=spec.statics_bytes + index * size * 8,
        )
        row[:] = np.asarray(stmt_plan.succ, dtype=np.int64)
    for group_index, (group_of, _n) in enumerate(group_tables):
        row = np.frombuffer(
            buf, dtype="<i8", count=size,
            offset=spec.statics_bytes + spec.succ_bytes + group_index * size * 8,
        )
        row[:] = group_of
