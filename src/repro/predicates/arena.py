"""Shared-memory predicate arenas: zero-copy Φ-plan dispatch.

A compiled :class:`~repro.predicates.backends.batch.PhiPlan` already *is*
one flat buffer (statics, successor arrays, cylinder partitions) plus a
small :class:`~repro.predicates.backends.batch.PlanLayout`.  To share it
with pool processes and same-host worker daemons, the parent copies those
bytes once into one ``multiprocessing.shared_memory`` segment
(:class:`SolveArena`); a sweeping process receives only the layout — a
few hundred bytes naming the segment — and :func:`attach_plan` maps the
segment and wraps it in the same ``PhiPlan`` class, whose handles are
**read-only views over the mapping** (the numpy backend aliases the
segment directly; the exact int backend necessarily copies through
Python ints, which is its representation, not a dispatch cost).  Without
the arena each worker would recompile the plan (O(size) Python evals
per statement) or receive it by value.

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
from dataclasses import replace
from multiprocessing import resource_tracker, shared_memory
from typing import List, Optional

from .backends.batch import PhiPlan, PlanLayout

__all__ = [
    "SolveArena",
    "attach_plan",
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
# attach (worker side) and build (parent side)
# ----------------------------------------------------------------------


def attach_plan(layout: PlanLayout, space) -> Optional[PhiPlan]:
    """Map ``layout.segment`` and wrap it as a plan; ``None`` when the
    segment does not resolve.

    ``None`` is how a worker on another host (or one that outlived the
    creating solve) learns it must ask for the plan bytes instead.
    """
    if not layout.segment:
        return None
    try:
        segment = attach_segment(layout.segment)
    except FileNotFoundError:
        return None
    view = memoryview(segment.buf)[: layout.total_bytes].toreadonly()
    try:
        return PhiPlan(layout, space, view, segment=segment)
    except BaseException:
        view.release()
        segment.close()
        raise


class SolveArena:
    """Parent-side owner of one solve's arena segment.

    Built once per solve by copying the compiled plan's bytes;
    :attr:`layout` is the plan's layout naming the segment, and
    :meth:`close` unlinks.
    """

    def __init__(self, layout: PlanLayout, segment) -> None:
        self.layout = layout
        self.segment = segment

    @classmethod
    def build(cls, plan: PhiPlan, program_digest: str) -> "SolveArena":
        """Copy ``plan``'s buffer into a fresh segment.

        Also reaps stale segments from dead creators first — the cheap
        moment to do it, and exactly when leaked memory would hurt.
        """
        sweep_stale_segments()
        nbytes = plan.layout.total_bytes
        segment = shared_memory.SharedMemory(
            name=_segment_name(program_digest), create=True, size=nbytes
        )
        try:
            segment.buf[:nbytes] = plan.buffer
        except BaseException:  # pragma: no cover - a failed memcpy
            segment.close()
            segment.unlink()
            raise
        return cls(replace(plan.layout, segment=segment.name), segment)

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
