"""The batched-Φ plan: candidate-independent data for whole-batch sweeps.

The exhaustive eq.-(25) solver evaluates ``Φ(x) = sst_{P_x}(init)`` for an
exponential family of candidate invariants ``x``.  Per candidate, only two
ingredients actually vary:

* each knowledge term resolves to ``body ∧ (wcyl.V.(x ⇒ body) ∨ ¬x)``
  (paper eq. 13) — ``body`` is the SI-independent formula under the ``K``;
* each knowledge-based statement's *guard* predicate, a Boolean combination
  of resolved knowledge terms and knowledge-free static leaves.

Everything else — successor arrays, the initial condition, cylinder
partitions, static guard leaves — is shared by every ``P_x``.  A
:class:`PhiPlan` holds that shared structure as **one flat buffer** plus a
small :class:`PlanLayout` descriptor, so a predicate backend can evaluate Φ
for *batches* of candidate masks at once without touching programs,
expressions, or resolvers.  The buffer has three little-endian blocks:

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

The same bytes serve every route a sweep can take, always by value:
in-process sweeps read the compiled ``bytes``, pool processes receive
them as an initializer argument, and worker daemons as the body of a
``plan`` frame.  Plans are small — exhaustive solving stops at 28 states,
and a kbp24 plan is about 1 KB — so copying them costs less than any
sharing scheme would.  :class:`PhiPlan` is the one decoder for every
route, and it fails closed with :class:`PlanDecodeError` on a buffer that
does not fit its layout.

* :meth:`~repro.predicates.backends.base.PredicateBackend.batch_phi_rows`
  is the kernel every backend implements — the base class provides an
  exact per-candidate loop over its scalar kernels (what the int backend
  uses), and the numpy backend overrides it with a fully vectorized sweep
  over a ``(batch, words)`` ``uint64`` matrix.  It returns :class:`PhiRows`:
  Φ per candidate plus the resolved knowledge-term and guard rows it
  computed on the way, which is all an eq.-(25) certificate needs besides
  the successor arrays.  ``batch_phi`` is its projection onto Φ;
* the plan is *compiled* from a knowledge-based :class:`repro.unity.Program`
  by :func:`repro.core.parallel.compile_phi_plan` (the layering keeps this
  module free of unity/core imports: only masks, names, and index tuples
  appear here).

Guards are compiled to a tiny postfix program over the stack ops
``("term", i)``, ``("static", slot)``, ``("not",)``, ``("and",)``,
``("or",)``, ``("xor",)`` — enough for the Boolean connectives; anything
richer makes the program ineligible and the solver falls back to the
per-candidate path.

Exactness contract: for every eligible program and candidate mask,
``batch_phi_rows`` must return the same Φ mask, and the same term and
guard masks, the serial resolver computes — the differential tests
enforce this across backends.  States where the
*unguarded* right-hand sides leave a variable's domain are recorded in
each statement's poison set; a candidate whose guard enables such a state
raises :class:`BatchPoisonError`, and the caller re-runs that candidate
serially so the exact :class:`~repro.unity.program.GuardDomainError`
surfaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np


class BatchPoisonError(Exception):
    """A batched candidate enables a statement whose unguarded successor is undefined.

    Carries the offending candidate mask and statement name; the sweep
    re-runs that candidate through the serial resolver, which raises the
    original :class:`~repro.unity.program.GuardDomainError` verbatim.
    """

    def __init__(self, candidate_mask: int, statement: str):
        self.candidate_mask = candidate_mask
        self.statement = statement
        super().__init__(
            f"candidate {candidate_mask:#x} enables statement {statement!r} "
            "at a state where its unguarded successor leaves the domain"
        )


class PlanDecodeError(ValueError):
    """A Φ-plan buffer or layout that does not describe a valid plan.

    Raised for a buffer whose length is not the layout's ``total_bytes``,
    a successor entry outside ``[0, size)``, a group id outside its
    table's ``[0, n_groups)``, a group count outside ``[1, size]``, or a
    slot/index the layout cannot resolve.
    An out-of-range successor would otherwise make the int kernel's
    ``1 << succ[i]`` allocate without bound.
    """


@dataclass(frozen=True)
class TermPlan:
    """One knowledge term ``K_V(body)``: where its pieces live in the buffer.

    ``body_slot`` is the statics slot of the (knowledge-free) formula under
    the ``K``; ``variables`` is the owning process's view — the cylinder
    key of eq. (13)'s ``wcyl``, from which backends without an index-array
    group form rebuild the partition; ``group_index`` is its row in the
    groups block.
    """

    body_slot: int
    variables: Tuple[str, ...]
    group_index: int


@dataclass(frozen=True)
class StatementPlan:
    """One statement's guard program and poison set (its ``succ`` row is
    the statement's index in the succ block).

    ``guard is None`` means the successor row already encodes the full
    statement semantics (knowledge-free statement, guard included as skip).
    Otherwise the row is the *unguarded* assignment successor and the
    postfix ``guard`` program decides, per candidate, where it applies:

        sp.s.p = image(p ∧ g, succ) ∨ (p ∧ ¬g)

    ``poison_slot`` names the statics slot of the states where the
    unguarded successor is undefined (domain exit), ``None`` when there
    are none; enabling one is a :class:`BatchPoisonError`.
    """

    name: str
    guard: Optional[Tuple[Tuple[Any, ...], ...]] = None
    poison_slot: Optional[int] = None


@dataclass(frozen=True)
class PlanLayout:
    """The small descriptor that locates everything in a plan buffer.

    A few hundred bytes, independent of how the buffer travels.
    ``group_counts[g]`` is group table ``g``'s number of groups.
    """

    size: int
    n_statics: int
    init_slot: int
    statements: Tuple[StatementPlan, ...]
    terms: Tuple[TermPlan, ...]
    group_counts: Tuple[int, ...]

    @property
    def n_words(self) -> int:
        return (self.size + 63) >> 6

    @property
    def statics_bytes(self) -> int:
        return self.n_statics * self.n_words * 8

    @property
    def succ_bytes(self) -> int:
        return len(self.statements) * self.size * 8

    @property
    def total_bytes(self) -> int:
        return self.statics_bytes + self.succ_bytes + (
            len(self.group_counts) * self.size * 8
        )


@dataclass(frozen=True)
class PhiRows:
    """What one ``batch_phi_rows`` kernel call computed for a block.

    ``phis[b]`` is ``Φ`` of the block's ``b``-th candidate.  ``terms[t]``
    holds knowledge term ``t``'s eq.-(13) resolution and ``guards[s]``
    statement ``s``'s resolved guard (``None`` for statements without a
    compiled guard), one row per candidate, in ``backend``'s row form;
    :meth:`term_masks`/:meth:`guard_masks` convert them to exact int masks
    on demand, so a Φ-only sweep never pays for the conversion.
    """

    phis: List[int]
    terms: Sequence[Any]
    guards: Sequence[Optional[Any]]
    backend: Any
    size: int

    def term_masks(self, index: int) -> List[int]:
        """Term ``index``'s resolution per candidate, as int masks."""
        return self.backend.rows_to_masks(self.terms[index], self.size)

    def guard_masks(self, index: int) -> Optional[List[int]]:
        """Statement ``index``'s resolved guard per candidate, or ``None``."""
        rows = self.guards[index]
        if rows is None:
            return None
        return self.backend.rows_to_masks(rows, self.size)


class PhiPlan:
    """Candidate-independent compilation of ``Φ`` over one plan buffer.

    ``buffer`` is any bytes-like object holding the layout's three blocks
    — the compiled ``bytes``, a pool initializer argument or a received
    frame body.  Construction validates the buffer against the layout
    (:class:`PlanDecodeError` otherwise); handles are built lazily and
    memoized per backend, over read-only views of the buffer (the numpy
    backend aliases it with zero copies).
    """

    def __init__(self, layout: PlanLayout, space, buffer):
        view = memoryview(buffer)
        if view.nbytes != layout.total_bytes:
            raise PlanDecodeError(
                f"plan buffer is {view.nbytes} bytes; its layout needs "
                f"{layout.total_bytes}"
            )
        if space.size != layout.size:
            raise PlanDecodeError(
                f"plan was built over {layout.size} states; space has "
                f"{space.size}"
            )
        _check_indices(layout)
        self.layout = layout
        self.space = space
        self.buffer = buffer
        size = layout.size
        self._succ = _int64_rows(
            view, layout.statics_bytes, len(layout.statements), size
        )
        self._groups = _int64_rows(
            view,
            layout.statics_bytes + layout.succ_bytes,
            len(layout.group_counts),
            size,
        )
        for index, row in enumerate(self._succ):
            if row.size and (row.min() < 0 or row.max() >= size):
                raise PlanDecodeError(
                    f"statement {index}'s successor array leaves [0, {size})"
                )
        for index, (row, count) in enumerate(
            zip(self._groups, layout.group_counts)
        ):
            if row.size and (row.min() < 0 or row.max() >= count):
                raise PlanDecodeError(
                    f"group table {index} has a group id outside [0, {count})"
                )
        self._memo: Dict[Tuple[Any, ...], Any] = {}

    @property
    def statements(self) -> Tuple[StatementPlan, ...]:
        return self.layout.statements

    @property
    def terms(self) -> Tuple[TermPlan, ...]:
        return self.layout.terms

    def _memoized(self, key: Tuple[Any, ...], build: Callable[[], Any]) -> Any:
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = build()
        return value

    # ------------------------------------------------------------------
    # the plan interface ``batch_phi_rows`` evaluates against
    #
    # The kernel goes through these accessors only.  Guard postfix
    # programs reference statics by slot (``("static", slot)``).
    # ------------------------------------------------------------------

    def static_handle(self, backend, slot: int) -> Any:
        """Statics slot ``slot`` as a backend handle."""
        width = self.layout.n_words * 8

        def build():
            view = memoryview(self.buffer)[slot * width : (slot + 1) * width]
            return backend.from_buffer_in(self.space, view.toreadonly())

        return self._memoized((backend.name, "static", slot), build)

    def init_handle(self, backend) -> Any:
        """The initial condition as a backend handle."""
        return self.static_handle(backend, self.layout.init_slot)

    def term_body(self, backend, index: int) -> Any:
        """Knowledge term ``index``'s body predicate as a backend handle."""
        return self.static_handle(backend, self.terms[index].body_slot)

    def poison_handle(self, backend, index: int) -> Optional[Any]:
        """Statement ``index``'s poison set, or ``None`` when empty."""
        slot = self.statements[index].poison_slot
        return None if slot is None else self.static_handle(backend, slot)

    def succ_table(self, backend, index: int) -> Any:
        """Statement ``index``'s successor map in ``backend``'s form."""
        return self._memoized(
            (backend.name, "succ", index),
            lambda: backend.table_from_array_in(self.space, self._succ[index]),
        )

    def group_table(self, backend, index: int) -> Any:
        """Term ``index``'s cylinder partition in ``backend``'s form."""
        term = self.terms[index]

        def build():
            try:
                return backend.group_table_from_array(
                    self._groups[term.group_index],
                    self.layout.group_counts[term.group_index],
                    self.layout.size,
                )
            except NotImplementedError:
                # Backends with a name-derived group form (int's big-int
                # group masks, robdd's level sets) rebuild from the space.
                return backend.group_table(self.space, term.variables)

        return self._memoized((backend.name, "group", term.group_index), build)

    def succ_ints(self, index: int) -> List[int]:
        """Statement ``index``'s successor array as Python ints."""
        return self._memoized(("ints", index), self._succ[index].tolist)


def _int64_rows(view: memoryview, offset: int, rows: int, size: int):
    """A read-only ``(rows, size)`` int64 view of one buffer block."""
    return np.frombuffer(
        view.toreadonly(), dtype="<i8", count=rows * size, offset=offset
    ).reshape(rows, size)


def _check_indices(layout: PlanLayout) -> None:
    """Every slot, term and group reference resolves inside the layout."""
    slots = [layout.init_slot]
    slots += [term.body_slot for term in layout.terms]
    for stmt in layout.statements:
        if stmt.poison_slot is not None:
            slots.append(stmt.poison_slot)
        for op in stmt.guard or ():
            if op[0] == "static":
                slots.append(op[1])
            elif op[0] == "term" and not 0 <= op[1] < len(layout.terms):
                raise PlanDecodeError(
                    f"guard of {stmt.name!r} names missing term {op[1]}"
                )
    if any(not 0 <= slot < layout.n_statics for slot in slots):
        raise PlanDecodeError(
            f"layout names a statics slot outside [0, {layout.n_statics})"
        )
    for term in layout.terms:
        if not 0 <= term.group_index < len(layout.group_counts):
            raise PlanDecodeError(
                f"a term names missing group table {term.group_index}"
            )
    # A partition of ``size`` states has at most ``size`` groups; a larger
    # count would size the numpy kernel's per-group flags without bound.
    if any(not 1 <= count <= layout.size for count in layout.group_counts):
        raise PlanDecodeError(f"a group count lies outside [1, {layout.size}]")


def eval_guard_postfix(backend, plan: PhiPlan, ops, term_handles, size: int):
    """Run a compiled guard program over one backend's kernel vocabulary.

    ``term_handles`` are the already-resolved knowledge-term handles for the
    current candidate — or, on the numpy backend's batched path, whole
    ``(batch, words)`` matrices: its boolean kernels broadcast, so the same
    evaluator serves both shapes.
    """
    stack = []
    for op in ops:
        tag = op[0]
        if tag == "term":
            stack.append(term_handles[op[1]])
        elif tag == "static":
            stack.append(plan.static_handle(backend, op[1]))
        elif tag == "not":
            stack.append(backend.not_(stack.pop(), size))
        elif tag == "and":
            b = stack.pop()
            stack.append(backend.and_(stack.pop(), b, size))
        elif tag == "or":
            b = stack.pop()
            stack.append(backend.or_(stack.pop(), b, size))
        elif tag == "xor":
            b = stack.pop()
            stack.append(backend.xor(stack.pop(), b, size))
        else:  # pragma: no cover - compile_phi_plan only emits the tags above
            raise ValueError(f"unknown guard op {op!r}")
    if len(stack) != 1:  # pragma: no cover - malformed plans never compile
        raise ValueError("guard program left a non-singleton stack")
    return stack[0]
