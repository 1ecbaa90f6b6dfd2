"""Scheduled execution of UNITY programs (random, fair, or adversarial).

The UNITY execution model picks statements nondeterministically with the
fairness constraint that every statement is attempted infinitely often.  A
uniformly (or weighted-) random scheduler realizes this with probability
one, which is what the simulation benches use: model checking establishes
the *possibility* results exactly; simulation measures *quantities* (how
many messages a protocol sends at a given loss rate).

Statement weights are the loss-rate knob: giving the channel's ``lose_*``
statements weight ``r/(1-r)`` relative to each protocol statement makes a
transmitted message face roughly probability ``r`` of being dropped before
the next receive.

Scheduling is pluggable (:mod:`repro.sim.schedulers`): beyond the default
weighted-random scheduler the executor accepts round-robin and *demonic*
strategies that starve statements or greedily fire channel attacks —
probing what the paper's liveness results must survive, not just sampling
benign behavior.  A :class:`~repro.sim.watchdog.Watchdog` can ride along
to certify fairness and to distinguish livelock from slow progress.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Union

from ..predicates import Predicate
from ..predicates.backends import backend_for_size
from ..statespace import State
from ..unity import Program
from .schedulers import Scheduler, WeightedRandomScheduler, scheduler_from_spec

if False:  # typing-only import, avoids a cycle at runtime
    from .watchdog import RunDiagnosis, Watchdog


def weights_fingerprint(
    names: Sequence[str], weights: Sequence[float]
) -> str:
    """A stable sha256 digest of the effective per-statement weight table."""
    text = ";".join(f"{name}={weight!r}" for name, weight in zip(names, weights))
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def goal_fingerprint(until: Union[Predicate, Callable]) -> str:
    """A stable identifier for a run's goal, recorded for replay safety.

    Predicates fingerprint by content (sha256 of the canonical bit mask);
    callables can only be identified by name — good enough to catch the
    realistic mistake of replaying against a different goal, which
    otherwise silently produces decision-identical but meaningless runs.
    """
    if isinstance(until, Predicate):
        digest = hashlib.sha256(until.fingerprint()).hexdigest()
        return f"predicate:sha256:{digest}"
    name = (
        getattr(until, "__qualname__", None)
        or getattr(until, "__name__", None)
        or type(until).__name__
    )
    return f"callable:{name}"


@dataclass
class RunResult:
    """Outcome of one scheduled execution.

    Carries everything needed to replay itself: the scheduler ``seed``, the
    effective ``weights`` table (and its ``weights_fingerprint``, for cheap
    comparison across result sets), the ``scheduler`` spec string and its
    internal ``scheduler_state``, the ``start_index``, the exact RNG state
    at the first scheduling decision, the step budget, and a
    ``goal_fingerprint`` guarding against replay under a different goal.
    Given the same program, :func:`replay_run` reproduces the execution
    exactly.
    """

    reached: bool
    steps: int
    final_state: State
    #: per-statement count of *effective* firings (guard held when chosen)
    fired: Counter = field(default_factory=Counter)
    #: per-statement count of attempts (chosen by the scheduler at all)
    attempted: Counter = field(default_factory=Counter)
    #: the scheduler seed the executor was built with
    seed: Optional[int] = None
    #: sha256 of the effective per-statement weight table
    weights_fingerprint: Optional[str] = None
    #: the effective weight table itself ({statement name: weight})
    weights: Optional[Dict[str, float]] = field(default=None, repr=False)
    #: state index the run started from
    start_index: Optional[int] = None
    #: RNG state at the run's first scheduling decision
    rng_state: Optional[Any] = field(default=None, repr=False, compare=False)
    #: the run's step budget
    max_steps: Optional[int] = None
    #: spec string of the scheduler that drove the run
    scheduler: str = "weighted-random"
    #: deterministic scheduler's internal state at the run's first decision
    scheduler_state: Optional[Any] = field(default=None, repr=False, compare=False)
    #: fingerprint of the goal the run executed toward
    goal_fingerprint: Optional[str] = None
    #: watchdog post-mortem, when a watchdog watched the run
    diagnosis: Optional["RunDiagnosis"] = field(
        default=None, repr=False, compare=False
    )

    def messages(self, transmit_statements: Sequence[str]) -> int:
        """Total effective firings of the named transmit statements."""
        return sum(self.fired[name] for name in transmit_statements)


class Executor:
    """A pluggable-strategy scheduler over a (standard) program's statements.

    ``scheduler`` accepts a :class:`~repro.sim.schedulers.Scheduler`
    instance or a spec string (``"round-robin"``, ``"greedy-loss"``, …);
    the default is the weighted-random fair scheduler, byte-compatible
    with the executor's historical behavior.
    """

    def __init__(
        self,
        program: Program,
        weights: Optional[Mapping[str, float]] = None,
        seed: int = 0,
        scheduler: Union[Scheduler, str, None] = None,
    ):
        if program.is_knowledge_based():
            raise ValueError(
                f"program {program.name!r} is knowledge-based; resolve it before executing"
            )
        self.program = program
        self.seed = seed
        self.rng = random.Random(seed)
        self._names: List[str] = [s.name for s in program.statements]
        self._weights: List[float] = [
            float((weights or {}).get(name, 1.0)) for name in self._names
        ]
        self.weights_fingerprint = weights_fingerprint(
            self._names, self._weights
        )
        if min(self._weights) < 0:
            raise ValueError("statement weights must be non-negative")
        if max(self._weights) == 0:
            raise ValueError("at least one statement needs positive weight")
        self._arrays = [program.successor_array(s) for s in program.statements]
        self._guards: List[Predicate] = [
            program.enabled(s) for s in program.statements
        ]
        # Prime backend handles so the per-step guard/goal tests hit the
        # backend's O(1) bit probe instead of shifting a big int each step.
        self._backend = backend_for_size(program.space.size)
        for guard in self._guards:
            guard.handle(self._backend)
        if scheduler is None:
            scheduler = WeightedRandomScheduler()
        elif isinstance(scheduler, str):
            scheduler = scheduler_from_spec(scheduler)
        self.scheduler: Scheduler = scheduler
        self.scheduler.bind(self._names, self._weights, self._guards, self.rng)
        #: init's state indices, materialized once (the soak harness calls
        #: initial_state thousands of times per sweep)
        self._init_indices: Optional[List[int]] = None

    def initial_state(self) -> State:
        """A uniformly random initial state."""
        if self._init_indices is None:
            self._init_indices = list(self.program.init.indices())
        if not self._init_indices:
            raise ValueError("program has no initial states")
        return State(self.program.space, self.rng.choice(self._init_indices))

    def run(
        self,
        until: Union[Predicate, Callable[[State], bool]],
        start: Optional[State] = None,
        max_steps: int = 100_000,
        watchdog: Optional["Watchdog"] = None,
    ) -> RunResult:
        """Execute until the goal holds or ``max_steps`` statements fired.

        ``until`` may be a predicate or any state → bool function.  With a
        ``watchdog``, each step is fed to livelock/starvation/fairness
        tracking and the run terminates early on a proven livelock, with
        the diagnosis attached to the result.
        """
        fingerprint = goal_fingerprint(until)
        if isinstance(until, Predicate):
            until.handle(self._backend)
            goal = until.holds_at
            current = start.index if start is not None else self.initial_state().index
            return self._run_indexed(goal, current, max_steps, fingerprint, watchdog)
        current_state = start if start is not None else self.initial_state()
        return self._run_indexed(
            lambda i: until(State(self.program.space, i)),
            current_state.index,
            max_steps,
            fingerprint,
            watchdog,
        )

    def _run_indexed(
        self,
        goal,
        current: int,
        max_steps: int,
        fingerprint: Optional[str] = None,
        watchdog: Optional["Watchdog"] = None,
    ) -> RunResult:
        fired: Counter = Counter()
        attempted: Counter = Counter()
        names = self._names
        weights = self._weights
        arrays = self._arrays
        guards = self._guards
        scheduler = self.scheduler
        start_index = current
        # getstate(), not just the seed: a reused executor's RNG has already
        # advanced (initial_state draws, earlier runs), and a replayable
        # result must capture the stream exactly where this run picked it up.
        rng_state = self.rng.getstate()
        scheduler_state = scheduler.get_state()
        if watchdog is not None:
            watchdog.attach(self, goal)

        def result(reached: bool, steps: int) -> RunResult:
            return RunResult(
                reached=reached,
                steps=steps,
                final_state=State(self.program.space, current),
                fired=fired,
                attempted=attempted,
                seed=self.seed,
                weights_fingerprint=self.weights_fingerprint,
                weights=dict(zip(names, weights)),
                start_index=start_index,
                rng_state=rng_state,
                max_steps=max_steps,
                scheduler=scheduler.spec,
                scheduler_state=scheduler_state,
                goal_fingerprint=fingerprint,
                diagnosis=(
                    watchdog.snapshot(reached, steps)
                    if watchdog is not None
                    else None
                ),
            )

        for step in range(max_steps):
            if goal(current):
                return result(True, step)
            k = scheduler.choose(step, current)
            attempted[names[k]] += 1
            before = current
            enabled = guards[k].holds_at(current)
            if enabled:
                fired[names[k]] += 1
                current = arrays[k][current]
            if watchdog is not None:
                verdict = watchdog.observe(
                    before, k, enabled, current, scheduler.state_key()
                )
                if verdict is not None:
                    return result(goal(current), step + 1)
        return result(goal(current), max_steps)


def replay_run(
    program: Program,
    result: RunResult,
    until: Union[Predicate, Callable[[State], bool]],
) -> RunResult:
    """Re-execute the run a :class:`RunResult` describes, exactly.

    Rebuilds the executor from the result's recorded seed, weight table and
    scheduler spec, restores the RNG and scheduler to the states they held
    at the run's first scheduling decision, and re-runs from the recorded
    start state with the same step budget.  The replayed result matches
    the original decision-for-decision (same ``fired``/``attempted``
    counters, same final state).

    The goal is verified against the recorded fingerprint: replaying
    against a *different* goal would silently reproduce the decisions but
    change what ``reached`` means, so a mismatch raises instead.
    """
    if result.seed is None or result.rng_state is None:
        raise ValueError("RunResult predates replay support; re-run it first")
    if result.goal_fingerprint is not None:
        offered = goal_fingerprint(until)
        if offered != result.goal_fingerprint:
            raise ValueError(
                f"goal mismatch: the run was recorded against "
                f"{result.goal_fingerprint} but replay was asked to use "
                f"{offered}; pass the original goal (or re-run instead of "
                "replaying)"
            )
    executor = Executor(
        program,
        weights=result.weights,
        seed=result.seed,
        scheduler=result.scheduler,
    )
    if executor.weights_fingerprint != result.weights_fingerprint:
        raise ValueError(
            "program's statement list no longer matches the recorded "
            "weight table; the result is not replayable against it"
        )
    executor.rng.setstate(result.rng_state)
    executor.scheduler.set_state(result.scheduler_state)
    return executor.run(
        until,
        start=State(program.space, result.start_index),
        max_steps=result.max_steps,
    )


def average_messages(
    program: Program,
    goal: Predicate,
    transmit_statements: Sequence[str],
    runs: int = 20,
    seed: int = 0,
    weights: Optional[Mapping[str, float]] = None,
    max_steps: int = 100_000,
) -> Dict[str, float]:
    """Mean message count and steps to reach ``goal`` over several seeded runs.

    Returns ``{"messages": …, "steps": …, "completed": fraction}``.  The
    means are taken over the *completed* runs only; when no run completes
    they are ``nan`` — a mean of zero messages would dress total failure
    up as a perfect protocol.
    """
    totals = {"messages": 0.0, "steps": 0.0, "completed": 0.0}
    for r in range(runs):
        executor = Executor(program, weights=weights, seed=seed + r)
        result = executor.run(goal, max_steps=max_steps)
        if result.reached:
            totals["completed"] += 1
            totals["messages"] += result.messages(transmit_statements)
            totals["steps"] += result.steps
    done = totals["completed"]
    if done == 0:
        return {
            "messages": float("nan"),
            "steps": float("nan"),
            "completed": 0.0,
        }
    return {
        "messages": totals["messages"] / done,
        "steps": totals["steps"] / done,
        "completed": totals["completed"] / runs,
    }
