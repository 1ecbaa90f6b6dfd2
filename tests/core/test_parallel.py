"""The sharded/batched eq.-(25) solver must be indistinguishable from serial.

Three layers of property tests:

* the candidate enumeration primitives (``_supersets_of``, Gray-code walks,
  shard assignment masks) cover the sublattice exactly once;
* ``batch_phi`` agrees with the serial resolver's Φ on every candidate,
  on both backends;
* whole solves — plain, certified, early-exit — produce reports (and
  certificate payloads) identical to the serial sweep, across worker
  counts and backends.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import compile_phi_plan, solve_si, solve_si_parallel
from repro.core.kbp import CandidateResolver, _supersets_of
from repro.core.parallel import (
    assignment_mask,
    default_workers,
    gray_masks,
    plan_shards,
)
from repro.predicates import Predicate, limits, using_backend
from repro.predicates.backends import get_backend
from repro.statespace import BoolDomain, IntRangeDomain, space_of
from repro.unity import (
    Const,
    GuardDomainError,
    Program,
    Statement,
    Unary,
    Var,
    const,
    knows,
    lnot,
    var,
)


# ----------------------------------------------------------------------
# enumeration primitives
# ----------------------------------------------------------------------


@st.composite
def base_and_full(draw, max_bits: int = 10):
    """A (base, full) mask pair with base ⊆ full."""
    bits = draw(st.integers(min_value=1, max_value=max_bits))
    full = draw(st.integers(min_value=0, max_value=(1 << bits) - 1))
    base = full & draw(st.integers(min_value=0, max_value=(1 << bits) - 1))
    return base, full


@given(base_and_full())
def test_supersets_cover_the_interval_exactly_once(masks):
    base, full = masks
    free = full & ~base
    seen = list(_supersets_of(base, full))
    assert len(seen) == 1 << free.bit_count()
    assert len(set(seen)) == len(seen)
    for mask in seen:
        assert mask & base == base
        assert mask & ~full == 0


@given(base_and_full())
def test_supersets_descend_on_the_free_bits(masks):
    """The serial enumeration order certificates depend on: strictly
    decreasing free-bit submasks."""
    base, full = masks
    free = full & ~base
    subs = [mask & free for mask in _supersets_of(base, full)]
    assert subs == sorted(subs, reverse=True)


@given(st.lists(st.integers(min_value=0, max_value=20), unique=True, max_size=8))
def test_gray_walk_is_exhaustive_and_single_bit_stepped(positions):
    walk = list(gray_masks(positions))
    assert len(walk) == 1 << len(positions)
    assert len(set(walk)) == len(walk)
    allowed = 0
    for position in positions:
        allowed |= 1 << position
    for mask in walk:
        assert mask & ~allowed == 0
    for previous, current in zip(walk, walk[1:]):
        assert (previous ^ current).bit_count() == 1


@given(
    st.lists(st.integers(min_value=0, max_value=20), unique=True, max_size=6),
    st.integers(min_value=1, max_value=16),
)
def test_shard_plan_partitions_candidates(free_bits, workers):
    low, high = plan_shards(free_bits, workers)
    assert sorted(low + high) == sorted(free_bits)
    covered = set()
    for assignment in range(1 << len(high)):
        fixed = assignment_mask(high, assignment)
        for gray in gray_masks(low):
            covered.add(fixed | gray)
    assert len(covered) == 1 << len(free_bits)


def test_default_workers_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_SOLVER_WORKERS", "3")
    assert default_workers() == 3
    monkeypatch.setenv("REPRO_SOLVER_WORKERS", "zero")
    with pytest.raises(ValueError):
        default_workers()
    monkeypatch.setenv("REPRO_SOLVER_WORKERS", "0")
    with pytest.raises(ValueError):
        default_workers()


# ----------------------------------------------------------------------
# random knowledge-based programs
# ----------------------------------------------------------------------

_VIEWS = {"P": ["a"], "Q": ["b", "c"]}


@st.composite
def random_kbps(draw):
    """Small KBPs over three Booleans with knowledge-bearing guards."""
    space = space_of(a=BoolDomain(), b=BoolDomain(), c=BoolDomain())
    names = list(space.names)
    statements = []
    n_statements = draw(st.integers(min_value=2, max_value=3))
    for k in range(n_statements):
        target = draw(st.sampled_from(names))
        rhs = Const(draw(st.booleans()))
        process = draw(st.sampled_from(sorted(_VIEWS)))
        fact_var = draw(st.sampled_from(names))
        fact = Var(fact_var) if draw(st.booleans()) else Unary("not", Var(fact_var))
        guard = knows(process, fact)
        shape = draw(st.integers(min_value=0, max_value=3))
        if shape == 1:
            guard = lnot(guard)
        elif shape == 2:
            guard = guard & Var(draw(st.sampled_from(names)))
        elif shape == 3:
            guard = guard | Unary("not", Var(draw(st.sampled_from(names))))
        statements.append(
            Statement(name=f"s{k}", targets=(target,), exprs=(rhs,), guard=guard)
        )
    init_mask = 1 << draw(st.integers(min_value=0, max_value=space.size - 1))
    return Program(
        space,
        Predicate(space, init_mask),
        statements,
        processes=_VIEWS,
        name="random-kbp",
    )


# ----------------------------------------------------------------------
# batch_phi vs the serial resolver
# ----------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(random_kbps(), st.sampled_from(["int", "numpy"]))
def test_batch_phi_matches_resolver_phi(program, backend_name):
    plan = compile_phi_plan(program)
    assert plan is not None, "guard-only KBPs must compile"
    resolver = CandidateResolver(program)
    space = program.space
    masks = list(_supersets_of(program.init.mask, space.full_mask))
    backend = get_backend(backend_name)
    batched = backend.batch_phi(plan, masks)
    for mask, value in zip(masks, batched):
        assert value == resolver.phi(Predicate(space, mask)).mask


# ----------------------------------------------------------------------
# whole-solve equivalence
# ----------------------------------------------------------------------


def _assert_same_report(serial, parallel):
    assert parallel.candidates_checked == serial.candidates_checked
    assert tuple(p.mask for p in parallel.solutions) == tuple(
        p.mask for p in serial.solutions
    )


@settings(max_examples=15, deadline=None)
@given(random_kbps(), st.sampled_from(["int", "numpy"]))
def test_parallel_report_equals_serial_in_process(program, backend_name):
    with using_backend(backend_name):
        serial = solve_si(program, parallel="never")
        parallel = solve_si_parallel(program, workers=1, batch_size=3)
        _assert_same_report(serial, parallel)


@settings(max_examples=5, deadline=None)
@given(random_kbps(), st.sampled_from(["int", "numpy"]))
def test_parallel_report_equals_serial_multiprocess(program, backend_name):
    with using_backend(backend_name):
        serial = solve_si(program, parallel="never")
        parallel = solve_si_parallel(program, workers=2, batch_size=3)
        _assert_same_report(serial, parallel)


@settings(max_examples=6, deadline=None)
@given(random_kbps())
def test_certified_parallel_payload_is_byte_identical(program):
    from repro.certificates.canonical import canonical_dumps

    serial = solve_si(program, emit_certificate=True, parallel="never")
    parallel = solve_si_parallel(program, workers=2, emit_certificate=True)
    _assert_same_report(serial, parallel)
    assert canonical_dumps(parallel.certificate.to_payload()) == canonical_dumps(
        serial.certificate.to_payload()
    )


@settings(max_examples=10, deadline=None)
@given(random_kbps())
def test_any_solution_agrees_on_well_posedness(program):
    serial = solve_si(program, parallel="never")
    quick = solve_si_parallel(program, workers=1, any_solution=True)
    assert quick.well_posed == serial.well_posed
    for solution in quick.solutions:
        assert any(solution == s for s in serial.solutions)
    assert quick.candidates_checked <= serial.candidates_checked


def test_nested_knowledge_falls_back_to_resolver_path():
    """Nested K makes the plan ineligible; the sweep must still be exact."""
    space = space_of(a=BoolDomain(), b=BoolDomain(), c=BoolDomain())
    statements = [
        Statement(
            name="s0",
            targets=("a",),
            exprs=(Const(True),),
            guard=knows("Q", knows("P", var("a"))),
        ),
        Statement(name="s1", targets=("b",), exprs=(Const(False),)),
    ]
    program = Program(
        space, Predicate(space, 1), statements, processes=_VIEWS, name="nested"
    )
    assert compile_phi_plan(program) is None
    serial = solve_si(program, parallel="never")
    parallel = solve_si_parallel(program, workers=2)
    _assert_same_report(serial, parallel)


def test_knowledge_in_assignments_is_ineligible_but_solvable():
    space = space_of(a=BoolDomain(), b=BoolDomain())
    statements = [
        Statement(
            name="s0",
            targets=("a",),
            exprs=(knows("P", var("b")),),
            guard=Const(True),
        ),
    ]
    program = Program(
        space,
        Predicate(space, 1),
        statements,
        processes={"P": ["a"], "Q": ["b"]},
        name="k-rhs",
    )
    assert compile_phi_plan(program) is None
    serial = solve_si(program, parallel="never")
    parallel = solve_si_parallel(program, workers=1)
    _assert_same_report(serial, parallel)


def test_domain_exit_raises_the_original_error():
    """A candidate-enabled domain exit surfaces as GuardDomainError, not as
    a batching artifact."""
    space = space_of(go=BoolDomain(), n=IntRangeDomain(0, 3))
    statements = [
        Statement(
            name="bump",
            targets=("n",),
            exprs=(var("n") + const(1),),
            guard=knows("Ctl", var("go")),
        ),
        Statement(name="start", targets=("go",), exprs=(const(True),)),
    ]
    program = Program(
        space,
        Predicate.from_callable(space, lambda s: s["go"] and s["n"] == 3),
        statements,
        processes={"Ctl": ("go",), "Clock": ("n",)},
        name="overflow",
    )
    plan = compile_phi_plan(program)
    assert plan is not None and any(
        s.poison_slot is not None for s in plan.statements
    )
    with pytest.raises(GuardDomainError):
        solve_si(program, parallel="never")
    with pytest.raises(GuardDomainError):
        solve_si_parallel(program, workers=1)


def test_standard_program_delegates_to_serial():
    from ..conftest import make_counter_program

    program = make_counter_program()
    serial = solve_si(program, parallel="never")
    parallel = solve_si_parallel(program, workers=4)
    _assert_same_report(serial, parallel)


def test_solve_si_routing_knobs():
    space = space_of(a=BoolDomain(), b=BoolDomain(), c=BoolDomain())
    program = Program(
        space,
        Predicate(space, 1),
        [
            Statement(
                name="s0",
                targets=("a",),
                exprs=(Const(True),),
                guard=knows("P", var("a")),
            )
        ],
        processes=_VIEWS,
        name="routed",
    )
    with pytest.raises(ValueError):
        solve_si(program, parallel="sometimes")
    forced = solve_si(program, parallel="force", workers=1)
    serial = solve_si(program, parallel="never")
    _assert_same_report(serial, forced)


def test_size_guard_names_both_escape_hatches():
    from repro.seqtrans import SeqTransParams, RELIABLE, build_kbp_protocol

    big = build_kbp_protocol(SeqTransParams(length=1), RELIABLE)
    assert big.space.size > limits.get_limit("solver")
    with pytest.raises(ValueError, match="solve_si_iterative") as exc_info:
        solve_si(big)
    assert "parallel" in str(exc_info.value)
    with pytest.raises(ValueError, match="solve_si_iterative"):
        solve_si_parallel(big)


def test_concurrent_in_process_certified_solves_stay_independent(tmp_path):
    """Threads certifying different programs in-process at once — what the
    service does with several queue workers — must each get exactly the
    serial certificate: no sweep state may be shared between solves."""
    import sys
    import threading

    from repro.certificates.canonical import canonical_dumps
    from repro.certificates.models import build_model

    keys = ("kbp24-f8", "kbp24-f9", "kbp24-f10")  # more threads than CPUs
    programs = {key: build_model(key).program for key in keys}
    serial = {
        key: canonical_dumps(
            solve_si(program, emit_certificate=True, parallel="never")
            .certificate.to_payload()
        )
        for key, program in programs.items()
    }
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for trial in range(3):
            outcomes = {}

            def certify(key):
                try:
                    report = solve_si_parallel(
                        programs[key],
                        workers=1,
                        emit_certificate=True,
                        checkpoint=tmp_path / f"{key}-{trial}.journal",
                    )
                    outcomes[key] = canonical_dumps(
                        report.certificate.to_payload()
                    )
                except Exception as exc:  # surfaced by the assertion below
                    outcomes[key] = exc

            threads = [threading.Thread(target=certify, args=(k,)) for k in keys]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
            assert outcomes == serial, f"trial {trial}"
    finally:
        sys.setswitchinterval(interval)
