"""Certificate evidence from the batched Φ kernel equals the resolver's.

Certified sharded sweeps build each candidate's eq.-(25) evidence from the
term and guard rows ``batch_phi_rows`` computes
(:func:`repro.core.kbp._evidence_from_rows`); the serial sweep builds it
per candidate on the resolver (:func:`repro.core.kbp._candidate_evidence`).
Certificates stay byte-identical only if the two agree payload for payload
on every candidate — checked here for every candidate of the batchable
registry models and of random batchable KBPs, on the int and numpy
kernels, and on int, numpy and robdd for the plan over its compiled bytes
and over a decoded copy of them (what pool processes and daemons hold).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.certificates.canonical import canonical_dumps
from repro.certificates.models import MODEL_BUILDERS, build_model
from repro.core import compile_phi_plan, solve_si, solve_si_parallel
from repro.core import kbp
from repro.core.kbp import (
    CandidateResolver,
    _candidate_evidence,
    _evidence_from_rows,
    _supersets_of,
)
from repro.predicates import Predicate, using_backend
from repro.predicates.backends import get_backend
from repro.predicates.backends.batch import PhiPlan
from repro.statespace import BoolDomain, IntRangeDomain, space_of
from repro.unity import GuardDomainError, Program, Statement, const, knows, var

from .test_parallel import random_kbps

#: The batchable knowledge-based registry models (all small enough to
#: check every candidate) and two members of the kbp24 family.
_REGISTRY_KEYS = ["fig1", "fig2", "fig2-strong", "kbp24-f8", "kbp24-f10"]


def _payload(item):
    kind, payload = item
    return kind, canonical_dumps(payload.to_payload())


def _assert_rows_give_resolver_evidence(program, plan, backend_name):
    space = program.space
    resolver = CandidateResolver(program)
    masks = list(_supersets_of(program.init.mask, space.full_mask))
    rows = get_backend(backend_name).batch_phi_rows(plan, masks)
    batched = list(_evidence_from_rows(resolver, plan, rows, masks))
    assert len(batched) == len(masks)
    for mask, item in zip(masks, batched):
        want = _candidate_evidence(resolver, Predicate(space, mask))
        assert _payload(item) == _payload(want), f"candidate {mask:#x}"


def test_registry_covers_every_batchable_model():
    """The knowledge-based models left out have no Φ plan, so certified
    sweeps of them stay on the resolver."""
    with using_backend("auto"):  # the symbolic models need robdd
        for key in MODEL_BUILDERS:
            program = build_model(key).program
            if program.is_knowledge_based() and key not in _REGISTRY_KEYS:
                assert compile_phi_plan(program) is None


@pytest.mark.parametrize("backend_name", ["int", "numpy"])
@pytest.mark.parametrize("key", _REGISTRY_KEYS)
def test_registry_model_evidence_matches_resolver(key, backend_name):
    program = build_model(key).program
    plan = compile_phi_plan(program)
    _assert_rows_give_resolver_evidence(program, plan, backend_name)


@pytest.mark.parametrize("backend_name", ["int", "numpy", "robdd"])
@pytest.mark.parametrize("key", ["fig2", "kbp24-f8"])
def test_decoded_plan_evidence_matches_resolver(key, backend_name):
    """Both homes of the one plan class: compiled bytes and a copy."""
    program = build_model(key).program
    compiled = compile_phi_plan(program)
    _assert_rows_give_resolver_evidence(program, compiled, backend_name)
    copy = bytes(bytearray(compiled.buffer))
    plan = PhiPlan(compiled.layout, program.space, copy)
    _assert_rows_give_resolver_evidence(program, plan, backend_name)


@settings(max_examples=25, deadline=None)
@given(random_kbps(), st.sampled_from(["int", "numpy"]))
def test_random_kbp_evidence_matches_resolver(program, backend_name):
    plan = compile_phi_plan(program)
    assert plan is not None
    _assert_rows_give_resolver_evidence(program, plan, backend_name)


def test_certified_sweep_takes_the_resolver_for_solutions_only(monkeypatch):
    """A batchable certified sweep asks the resolver for solutions only;
    every refutation comes from the kernel rows."""
    program = build_model("kbp24-f10").program
    calls = []
    original = kbp._candidate_evidence

    def counting(resolver, candidate):
        calls.append(candidate.mask)
        return original(resolver, candidate)

    monkeypatch.setattr(kbp, "_candidate_evidence", counting)
    report = solve_si_parallel(program, workers=1, emit_certificate=True)
    assert sorted(calls) == sorted(p.mask for p in report.solutions)
    assert report.candidates_checked == 1 << 10


@pytest.mark.parametrize("key", ["fig2", "kbp24-f8"])
def test_certified_pool_and_daemon_ship_plans_and_match_serial(
    key, spawn_worker
):
    """Certified sweeps run the kernel in pool processes and socket
    workers — each holding its own copy of the plan bytes — and still
    reproduce the serial certificate."""
    program = build_model(key).program
    serial = solve_si(program, emit_certificate=True, parallel="never")
    want = canonical_dumps(serial.certificate.to_payload())
    _proc, address = spawn_worker("w")
    pool = solve_si_parallel(program, workers=2, emit_certificate=True)
    daemon = solve_si_parallel(
        program, emit_certificate=True, remote_workers=[address]
    )
    for report in (pool, daemon):
        assert canonical_dumps(report.certificate.to_payload()) == want
    # One attach, one ``plan`` frame: the plan buffer shipped whole.
    assert daemon.dispatch.plan_payload_bytes == (
        compile_phi_plan(program).layout.total_bytes
    )


def _overflow_program() -> Program:
    """A counter whose knowledge guard can enable ``n := n + 1`` at n = 3."""
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
    return Program(
        space,
        Predicate.from_callable(space, lambda s: s["go"] and s["n"] == 3),
        statements,
        processes={"Ctl": ("go",), "Clock": ("n",)},
        name="overflow",
    )


@pytest.mark.parametrize("workers", [1, 2])
def test_poisoned_certified_sweep_raises_the_original_error(workers):
    program = _overflow_program()
    plan = compile_phi_plan(program)
    assert plan is not None and any(
        s.poison_slot is not None for s in plan.statements
    )
    with pytest.raises(GuardDomainError) as serial:
        solve_si(program, emit_certificate=True, parallel="never")
    with pytest.raises(GuardDomainError) as batched:
        solve_si_parallel(program, workers=workers, emit_certificate=True)
    assert str(batched.value) == str(serial.value)
