"""Artifact bytes pinned from one commit to the next.

The route-equivalence suites compare routes with each other inside one
checkout; nothing there notices a change that moves every route at once.
These digests are the sha256 of the certified ``si-solve`` artifact text
``solve_query`` returns.  They are identical on the int, numpy and auto
backends, and must stay so on every route: the serial sweep, and the
sharded solver in-process, over a local pool under ``fork`` and under
``spawn``, and over a loopback worker daemon.
A deliberate change to the artifact format updates them here, in the
same commit, with the reason.
"""

from __future__ import annotations

import hashlib
import multiprocessing as mp

import pytest

from repro.service.specs import QuerySpec, solve_query

PINNED = {
    "fig1": "f37a7b3f48991202967589dd7dbb3ab2a697974b6030126479ad6352d6d9491c",
    "fig2": "e0ea1a00f5253f65af5051b18a5ebefd7941321d2dbc82587eccb621af096bab",
    "fig2-strong": (
        "f31e1397cea965def2159d5fd2f1a7d99df629317ab8f889486c97ab5fb8966e"
    ),
    "kbp24-f8": "63a8bd49fff4a6862ec11a0f8b104d05aa6b3029a6f58cc026f9c4bca87e88cf",
}

ROUTES = ["serial", "in-process", "fork", "spawn", "daemon"]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("key", sorted(PINNED))
def test_si_solve_artifact_digest_is_pinned(key, route, request, monkeypatch):
    if route in ("fork", "spawn"):
        if route not in mp.get_all_start_methods():
            pytest.skip(f"no {route} start method here")
        monkeypatch.setenv("REPRO_SOLVER_START_METHOD", route)
    monkeypatch.delenv("REPRO_SOLVER_REMOTE_WORKERS", raising=False)
    spec = QuerySpec(key, "si-solve")
    # These sweeps are below the automatic switch to the sharded solver;
    # a progress callback forces it, so every route but "serial" runs
    # the batched kernel under the shard supervisor.
    forced = {"progress": lambda _tick: None}
    if route == "serial":
        text = solve_query(spec)
    elif route == "in-process":
        text = solve_query(spec, workers=1, **forced)
    elif route == "daemon":
        _proc, address = request.getfixturevalue("spawn_worker")()
        text = solve_query(spec, remote_workers=[address])
    else:
        text = solve_query(spec, workers=2, **forced)
    assert _digest(text) == PINNED[key]
