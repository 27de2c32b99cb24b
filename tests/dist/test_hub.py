"""CubeHub protocol unit tests: raw :class:`HubClient` "hosts" with no
solver processes behind them, so every queue/lease/relay path is
exercised deterministically — verdict semantics, requeue on connection
drop, on a lost worker and on lease expiry, the structural double-loss
failure, the LBD relay filter with dedup, and decided-cube
notification.
"""

from __future__ import annotations

import contextlib
import time

import pytest

from repro.dist import CubeHub, DistError, HubClient
from repro.portfolio.cubes import Cube
from repro.portfolio.worker import ProblemSpec

_PROBLEM = ProblemSpec("instance", "b01_1", 10)

#: Root cube plus two splits on one assumption variable.
_CUBES = (
    Cube(()),
    Cube((("repro_t", 0, 3),)),
    Cube((("repro_t", 4, 7),)),
)


@contextlib.contextmanager
def _hub(tmp_path, **kwargs):
    hub = CubeHub(_PROBLEM, list(kwargs.pop("cubes", _CUBES)), **kwargs)
    hub.start(unix_path=str(tmp_path / "hub.sock"))
    try:
        yield hub
    finally:
        hub.close()


def _host(hub, name, slots=1):
    client = HubClient(hub.address)
    welcome = client.call({"op": "hello", "name": name, "slots": slots})
    return client, welcome


def _report(client, cube, status, model=None, worker=0):
    return client.call(
        {
            "op": "result",
            "cube": cube,
            "status": status,
            "model": model,
            "worker": worker,
            "stats": {},
            "share": None,
        }
    )


def test_hello_required_before_any_other_op(tmp_path):
    with _hub(tmp_path) as hub:
        client = HubClient(hub.address)
        with pytest.raises(DistError, match="hello required"):
            client.call({"op": "pull"})
        client.close()


def test_hello_assigns_disjoint_base_indices_and_ships_problem(tmp_path):
    with _hub(tmp_path) as hub:
        a, welcome_a = _host(hub, "alpha", slots=3)
        b, welcome_b = _host(hub, "beta", slots=2)
        assert welcome_a["host"] != welcome_b["host"]
        assert welcome_a["base_index"] == 0
        # Host indices never collide: beta starts after alpha's slots.
        assert welcome_b["base_index"] == 3
        assert ProblemSpec(**welcome_a["problem"]) == _PROBLEM
        assert "learning_threshold" in welcome_a["config"]
        a.close()
        b.close()


def test_sat_anywhere_settles_and_stops_peers(tmp_path):
    with _hub(tmp_path) as hub:
        a, _ = _host(hub, "alpha")
        b, _ = _host(hub, "beta")
        cube_a = a.call({"op": "pull"})["cube"]
        cube_b = b.call({"op": "pull"})["cube"]
        assert {cube_a["index"], cube_b["index"]} == {0, 1}
        _report(a, cube_a["index"], "sat", model={"x": 1}, worker=0)
        result = hub.wait(timeout=2.0)
        assert result is not None and result.status == "sat"
        assert result.model == {"x": 1}
        assert result.winning_cube == cube_a["index"]
        assert result.winning_host == "h0"
        # The peer learns on its next request: decided + stop.
        response = b.call({"op": "heartbeat"})
        assert response.get("stop") is True
        assert cube_a["index"] in response.get("decided", ())
        a.close()
        b.close()


def test_root_unsat_settles_without_split_results(tmp_path):
    with _hub(tmp_path) as hub:
        a, _ = _host(hub, "alpha")
        cube = a.call({"op": "pull"})["cube"]
        assert cube["index"] == 0  # root is always handed out first
        _report(a, 0, "unsat")
        result = hub.wait(timeout=2.0)
        assert result is not None and result.status == "unsat"
        a.close()


def test_all_splits_unsat_settles_without_root(tmp_path):
    with _hub(tmp_path) as hub:
        a, _ = _host(hub, "alpha", slots=3)
        indices = [a.call({"op": "pull"})["cube"]["index"] for _ in range(3)]
        assert sorted(indices) == [0, 1, 2]
        _report(a, 1, "unsat")
        _report(a, 2, "unsat")
        result = hub.wait(timeout=2.0)
        assert result is not None and result.status == "unsat"
        assert hub.wait(timeout=0.0).requeues == 0
        a.close()


def test_connection_drop_requeues_then_double_loss_fails(tmp_path):
    with _hub(tmp_path) as hub:
        a, _ = _host(hub, "alpha")
        first = a.call({"op": "pull"})["cube"]["index"]
        a.close()  # connection drop releases the lease
        b, _ = _host(hub, "beta")
        deadline = time.monotonic() + 2.0
        again = None
        while time.monotonic() < deadline:
            response = b.call({"op": "pull"})
            cube = response.get("cube")
            if cube is not None and cube["index"] == first:
                again = cube["index"]
                break
            time.sleep(0.05)
        assert again == first, "dropped cube was not requeued"
        b.close()  # same cube lost a second time: structural failure
        result = hub.wait(timeout=2.0)
        assert result is not None and result.status == "unknown"
        assert result.failure is not None
        assert f"cube {first} lost twice" in result.failure
        assert result.requeues == 1


def test_lost_worker_requeues_cube_then_second_loss_fails(tmp_path):
    """A host whose local worker died mid-cube says ``lost``: the cube
    is requeued at once, though the host stays connected and keeps its
    lease alive, and losing it a second time fails the solve."""
    with _hub(tmp_path) as hub:
        a, _ = _host(hub, "alpha", slots=2)
        first = a.call({"op": "pull"})["cube"]["index"]
        a.call({"op": "lost", "cube": first})
        # The host's other worker is handed the requeued cube.
        assert a.call({"op": "pull"})["cube"]["index"] == first
        a.call({"op": "lost", "cube": first})
        result = hub.wait(timeout=2.0)
        assert result is not None and result.status == "unknown"
        assert result.failure is not None
        assert f"cube {first} lost twice" in result.failure
        assert result.requeues == 1
        a.close()


def test_lease_expiry_requeues_silent_host(tmp_path):
    with _hub(tmp_path, lease_s=0.3) as hub:
        a, _ = _host(hub, "alpha")
        first = a.call({"op": "pull"})["cube"]["index"]
        # alpha goes silent; beta stays live and eventually inherits
        # the expired cube (wait() sweeps leases while polling).
        b, _ = _host(hub, "beta")
        deadline = time.monotonic() + 3.0
        inherited = None
        while time.monotonic() < deadline:
            assert hub.wait(timeout=0.05) is None
            response = b.call({"op": "pull"})
            cube = response.get("cube")
            if cube is not None and cube["index"] == first:
                inherited = cube["index"]
                break
        assert inherited == first, "expired lease was not requeued"
        a.close()
        b.close()


def test_clause_relay_filters_lbd_dedups_and_skips_owner(tmp_path):
    with _hub(tmp_path, relay_max_lbd=4) as hub:
        a, _ = _host(hub, "alpha")
        b, _ = _host(hub, "beta")
        binary = [[["b", "x", True], ["b", "y", False]], 9]
        glue = [[["b", "x", True], ["b", "y", True], ["b", "z", True]], 3]
        weak = [[["b", "p", True], ["b", "q", True], ["b", "r", True]], 7]
        response = a.call(
            {"op": "clauses", "batch": [binary, glue, weak, glue]}
        )
        # Binary always passes; LBD 3 <= 4 passes once; LBD 7 and the
        # duplicate are rejected.
        assert response["admitted"] == 2
        # The owner never gets its own clauses back.
        assert "clauses" not in a.call({"op": "heartbeat"})
        relayed = b.call({"op": "heartbeat"})["clauses"]
        payloads = [tuple(map(tuple, p[0])) for batch in relayed for p in batch]
        assert len(payloads) == 2
        # Re-upload from beta is deduplicated hub-wide.
        assert b.call({"op": "clauses", "batch": [glue]})["admitted"] == 0
        a.close()
        b.close()


def test_drained_queue_hands_out_least_covered_duplicates(tmp_path):
    with _hub(tmp_path) as hub:
        a, _ = _host(hub, "alpha", slots=3)
        for _ in range(3):
            assert "cube" in a.call({"op": "pull"})
        b, _ = _host(hub, "beta")
        # Queue drained: beta receives a duplicate of an undecided
        # in-flight cube rather than ``wait``.
        duplicate = b.call({"op": "pull"})["cube"]["index"]
        assert duplicate in (0, 1, 2)
        # alpha already holds every cube, so *it* must wait.
        assert a.call({"op": "pull"}).get("wait") is True
        a.close()
        b.close()


def test_abort_force_settles_unknown(tmp_path):
    with _hub(tmp_path) as hub:
        assert hub.wait(timeout=0.1) is None
        result = hub.abort("driver gave up")
        assert result.status == "unknown"
        assert result.note == "driver gave up"
        assert hub.settled
