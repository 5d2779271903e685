"""Group-commit durability torture: multi-session clients vs. crashes.

Each round runs N client sessions against an in-process server over a
group-committing database, crashes (or gracefully drains) at a seeded
point, restarts, and checks the acknowledgement contract both ways:

- every request the server *acknowledged* is durable after restart;
- every commit the server reported lost (``CommitNotDurableError``)
  left no trace.

The ``held_flush`` mode aims the crash at the acceptance-criteria
window — committers enqueued for a batched flush that never happens —
and asserts they were settled as lost, not acknowledged.

A failing seed replays exactly: ``python -m repro.harness.torture
multisession --first-seed N --seeds 1`` (the failure message prints the
exact command for a pinned crash kind).
"""

from __future__ import annotations

import pytest

from repro.harness.torture import Scenario, run_round, run_sweep

BATCH = 10
SEEDS = 60  # the acceptance floor is 50


@pytest.mark.parametrize("batch", range(SEEDS // BATCH))
def test_multisession_sweep(batch):
    reports = run_sweep("multisession", range(batch * BATCH, (batch + 1) * BATCH))
    assert len(reports) == BATCH
    # Clients did real acknowledged work every round.
    assert all(r.counts["acked_requests"] > 0 for r in reports)


def test_crash_in_flush_window_loses_only_unacknowledged_commits():
    """Commits parked between batch enqueue and flush when the crash
    lands must resolve as lost — run_round itself asserts
    no acked write is missing and no lost write survives."""
    caught_in_window = 0
    for seed in range(12):
        report = run_round(Scenario("multisession", seed=seed, crash="held_flush"))
        caught_in_window += report.counts["parked_at_crash"]
        if report.counts["parked_at_crash"]:
            assert report.counts["lost_commits"] > 0
    assert caught_in_window > 0, "no round caught a commit in the window"


def test_racing_crash_rounds_hold_invariants():
    for seed in range(8):
        report = run_round(Scenario("multisession", seed=seed, crash="racing"))
        assert report.counts["acked_requests"] > 0


def test_graceful_shutdown_rounds_lose_nothing():
    for seed in range(4):
        report = run_round(Scenario("multisession", seed=seed, crash="graceful"))
        assert report.counts["lost_commits"] == 0


def test_group_commit_coalesces_under_concurrency():
    """The headline stats assertion: with 16 concurrent sessions, the
    batched flusher performs well under half a sync force per commit."""
    report = run_round(
        Scenario(
            "multisession",
            seed=0,
            sessions=16,
            requests_per_session=30,
            key_space=640,
            crash="graceful",
        )
    )
    assert report.counts["commits"] >= 100
    assert report.counts["sync_forces"] < 0.5 * report.counts["commits"], (
        f"{report['sync_forces']} forces for {report['commits']} commits "
        "— group commit saved too little"
    )
    assert report.counts["flushes_saved"] > 0
