"""Serve-while-recovering torture: instant restart under live traffic.

Each round crashes a loaded multi-session server (torn page writes and
WAL-tail loss armed), restarts with on-demand recovery only (no
background workers), reads every key whose acked state is known
*through the still-recovering server* — asserting the acked commit set
is exactly preserved and no stale state is visible — then starts the
background drain, fires a second write burst at it, and verifies the
combined end state against a stop-the-world restart.

A failing seed replays exactly: ``python -m repro.harness.torture
serve-while-recovering --first-seed N --seeds 1``.
"""

from __future__ import annotations

import pytest

from repro.harness.torture import Scenario, run_round, run_sweep

MODE = "serve-while-recovering"

BATCH = 10
SEEDS = 30  # the acceptance floor


@pytest.mark.parametrize("batch", range(SEEDS // BATCH))
def test_serve_while_recovering_sweep(batch):
    reports = run_sweep(MODE, range(batch * BATCH, (batch + 1) * BATCH))
    assert len(reports) == BATCH
    # Real acknowledged traffic and real stale-read checks every round.
    assert all(r.counts["acked_requests"] > 0 for r in reports)
    assert all(r.counts["stale_reads_checked"] > 0 for r in reports)
    # The sweep as a whole exercised the lazy path: reads landed on
    # pages that were still unrecovered when they arrived.
    assert sum(r.counts["recovered_ondemand"] for r in reports) > 0


def test_round_reports_recovery_work():
    report = run_round(Scenario(MODE, seed=3))
    assert report.counts["pages_pending_at_open"] > 0
    assert report.counts["recovered_ondemand"] + report.counts["recovered_background"] > 0


def test_heavier_round_with_more_sessions():
    report = run_round(
        Scenario(MODE, seed=1, sessions=8, requests_per_session=30, key_space=320)
    )
    assert report.counts["acked_requests"] > 0
    assert report.counts["stale_reads_checked"] > 0
