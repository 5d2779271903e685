"""Seeded crash-and-fault torture harness.

One round replays one seeded story: build a database (a replicated
pair, or a sharded cluster), load seed rows, arm storage faults, run a
workload, crash, recover, and assert the recovery invariants:

1. **Acked durable** — every write acknowledged before the crash is
   present after recovery.
2. **Unacked absent** — nothing from an in-flight, rolled-back or
   refused transaction survives, and no key appears from nowhere.
3. **Structure valid** — every index passes ``check_structure`` and the
   heap agrees with the index.
4. **Restart idempotent** — a second crash+restart (no new faults)
   reproduces exactly the same state.
5. **Clean analysis** — every surviving log passes walcheck and the
   round's latch-order graph stays acyclic.

The modes share that skeleton (:func:`run_round`); each supplies only
its story (``drive``) and its recover step, and :data:`MODES` holds its
constants.  Every random decision a round makes — workload, fault
schedule, crash kind, victim — derives from its seed, so a failing
seed replays: each :class:`TortureInvariantError` ends with the command
that does it, e.g.
``python -m repro.harness.torture crash --first-seed 7 --seeds 1``.
"""

from __future__ import annotations

import random
import threading
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

from repro.analysis.lockgraph import LatchOrderMonitor, LatchOrderViolation
from repro.analysis.walcheck import check_log, write_log_file
from repro.cluster.cluster import Cluster
from repro.cluster.routing import shard_for_key
from repro.common.config import DatabaseConfig
from repro.common.errors import (
    CommitNotDurableError,
    DatabaseClosedError,
    DeadlockError,
    KeyNotFoundError,
    LockTimeoutError,
    LogHaltedError,
    PermanentIOError,
    ServerError,
    ServerShutdownError,
    ShardUnavailableError,
    TwoPhaseAbortError,
    UniqueKeyViolationError,
)
from repro.db import Database
from repro.replication import Standby
from repro.server.server import DatabaseServer, ServerConfig
from repro.storage.faults import FaultInjector, FaultPlan
from repro.storage.latch import set_latch_monitor


def enable_lockgraph() -> LatchOrderMonitor:
    """Install a fresh latch-order monitor scoped to the round's database.

    Every round then doubles as a deadlock-freedom proof: the monitor
    records the acquired-while-held graph over the database's whole
    lifetime (crash/restart included) and the round asserts it stays
    acyclic over the blocking edges.  The scope is one database, not
    the process: page-id latch names are only meaningful within a
    single database, so merging graphs across rounds would fabricate
    edges (page 6 of one tree shape versus page 6 of another) and with
    them false cycles.  Call this *before* constructing the round's
    Database — its latch tables capture the installed monitor at
    construction, which is what keeps other databases' (leaked
    background) threads out of this round's graph."""
    monitor = LatchOrderMonitor()
    set_latch_monitor(monitor)
    return monitor


@dataclass(frozen=True)
class Scenario:
    """One round: a mode, a seed, and the few knobs callers turn.

    Unset fields take the mode's defaults; an unset ``crash`` takes the
    mode's crash cycle at ``seed % len(cycle)``."""

    mode: str
    seed: int = 0
    crash: str | None = None
    sessions: int | None = None
    requests_per_session: int | None = None
    key_space: int | None = None
    crash_after_requests: int | None = None
    """Total acked requests after which the crash trigger pulls."""

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown torture mode {self.mode!r}")
        mode = MODES[self.mode]
        resolved = {"crash": mode.crashes[self.seed % len(mode.crashes)]}
        resolved.update(_DEFAULTS, **mode.defaults)
        for name, value in resolved.items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, value)
        if self.crash not in mode.crashes:
            raise ValueError(f"{self.mode}: unknown crash {self.crash!r}")


_DEFAULTS = dict(
    sessions=4,
    requests_per_session=24,
    key_space=160,
    crash_after_requests=30,
)


@dataclass
class RoundReport:
    """Outcome of one round (every invariant already asserted)."""

    scenario: Scenario
    counts: Counter[str] = field(default_factory=Counter)
    fault_counters: dict[str, int] = field(default_factory=dict)


class TortureInvariantError(AssertionError):
    """A round invariant failed; the message ends with the command that
    replays the round."""


def _replay_command(scenario: Scenario) -> str:
    """The one-line command that replays ``scenario``: the CLI when the
    scenario is its mode's default for the seed, else ``run_round``."""
    if scenario == Scenario(scenario.mode, seed=scenario.seed):
        return (
            f"python -m repro.harness.torture {scenario.mode} "
            f"--first-seed {scenario.seed} --seeds 1"
        )
    return (
        'python -c "from repro.harness.torture import Scenario, run_round; '
        f'run_round({scenario!r})"'
    )


def _check(scenario: Scenario, condition: bool, message: str) -> None:
    if not condition:
        raise TortureInvariantError(
            f"{scenario.mode} seed {scenario.seed} ({scenario.crash}): "
            f"{message}; replay: {_replay_command(scenario)}"
        )


def _survivors(db: Database) -> set[int]:
    txn = db.begin()
    survivors = {row["id"] for _, row in db.scan(txn, "t", "by_id")}
    db.commit(txn)
    return survivors


def _heap_keys(db: Database) -> set[int]:
    table = db.tables["t"]
    txn = db.begin()
    keys = {table.fetch_row(txn, rid, lock=False)["id"] for rid in table.heap.scan_rids()}
    db.commit(txn)
    return keys


def _start(runners: list) -> list[threading.Thread]:
    threads = [threading.Thread(target=runner.run) for runner in runners]
    for thread in threads:
        thread.start()
    return threads


class _Worker:
    """One client session's thread: single-key inserts/deletes on the
    worker's own key partition (``key % sessions``), plus — in cluster
    mode — cross-shard transactions, tracking what was acknowledged.

    A cross-shard transaction writes a fresh worker-unique key pair,
    one key per participant shard, so its fate is readable from the
    final state: both present = committed, both absent = aborted/lost,
    one of each = the atomicity violation the round exists to catch."""

    def __init__(self, r: _Round, worker_id: int, connect, seed: int, requests: int):
        self.scenario = r.scenario
        self.mode = r.mode
        self.worker_id = worker_id
        self.connect = connect
        self.requests = requests
        self.shards = len(r.cluster.shards) if r.cluster is not None else 0
        self.rng = random.Random(seed * r.mode.worker_seed + worker_id)
        #: Last *acknowledged* state of every key this worker owns.
        self.state: dict[int, bool] = {}
        #: Keys whose state is in doubt (response never arrived).
        self.unknown: set[int] = set()
        #: Cross-shard txns: (key_a, key_b) -> "acked"|"lost"|"unknown"|"aborted".
        self.cross: dict[tuple[int, int], str] = {}
        self.acked = 0
        self.lost = 0
        self._cross_seq = 0

    def run(self) -> None:
        try:
            client = self.connect()
        except Exception:  # noqa: BLE001,RPR005 - server already stopping
            return
        cross_fraction = self.mode.cross_fraction
        try:
            for _ in range(self.requests):
                if cross_fraction and self.rng.random() < cross_fraction:
                    going = self._cross_op(client)
                else:
                    going = self._single_op(client)
                if not going:
                    return
        finally:
            try:
                client.close()
            except Exception:  # noqa: BLE001,RPR005 - client already torn down with the crash
                pass

    def _single_op(self, client) -> bool:
        """One autocommit insert or delete; False stops the session."""
        s = self.scenario
        key = self.rng.randrange(s.key_space // s.sessions) * s.sessions + self.worker_id
        inserting = self.rng.random() < self.mode.insert_fraction
        try:
            if inserting:
                client.insert("t", {"id": key, "val": f"w{self.worker_id}"})
            else:
                client.delete_by_key("t", "by_id", key)
            present = inserting
        except UniqueKeyViolationError:
            present = True  # the server proved the key present: an ack
        except KeyNotFoundError:
            present = False
        except LogHaltedError:  # noqa: RPR005 - outcome recorded as lost
            # Definite NO: the append itself was refused, so no commit
            # record exists to survive.
            self.lost += 1
            return True
        except CommitNotDurableError:  # noqa: RPR005 - outcome recorded per mode
            # Almost always the record died with the volatile tail — but
            # a crash can land *after* the batched flush covered it, so
            # where the mode says so the outcome is in-doubt, not no.
            self.lost += 1
            if self.mode.not_durable_in_doubt:
                self.unknown.add(key)
            return True
        except (DatabaseClosedError, ServerShutdownError, ShardUnavailableError):
            return False  # rejected before execution: no state change
        except (ServerError, DeadlockError, LockTimeoutError):
            # In doubt: the op may or may not have committed before the
            # line (or the engine) went down.
            self.unknown.add(key)
            return not client.closed
        except Exception:  # noqa: BLE001,RPR005 - post-crash wreckage
            self.unknown.add(key)
            return False
        self.state[key] = present
        self.unknown.discard(key)
        self.acked += 1
        return True

    def _cross_op(self, client) -> bool:
        """One two-key cross-shard transaction; False stops the session."""
        pair = self._cross_keys()
        self.cross[pair] = "unknown"
        try:
            client.begin()
            client.insert("t", {"id": pair[0], "val": f"x{self.worker_id}"})
            client.insert("t", {"id": pair[1], "val": f"x{self.worker_id}"})
            client.commit()
            self.cross[pair] = "acked"
            self.acked += 1
        except TwoPhaseAbortError:
            self.cross[pair] = "aborted"  # definite NO: no durable decision
        except (CommitNotDurableError, LogHaltedError):  # noqa: RPR005 - in-doubt commit recorded as lost
            self.cross[pair] = "lost"
        except (DatabaseClosedError, ServerShutdownError):
            return False
        except Exception:  # noqa: BLE001,RPR005 - in doubt
            # The attempt died before commit() closed the logical
            # transaction (e.g. an insert hit the crashed shard): roll it
            # back, or every later autocommit op would silently join the
            # zombie transaction and be acked without commit.
            try:
                if client._txn_open:
                    client.rollback()
            except Exception:  # noqa: BLE001,RPR005 - client already torn down with the crash
                pass
            return not client.closed
        return True

    def _cross_keys(self) -> tuple[int, int]:
        """A fresh pair of keys owned by two *different* shards."""
        base = self.scenario.key_space + 100_000 * (self.worker_id + 1)
        while True:
            self._cross_seq += 1
            a = base + 10 * self._cross_seq
            shard_a = shard_for_key(a, self.shards)
            for b in range(a + 1, a + 10):
                if shard_for_key(b, self.shards) != shard_a:
                    return a, b
            # All nine neighbours hashed onto shard_a; try the next base.


class _SnapshotReader:
    """One snapshot-reader session racing the writers.

    Every iteration opens a snapshot transaction and reads one key
    twice; the answers (presence *and* value) must agree — writers
    committing in between must be invisible inside the snapshot.
    Disagreements are counted in ``torn`` and asserted zero by the
    round.  Reads take zero locks, so a reader can never deadlock a
    writer (or be chosen as a victim)."""

    def __init__(self, reader_id: int, scenario: Scenario, server) -> None:
        self.key_space = scenario.key_space
        self.server = server
        self.rng = random.Random(scenario.seed * 69997 + reader_id)
        self.stop = False
        self.reads = 0
        self.torn = 0

    def run(self) -> None:
        try:
            client = self.server.connect_loopback()
        except Exception:  # noqa: BLE001,RPR005 - server already stopping
            return
        try:
            while not self.stop:
                key = self.rng.randrange(self.key_space)
                try:
                    with client.snapshot():
                        first = client.fetch("t", "by_id", key, isolation="snapshot")
                        second = client.fetch("t", "by_id", key, isolation="snapshot")
                    if first != second:
                        self.torn += 1
                    self.reads += 1
                except Exception:  # noqa: BLE001,RPR005 - engine crashed / server stopping
                    return
        finally:
            try:
                client.close()
            except Exception:  # noqa: BLE001,RPR005 - client already torn down with the crash
                pass


class _Round:
    """One round's live state, shared by the skeleton and the mode steps."""

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        self.mode = MODES[scenario.mode]
        self.report = RoundReport(scenario)
        self.counts = self.report.counts
        if self.mode.lockgraph:
            self.monitor: LatchOrderMonitor | None = enable_lockgraph()
        else:
            # Keep the mode's databases from pinning whatever monitor
            # the previous round left installed.
            set_latch_monitor(None)
            self.monitor = None
        self.injector: FaultInjector | None = None
        #: Databases holding the checked state (walchecked, closed at end).
        self.dbs: list[Database] = []
        self.cluster: Cluster | None = None
        #: Acknowledged key states outside any worker (seed rows, etc.).
        self.expected: dict[int, bool] = {}
        self.workers: list[_Worker] = []
        self.threads: list[threading.Thread] = []
        self.stats_before: dict[str, int] = {}
        self.standby: Standby | None = None
        self.victim = 0

    @property
    def db(self) -> Database:
        return self.dbs[0]

    def check(self, condition: bool, message: str) -> None:
        _check(self.scenario, condition, message)

    def config(self) -> DatabaseConfig:
        return DatabaseConfig(**self.mode.config)

    def server_config(self) -> ServerConfig:
        sessions = self.scenario.sessions
        return ServerConfig(
            workers=sessions,
            queue_depth=sessions * 4,
            request_timeout_seconds=10.0,
            drain_timeout_seconds=10.0,
        )

    def build(self) -> Database:
        """The round's database, schema and seed rows, faults disarmed:
        the story starts from a known-good committed state."""
        mode = self.mode
        if mode.faults:
            self.injector = FaultInjector(
                FaultPlan(seed=self.scenario.seed ^ mode.fault_seed, **mode.faults)
            )
            self.injector.disarm()
        db = Database(self.config(), fault_injector=self.injector)
        self.dbs = [db]
        db.create_table("t")
        db.create_index("t", "by_id", column="id", unique=True)
        txn = db.begin()
        for i in range(mode.initial_keys):
            key = (i * mode.key_stride) % self.scenario.key_space
            if key not in self.expected:
                db.insert(txn, "t", {"id": key, "val": "seed"})
                self.expected[key] = True
        db.commit(txn)
        return db

    def serve(self) -> DatabaseServer:
        return DatabaseServer(self.db, self.server_config()).start(listen=False)

    def spawn(self, connect, seed: int | None = None, requests: int | None = None) -> None:
        """Start one worker thread per session.  A second spawn carries
        the previous workers' acked history into the new ones."""
        s = self.scenario
        previous = self.workers
        self.workers = [
            _Worker(
                self,
                i,
                connect,
                s.seed if seed is None else seed,
                requests or s.requests_per_session,
            )
            for i in range(s.sessions)
        ]
        for before, after in zip(previous, self.workers):
            after.state, after.unknown = dict(before.state), set(before.unknown)
            after.acked, after.lost = before.acked, before.lost
        self.threads = _start(self.workers)

    def alive(self) -> bool:
        return any(thread.is_alive() for thread in self.threads)

    def warm_up(self, poll: Callable[[], None] | None = None) -> None:
        """Wait until the workers have ``crash_after_requests`` acks (or
        finished), calling ``poll`` between looks."""
        target = self.scenario.crash_after_requests
        deadline = time.monotonic() + 10.0
        while sum(w.acked for w in self.workers) < target and time.monotonic() < deadline:
            if not self.alive():
                break
            if poll is not None:
                poll()
            time.sleep(0.001)

    def crash(self, crash: Callable[[], None], logs: list, held: bool) -> None:
        """Run ``crash``; ``held`` first pins the flusher of ``logs`` so
        client commits park in the group-commit enqueue→flush window,
        and crashes into it."""
        engine = self.mode.engine_committers

        def parked() -> int:
            return sum(log.group_commit_parked for log in logs)

        if held:
            for log in logs:
                log.hold_group_commit()
            deadline = time.monotonic() + 1.0
            while parked() <= engine and time.monotonic() < deadline:
                if not self.alive():
                    break  # workload already finished; nothing to park
                time.sleep(0.001)
        self.counts["parked_at_crash"] = max(parked() - engine, 0)
        crash()
        if held:
            for log in logs:
                log.release_group_commit()

    def join(self, threads: list[threading.Thread] | None = None) -> None:
        deadline = time.monotonic() + 30.0
        for thread in self.threads if threads is None else threads:
            thread.join(timeout=max(deadline - time.monotonic(), 0.1))
            self.check(not thread.is_alive(), "session worker thread wedged")

    def enter_recovery(self) -> None:
        """Post-crash, the storage keeps its damage but stops producing
        new hard faults (transient read flakiness stays live, exercising
        the retry path during recovery)."""
        if self.injector is not None:
            self.report.fault_counters = dict(self.injector.counters)
            self.injector.enter_recovery_mode()

    def acked_state(self) -> tuple[dict[int, bool], set[int]]:
        """Every key's last acknowledged state, and the in-doubt keys."""
        state, unknown = dict(self.expected), set()
        for worker in self.workers:
            state.update(worker.state)
            unknown |= worker.unknown
        return state, unknown

    def check_state(self, label: str) -> set[int]:
        """Assert the surviving state matches the acked history exactly;
        returns the surviving keys."""
        survivors = set().union(*(_survivors(db) for db in self.dbs))
        self.check(
            all(db.verify_indexes() == {} for db in self.dbs),
            f"{label}: index structure invalid",
        )
        state, unknown = self.acked_state()
        settled = {key: present for key, present in state.items() if key not in unknown}
        lost = sorted(k for k, present in settled.items() if present and k not in survivors)
        revived = sorted(k for k, present in settled.items() if not present and k in survivors)
        self.check(not lost, f"{label}: acked keys lost: {lost}")
        self.check(not revived, f"{label}: keys acked absent survived: {revived}")
        known = set(state) | unknown
        for worker in self.workers:
            for (a, b), outcome in worker.cross.items():
                known |= {a, b}
                in_a, in_b = a in survivors, b in survivors
                self.check(
                    in_a == in_b,
                    f"{label}: cross-shard txn ({a},{b}) [{outcome}] applied "
                    f"PARTIALLY: {a} {'present' if in_a else 'absent'}, "
                    f"{b} {'present' if in_b else 'absent'}",
                )
                if outcome == "acked":
                    self.check(in_a, f"{label}: ACKED cross-shard txn ({a},{b}) lost")
                elif outcome in ("lost", "aborted"):
                    self.check(
                        not in_a, f"{label}: {outcome} cross-shard txn ({a},{b}) survived"
                    )
        ghosts = sorted(survivors - known)
        self.check(not ghosts, f"{label}: ghost keys {ghosts}")
        heap = set().union(*(_heap_keys(db) for db in self.dbs))
        self.check(heap == survivors, f"{label}: heap disagrees with index")
        return survivors

    def count_outcomes(self) -> None:
        state, unknown = self.acked_state()
        self.counts["committed_keys"] = sum(state.values())
        if not self.workers:
            return
        self.counts["acked_requests"] = sum(w.acked for w in self.workers)
        self.counts["lost_commits"] = sum(w.lost for w in self.workers)
        self.counts["indeterminate_keys"] = len(unknown)
        if self.cluster is not None:
            for outcome in ("acked", "lost", "aborted", "unknown"):
                self.counts[f"{outcome}_cross"] = sum(
                    list(w.cross.values()).count(outcome) for w in self.workers
                )
            self.counts["acked_singles"] = (
                self.counts["acked_requests"] - self.counts["acked_cross"]
            )

    def restart_all(self) -> None:
        """Crash and restart every piece again (no new faults)."""
        cluster = self.cluster
        if cluster is None:
            for db in self.dbs:
                db.crash()
                db.restart()
            return
        for shard_id in range(len(cluster.shards)):
            cluster.crash_shard(shard_id)
            cluster.restart_shard(shard_id)
        cluster.crash_coordinator()
        cluster.restart_coordinator()
        cluster.resolve_indoubt()

    def check_analysis(self, artifacts: str | Path | None) -> None:
        """End-of-round gates: every surviving log verifies clean and the
        latch-order graph stays acyclic."""
        for db in self.dbs:
            _check_log(self, db)
        if self.monitor is not None:
            try:
                self.monitor.assert_acyclic()
            except LatchOrderViolation as exc:
                self.check(False, f"latch-order cycle: {exc}")
        if artifacts is not None:
            out = Path(artifacts)
            out.mkdir(parents=True, exist_ok=True)
            if self.monitor is not None:
                self.monitor.dump_json(out / "lockgraph.json")
            write_log_file(self.db.log, out / "wal.dump")

    def close(self) -> None:
        if self.cluster is not None:
            self.cluster.close()
        else:
            for db in self.dbs:
                db.close()


def _check_log(r: _Round, db: Database) -> None:
    wal = check_log(db.log)
    r.check(wal.ok, "walcheck failed: " + "; ".join(f.format() for f in wal.findings[:5]))


# -- crash: in-process fault story --------------------------------------------
#
# One thread interleaves random transactions, page steals and
# checkpoints while a seeded FaultInjector tears page writes, throws
# transient/permanent I/O errors and schedules WAL-tail loss.  The crash
# lands on its own (a permanent fault escalates to an I/O panic) or by
# schedule; restart must repair whatever the faults left behind.


def _drive_inprocess(r: _Round) -> None:
    rng = random.Random(r.scenario.seed)
    db = r.build()
    r.injector.arm()
    # The story is single-threaded (lock_timeout 0.05 s in the mode's
    # config): any lock wait is a self-block that can only time out.
    open_txns: list = []
    pending: dict[int, dict[int, bool]] = {}
    for _ in range(10):
        try:
            action = rng.random()
            if action < 0.55 or not open_txns:
                txn = db.begin()
                open_txns.append(txn)
                pending[txn.txn_id] = {}
                try:
                    for _ in range(rng.randint(1, 6)):
                        key = rng.randrange(r.scenario.key_space)
                        # Statement savepoint: a failed statement must
                        # not leave partial effects (e.g. a heap row
                        # whose index insert hit a unique violation).
                        db.savepoint(txn, "stmt")
                        try:
                            if rng.random() < 0.6:
                                db.insert(txn, "t", {"id": key, "val": "w"})
                                pending[txn.txn_id][key] = True
                            else:
                                db.delete_by_key(txn, "t", "by_id", key)
                                pending[txn.txn_id][key] = False
                        except (UniqueKeyViolationError, KeyNotFoundError):
                            db.rollback_to_savepoint(txn, "stmt")
                except (DeadlockError, LockTimeoutError):
                    open_txns.remove(txn)
                    pending.pop(txn.txn_id)
                    db.rollback(txn)
                    r.counts["txns_rolled_back"] += 1
            elif action < 0.8:
                txn = open_txns.pop(rng.randrange(len(open_txns)))
                db.commit(txn)
                r.counts["txns_committed"] += 1
                r.expected.update(pending.pop(txn.txn_id))
            else:
                txn = open_txns.pop(rng.randrange(len(open_txns)))
                db.rollback(txn)
                pending.pop(txn.txn_id)
                r.counts["txns_rolled_back"] += 1
            if rng.random() < 0.35:
                dirty = list(db.buffer.dirty_page_table())
                for page_id in rng.sample(dirty, k=min(len(dirty), 3)):
                    db.flush_page(page_id)
            if rng.random() < 0.15:
                db.checkpoint()
        except PermanentIOError:
            # The buffer pool escalated a hard fault: the database
            # already crashed itself cleanly.
            r.counts["io_panic"] = 1
            return
    if rng.random() < 0.5:
        db.log.force()  # make in-flight work durable → undo path
    db.crash()


def _recover_restart(r: _Round) -> None:
    r.enter_recovery()
    report = r.db.restart()
    r.counts["log_tail_bytes_discarded"] = report.log_tail_bytes_discarded
    r.counts["pages_rebuilt"] = report.scrub.pages_rebuilt
    if r.workers:
        snap = r.db.stats.snapshot()
        r.counts["flushes_saved"] = r.db.stats.diff(r.stats_before).get(
            "log.group_commit_flushes_saved", 0
        )
        r.counts["commits"] = snap.get("txn.committed", 0)
        r.counts["sync_forces"] = snap.get("log.sync_forces", 0)


# -- multisession: group-commit durability over the server -------------------
#
# Client sessions issue autocommit inserts/deletes over the loopback
# transport against a group-committing server, and the crash lands
# while commits are parked between group-commit enqueue and flush
# (held_flush), at a random moment (racing), or not at all (graceful:
# drain, shut down, then crash).  Every acked commit must survive;
# a CommitNotDurableError is in-doubt; a lost response is in-doubt.
# Optional snapshot readers double-read keys inside one snapshot and
# must never see the two answers differ.


def _drive_multisession(r: _Round) -> None:
    s = r.scenario
    db = r.build()
    server = r.serve()
    r.stats_before = db.stats.snapshot()
    r.spawn(server.connect_loopback)
    readers = [_SnapshotReader(i, s, server) for i in range(r.mode.snapshot_readers)]
    reader_threads = _start(readers)
    if s.crash != "graceful":
        r.warm_up()
        r.crash(db.crash, [db.log], held=s.crash == "held_flush")
    r.join()
    for reader in readers:
        reader.stop = True
    r.join(reader_threads)
    if s.crash == "graceful":
        r.check(server.shutdown(drain=True), "graceful drain timed out")
        db.crash()
    server.abort()
    if readers:
        r.counts["snapshot_reads"] = sum(reader.reads for reader in readers)
        torn = sum(reader.torn for reader in readers)
        r.check(torn == 0, f"{torn} torn snapshot double-reads")


# -- failover: promote a hot standby -----------------------------------------
#
# A standby replicates the primary over the loopback wire while the
# client workload runs; the primary crashes (held_flush: inside the
# flush window; racing: at a random moment; sync: synchronous
# replication, racing crash) and the standby is promoted.  The async
# modes first drain the dead primary's durable prefix, after which the
# promoted state must equal what restarting the old primary produces;
# sync promotes with NO drain — the commit gate alone must carry every
# acked commit.


def _drive_failover(r: _Round) -> None:
    s = r.scenario
    sync = s.crash == "sync"
    db = r.build()
    db.enable_replication(sync=sync, sync_timeout_seconds=2.0)
    server = r.serve()
    # The standby is a second database: keep it out of the primary's
    # latch-order graph.
    set_latch_monitor(None)
    # start() seeds synchronously: by the time it returns the standby is
    # registered, so (in sync mode) no acked commit can slip past the gate.
    r.standby = Standby(
        server.connect_loopback, name=f"failover-{s.seed}", poll_wait_seconds=0.02
    ).start()
    r.spawn(server.connect_loopback)
    r.warm_up()
    r.crash(db.crash, [db.log], held=s.crash == "held_flush")
    horizon = db.log.flushed_lsn
    r.check(
        r.standby.db.log.end_lsn <= horizon + 1,
        "standby received bytes past the primary's durable prefix",
    )
    if sync:
        server.abort()  # no drain: the dead primary's log is unreachable
        r.join()
        return
    r.join()
    # Drain the dead primary's stable log (the engine is halted; its
    # flushed prefix is still servable), then cut the cord.
    r.check(
        r.standby.wait_for_lsn(horizon, timeout=10.0),
        f"standby failed to drain the durable prefix to {horizon}: "
        f"{r.standby.status()}",
    )
    server.abort()


def _recover_failover(r: _Round) -> None:
    primary = r.db
    report = r.standby.promote()
    promoted = r.standby.db
    r.dbs = [promoted]
    r.counts["records_replayed"] = promoted.stats.snapshot().get(
        "standby.records_replayed", 0
    )
    r.counts["txns_rolled_back_at_promotion"] = report.undo.transactions_rolled_back
    if r.scenario.crash != "sync":
        # The drained standby saw the primary's whole durable prefix, so
        # promotion must land on exactly the state restarting the old
        # primary produces.
        primary.restart()
        mine, theirs = _survivors(primary), _survivors(promoted)
        r.check(
            mine == theirs,
            f"promoted state diverged from the old primary's recovery "
            f"(only-primary={sorted(mine - theirs)}, "
            f"only-promoted={sorted(theirs - mine)})",
        )
        r.counts["primary_agreement_checked"] = 1
        _check_log(r, primary)
    primary.close()
    # The promoted database is a read-write primary.
    sentinel = r.scenario.key_space + 1 + r.scenario.seed
    txn = promoted.begin()
    promoted.insert(txn, "t", {"id": sentinel, "val": "post-failover"})
    promoted.commit(txn)
    r.expected[sentinel] = True


# -- serve-while-recovering: instant restart under live traffic --------------
#
# The primary crashes mid-load with torn page writes and WAL-tail loss
# armed; recovery opens the database after analysis + undo only.  Every
# key with known acked state is then read THROUGH the still-recovering
# server (each read pays on-demand recovery and must never see stale
# state), the background redo drain starts under a second write burst,
# and the skeleton's second restart proves the instant path left
# exactly the state classic recovery reaches.


def _drive_instant(r: _Round) -> None:
    db = r.build()
    db.flush_all_pages()  # a real on-disk working set for the lazy scrub
    r.injector.arm()
    server = r.serve()
    r.spawn(server.connect_loopback)
    flush_rng = random.Random(r.scenario.seed ^ 0xF1A5)

    def steal_pages() -> None:
        # Leave a mix of current, stale and torn on-disk pages.
        if flush_rng.random() < 0.2:
            dirty = list(db.buffer.dirty_page_table())
            for page_id in flush_rng.sample(dirty, k=min(len(dirty), 2)):
                try:
                    db.flush_page(page_id)
                except Exception:  # noqa: BLE001,RPR005 - racing with the load
                    pass

    r.warm_up(steal_pages)
    r.crash(db.crash, [db.log], held=False)
    # Abort before joining: post-crash requests can otherwise burn a
    # lock/latch timeout each against the dead engine.
    server.abort()
    r.join()


def _recover_instant(r: _Round) -> None:
    db = r.db
    r.enter_recovery()
    # No background workers yet: the database is open but still
    # recovering, so the reads below must pay on-demand recovery.
    db.instant_restart(redo_workers=2, background=False)
    governor = db.recovery
    r.check(governor is not None, "instant restart installed no governor")
    r.counts["pages_pending_at_open"] = governor.progress()["pages_pending"]
    server = r.serve()
    state, unknown = r.acked_state()
    client = server.connect_loopback()
    try:
        for key, present in sorted(state.items()):
            if key in unknown:
                continue
            row = client.fetch("t", "by_id", key)
            r.counts["stale_reads_checked"] += 1
            r.check(
                (row is not None) == present,
                f"key {key} acked {'present' if present else 'absent'} but "
                f"read {'absent' if present else 'present'} while recovering",
            )
    finally:
        client.close()
    # Background drain + a concurrent write burst.
    governor.start_background()
    r.spawn(server.connect_loopback, seed=r.scenario.seed + 7777, requests=12)
    r.join()
    r.check(governor.drain(timeout=30.0), f"background redo did not drain: {governor.progress()}")
    r.check(db.recovery_state == "steady", "state stuck at recovering")
    server.abort()
    snap = db.stats.snapshot()
    r.counts["recovered_ondemand"] = snap.get("recovery.pages_recovered_ondemand", 0)
    r.counts["recovered_background"] = snap.get("recovery.pages_recovered_background", 0)
    r.counts["pages_rebuilt"] = snap.get("recovery.lazy_pages_rebuilt", 0) + snap.get(
        "recovery.pages_rebuilt_from_log", 0
    )


# -- cluster: atomic commitment across shards --------------------------------
#
# Sessions mix single-shard ops with cross-shard two-phase commits
# while a crash lands on one shard, the coordinator, or both — each held
# in its group-commit flush window, where a PREPARE or a commit decision
# is enqueued but not yet durable.  After restarting the crashed pieces
# and presumed-abort resolution: acked cross-shard txns are on every
# participant, definite NOs on none, everything else all-or-nothing,
# and no shard holds an in-doubt branch.


def _drive_cluster(r: _Round) -> None:
    s = r.scenario
    cluster = r.cluster = Cluster(
        num_shards=3, config=r.config(), server_config=r.server_config()
    )
    cluster.create_table("t")
    cluster.create_index("t", "by_id", column="id", unique=True)
    r.dbs = [shard.db for shard in cluster.shards]
    victim = r.victim = random.Random(s.seed * 60013 + 7).randrange(len(cluster.shards))
    r.spawn(cluster.client)
    r.warm_up()
    logs = []
    if s.crash in ("shard", "both"):
        logs.append(cluster.shards[victim].db.log)
    if s.crash in ("coordinator", "both"):
        logs.append(cluster.coordinator.log)

    def crash() -> None:
        if s.crash in ("coordinator", "both"):
            cluster.crash_coordinator()
        if s.crash in ("shard", "both"):
            cluster.crash_shard(victim)

    r.crash(crash, logs, held=True)
    r.join()


def _recover_cluster(r: _Round) -> None:
    cluster, crash = r.cluster, r.scenario.crash
    if crash in ("shard", "both"):
        cluster.restart_shard(r.victim)
    if crash in ("coordinator", "both"):
        cluster.restart_coordinator()
    r.counts["indoubt_resolved"] = cluster.resolve_indoubt()
    r.check(
        all(not gids for gids in cluster.indoubt_gids().values()),
        f"in-doubt branches remain after resolution: {cluster.indoubt_gids()}",
    )


@dataclass(frozen=True)
class Mode:
    """One row of :data:`MODES`: a story's steps and constants."""

    drive: Callable[[_Round], None]
    """Build, load, arm faults, start the workload, crash."""
    recover: Callable[[_Round], None]
    """Bring the crashed pieces back, with the mode's own checks."""
    crashes: tuple[str, ...]
    """Crash kinds, cycled by ``seed % len(crashes)``."""
    config: dict
    """``DatabaseConfig`` fields (page and pool size, timeouts, ...)."""
    requires: tuple[str, ...] = ()
    """Counts a sweep must drive above zero, or it proved nothing."""
    defaults: dict = field(default_factory=dict)
    """Scenario defaults over the shared ones."""
    faults: dict = field(default_factory=dict)
    """``FaultPlan`` probabilities; empty means no injector."""
    fault_seed: int = 0
    """XORed into the round seed to seed the fault plan."""
    initial_keys: int = 20
    key_stride: int = 7
    """Seed row ``i`` is key ``i * key_stride % key_space``."""
    worker_seed: int = 1000003
    """Worker ``i``'s RNG seed is ``seed * worker_seed + i``."""
    insert_fraction: float = 0.65
    cross_fraction: float = 0.0
    not_durable_in_doubt: bool = True
    """Whether a single-key ``CommitNotDurableError`` is in-doubt (the
    batched flush may have covered it) or a definite NO."""
    snapshot_readers: int = 0
    """Snapshot-reader sessions racing the writers (multisession story)."""
    engine_committers: int = 0
    """Engine threads that commit through group commit on their own (the
    paced MVCC GC): ``parked_at_crash`` discounts them, so it is a lower
    bound on the client commits caught in the flush window."""
    lockgraph: bool = True


_SERVED = dict(
    page_size=1024,
    buffer_pool_pages=64,
    group_commit=True,
    group_commit_max_wait_seconds=0.001,
    lock_timeout_seconds=1.0,
    latch_timeout_seconds=5.0,
)
_MULTISESSION = Mode(
    _drive_multisession,
    _recover_restart,
    crashes=("held_flush", "racing", "graceful"),
    # Paced background GC races the client sessions, so the lockgraph
    # monitor sees GC's latch orderings under load.
    config=dict(_SERVED, mvcc_gc_interval_seconds=0.02),
    requires=("parked_at_crash",),
    engine_committers=1,
    defaults=dict(crash_after_requests=40),
)

MODES: dict[str, Mode] = {
    "crash": Mode(
        _drive_inprocess,
        _recover_restart,
        crashes=("faults",),
        config=dict(
            page_size=1024,
            buffer_pool_pages=48,
            lock_timeout_seconds=0.05,
            latch_timeout_seconds=5.0,
        ),
        requires=("io_panic", "pages_rebuilt", "log_tail_bytes_discarded"),
        defaults=dict(key_space=120),
        faults=dict(
            torn_write_probability=0.08,
            transient_read_probability=0.03,
            transient_write_probability=0.03,
            permanent_read_probability=0.01,
            permanent_write_probability=0.01,
            wal_tail_loss_probability=0.5,
        ),
        fault_seed=0x5EED_FA17,
        initial_keys=30,
        key_stride=3,
    ),
    "multisession": _MULTISESSION,
    # The multisession story with snapshot readers racing the writers.
    "mvcc": replace(
        _MULTISESSION,
        requires=("snapshot_reads",),
        snapshot_readers=2,
    ),
    "failover": Mode(
        _drive_failover,
        _recover_failover,
        crashes=("held_flush", "racing", "sync"),
        config=_SERVED,
        requires=("parked_at_crash",),
    ),
    "serve-while-recovering": Mode(
        _drive_instant,
        _recover_instant,
        crashes=("racing",),
        config=dict(
            _SERVED, buffer_pool_pages=96, ondemand_recovery_timeout_seconds=10.0
        ),
        requires=("recovered_ondemand",),
        faults=dict(torn_write_probability=0.05, wal_tail_loss_probability=0.3),
        fault_seed=0x1257A27,
        initial_keys=24,
    ),
    "cluster": Mode(
        _drive_cluster,
        _recover_cluster,
        crashes=("shard", "coordinator", "both"),
        config=dict(
            group_commit=True,
            group_commit_max_wait_seconds=0.001,
            lock_timeout_seconds=1.0,
            latch_timeout_seconds=5.0,
        ),
        requires=("acked_cross", "parked_at_crash"),
        defaults=dict(requests_per_session=20, key_space=120, crash_after_requests=16),
        initial_keys=0,
        worker_seed=999983,
        insert_fraction=0.7,
        cross_fraction=0.45,
        not_durable_in_doubt=False,
        # Shards share page-id latch names: one graph would merge them.
        lockgraph=False,
    ),
}


def run_round(scenario: Scenario, artifacts: str | Path | None = None) -> RoundReport:
    """Run one round and assert every invariant (raises
    :class:`TortureInvariantError`).  ``artifacts`` names a directory
    that receives the round's ``lockgraph.json`` and ``wal.dump``."""
    r = _Round(scenario)
    r.mode.drive(r)
    r.mode.recover(r)
    r.count_outcomes()
    survivors = r.check_state("after recovery")
    r.restart_all()
    again = r.check_state("after a second restart")
    r.check(again == survivors, "second restart diverged")
    r.check_analysis(artifacts)
    r.close()
    return r.report


def run_sweep(
    mode: str, seeds: range, artifacts: str | Path | None = None, **overrides
) -> list[RoundReport]:
    """One round per seed (raises on the first invariant violation);
    ``overrides`` are :class:`Scenario` fields."""
    return [
        run_round(Scenario(mode, seed=seed, **overrides), artifacts) for seed in seeds
    ]


def main(argv: list[str] | None = None) -> int:
    """CLI: ``python -m repro.harness.torture <mode> --seeds N``.

    Prints the sweep's summed counts as JSON and fails unless every
    count the mode requires came out non-zero."""
    import argparse
    import json
    import sys

    parser = argparse.ArgumentParser(
        prog="python -m repro.harness.torture", description="seeded crash/fault torture"
    )
    parser.add_argument("mode", choices=list(MODES))
    parser.add_argument("--seeds", type=int, default=3, help="rounds to run")
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument(
        "--artifacts",
        default=None,
        metavar="DIR",
        help="write the last round's lockgraph.json and wal.dump here",
    )
    args = parser.parse_args(argv)

    seeds = range(args.first_seed, args.first_seed + args.seeds)
    reports = run_sweep(args.mode, seeds, args.artifacts)
    totals = sum((report.counts for report in reports), Counter())
    crashes = Counter(report.scenario.crash for report in reports)
    summary = {"mode": args.mode, "rounds": len(reports), "crashes": crashes, "totals": totals}
    print(json.dumps(summary, indent=2))
    missing = [name for name in MODES[args.mode].requires if not totals[name]]
    if missing:
        print(f"sweep never exercised: {', '.join(missing)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
