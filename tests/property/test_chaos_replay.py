"""Property: a chaos repro file replays bit-identically in a fresh process.

The acceptance bar for the fault-injection subsystem: a failure found under
an injected fault, shrunk and written to disk, must reproduce with the
identical classification *and* the identical trace digest when replayed by
``python -m repro.explore --replay`` in a process that shares nothing with
the one that found it.  The fault plan rides inside the repro file, so the
replay re-injects the same faults at the same decision points.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.explore import (
    ExplorationFailure,
    ExploreTask,
    replay_repro,
    repro_payload,
    run_schedule,
    shrink_failure,
    write_repro,
)
from repro.faults import create_fault_plan
from repro.runtime.simulation import RandomScheduler

SEED_BAND = range(20)

#: A chaos repro written before ``ExploreTask`` dropped its evaluation-engine
#: field, so its task still carries the retired ``eval_engine`` key.  Its
#: plan poisons the second compiled evaluation (forcing a quarantine) and
#: then drops a signal, deadlocking h2o.
LEGACY_REPRO = Path(__file__).resolve().parent / "data" / "legacy_chaos_repro.json"


def _faulted_task(seed):
    # dropped_signal without self-healing deadlocks on many seeds in the
    # band — a genuine fault-induced failure, found by scan, not hard-coded.
    return ExploreTask(
        problem="bounded_buffer",
        mechanism="autosynch",
        threads=3,
        total_ops=6,
        seed=seed,
        fault_plan=create_fault_plan("dropped_signal").to_dict(),
        self_heal=False,
    )


def _find_fault_induced_failure():
    for seed in SEED_BAND:
        task = _faulted_task(seed)
        outcome = run_schedule(task, RandomScheduler(seed=seed))
        if outcome.kind == "deadlock" and outcome.fault_events:
            return task, outcome
    pytest.fail("no seed in the band produced a fault-induced deadlock")


@pytest.fixture(scope="module")
def chaos_repro(tmp_path_factory):
    """Find, shrink, and persist one fault-induced failure."""
    task, outcome = _find_fault_induced_failure()
    prefix = tuple(outcome.trace.choices())
    shrunk = shrink_failure(task, prefix, outcome.kind)
    failure = ExplorationFailure(
        kind=outcome.kind,
        message=shrunk.outcome.message,
        prefix=shrunk.prefix,
        trace=shrunk.outcome.trace,
        digest=shrunk.outcome.digest,
        seed=task.seed,
    )
    path = tmp_path_factory.mktemp("chaos") / "chaos_repro.json"
    write_repro(path, repro_payload(task, failure, "chaos", len(prefix)))
    return task, failure, path


class TestLegacyRepro:
    def test_pre_change_payload_replays_digest_identically(self):
        payload = json.loads(LEGACY_REPRO.read_text())
        assert payload["task"]["eval_engine"] == "compiled"
        result = replay_repro(LEGACY_REPRO)
        assert result.reproduced, result.describe()
        assert result.outcome.monitor_stats["predicate_quarantines"] == 1
        fired = [event["fault"] for event in result.outcome.fault_events]
        assert fired == ["predicate_error", "dropped_signal"]


class TestChaosReplayInProcess:
    def test_shrunk_failure_still_fails_the_same_way(self, chaos_repro):
        task, failure, _ = chaos_repro
        assert failure.kind == "deadlock"
        result = replay_repro(
            json.loads(Path(chaos_repro[2]).read_text())
        )
        assert result.reproduced, result.describe()

    def test_repro_file_embeds_the_fault_plan(self, chaos_repro):
        _, _, path = chaos_repro
        payload = json.loads(path.read_text())
        plan = payload["task"]["fault_plan"]
        assert plan["name"] == "dropped_signal"
        assert plan["faults"][0]["kind"] == "dropped_signal"


class TestChaosReplayFreshProcess:
    def test_cli_replay_reproduces_kind_and_digest(self, chaos_repro):
        _, failure, path = chaos_repro
        completed = subprocess.run(
            [sys.executable, "-m", "repro.explore", "--replay", str(path)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stdout + completed.stderr
        assert "reproduced" in completed.stdout
        assert "NOT reproduced" not in completed.stdout
        assert failure.kind in completed.stdout
        assert failure.digest[:12] in completed.stdout

    def test_tampered_trace_is_reported_not_reproduced(self, chaos_repro, tmp_path):
        # Mutating the recorded failure kind must flip the verdict: the
        # replay checks what actually happened against the file's claim.
        _, _, path = chaos_repro
        payload = json.loads(path.read_text())
        payload["failure"]["kind"] = "missed_signal"
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(payload))
        completed = subprocess.run(
            [sys.executable, "-m", "repro.explore", "--replay", str(tampered)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 1
        assert "NOT reproduced" in completed.stdout
