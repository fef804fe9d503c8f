"""Journaled campaigns: cache keys, journal durability, crash-resume.

``TestCrashRule`` runs the shared crash rule of :mod:`repro.journal`
through both journals built on it: the campaign journal and the
coordinator's grant journal.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.campaign import (
    JOURNAL_NAME,
    CampaignStep,
    Journal,
    JournalEntry,
    file_sha256,
    resolve_steps,
    run_campaign,
    step_key,
)
from repro.cli import main
from repro.coordinator import GrantJournal, Lease
from repro.errors import CampaignError, CoordinatorError


class TestStepKey:
    def test_every_input_changes_the_key(self):
        base = step_key("fig1", "1", seed=1, quick=True)
        assert step_key("fig2", "1", seed=1, quick=True) != base
        assert step_key("fig1", "2", seed=1, quick=True) != base
        assert step_key("fig1", "1", seed=2, quick=True) != base
        assert step_key("fig1", "1", seed=1, quick=False) != base

    def test_key_is_stable(self):
        assert step_key("fig1", "1", seed=1, quick=True) == step_key(
            "fig1", "1", seed=1, quick=True
        )


class TestJournal:
    def entry(self, step="fig1", key="k"):
        return JournalEntry(
            step=step, key=key, artefacts=("a.csv",), checksums=("c1",), duration_s=0.5
        )

    def test_round_trip(self):
        entry = self.entry()
        assert JournalEntry.from_dict(json.loads(json.dumps(asdict(entry)))) == entry

    def test_malformed_entry_raises(self):
        with pytest.raises(CampaignError):
            JournalEntry.from_dict({"step": "fig1"})

    def test_append_and_replay(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        journal.append(self.entry("fig1"))
        journal.append(self.entry("fig2"))
        assert [e.step for e in journal.entries()] == ["fig1", "fig2"]

    def test_truncated_final_line_tolerated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = Journal(path)
        journal.append(self.entry("fig1"))
        with path.open("a") as fh:
            fh.write('{"step": "fig2", "key"')  # crash mid-write
        assert [e.step for e in journal.entries()] == ["fig1"]

    def test_corrupt_middle_line_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = Journal(path)
        journal.append(self.entry("fig1"))
        with path.open("a") as fh:
            fh.write("garbage\n")
        journal.append(self.entry("fig2"))
        with pytest.raises(CampaignError, match="corrupt journal line"):
            journal.entries()

    def test_latest_entry_per_step_wins(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        journal.append(self.entry("fig1", key="old"))
        journal.append(self.entry("fig1", key="new"))
        assert journal.latest_by_step()["fig1"].key == "new"

    def test_clear_drops_the_file(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        journal.append(self.entry())
        journal.clear()
        assert not journal.path.exists()
        assert journal.entries() == []

    #: Two entries as the journal wrote them before it moved onto
    #: :class:`~repro.journal.JsonlLog`; the format must not change.
    EARLIER_FORMAT = (
        '{"artefacts":["fig1.csv","fig1.png"],"checksums":["c1","c2"],'
        '"duration_s":0.5,"key":"k1","step":"fig1"}\n'
        '{"artefacts":["fig2.csv"],"checksums":["c3"],'
        '"duration_s":1.25,"key":"k2","step":"fig2"}\n'
    )
    EARLIER_ENTRIES = [
        JournalEntry("fig1", "k1", ("fig1.csv", "fig1.png"), ("c1", "c2"), 0.5),
        JournalEntry("fig2", "k2", ("fig2.csv",), ("c3",), 1.25),
    ]

    def test_earlier_journal_reads_back(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(self.EARLIER_FORMAT)
        assert Journal(path).entries() == self.EARLIER_ENTRIES

    def test_format_is_unchanged_byte_for_byte(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = Journal(path)
        for entry in self.EARLIER_ENTRIES:
            journal.append(entry)
        assert path.read_bytes() == self.EARLIER_FORMAT.encode("ascii")


class _CampaignLog:
    """The campaign journal behind the small surface ``TestCrashRule`` uses."""

    error = CampaignError

    def __init__(self, path):
        self.journal = Journal(path)

    def append(self, i):
        self.journal.append(
            JournalEntry(f"step{i}", f"k{i}", (f"a{i}.csv",), (f"c{i}",), float(i))
        )

    def read(self):
        return [int(entry.key[1:]) for entry in self.journal.entries()]

    #: A complete JSON object the journal cannot turn into an entry.
    malformed = '{"step": "step9"}'


class _GrantLog:
    """The grant journal behind the small surface ``TestCrashRule`` uses."""

    error = CoordinatorError

    def __init__(self, path):
        self.journal = GrantJournal(path)

    def append(self, i):
        self.journal.record_grant(
            Lease(node_id=0, cap_w=100.0 + i, granted_s=float(i), expires_s=i + 3.0,
                  seq=i, epoch=0)
        )

    def read(self):
        return [lease.seq for lease in self.journal.replay()]

    malformed = '{"kind": "grant", "node_id": 0}'


@pytest.fixture(params=[_CampaignLog, _GrantLog], ids=["campaign", "grant"])
def log_type(request):
    return request.param


class TestCrashRule:
    """A record is committed once its newline is on disk; nothing else is
    a crash artefact."""

    def test_resume_after_a_torn_append_keeps_every_record(self, tmp_path, log_type):
        path = tmp_path / "j.jsonl"
        log_type(path).append(0)
        with path.open("a") as fh:
            fh.write('{"step": "fig2", "ke')  # killed mid-append
        resumed = log_type(path)  # a resumed process opens a fresh journal
        resumed.append(1)
        resumed.append(2)
        assert resumed.read() == [0, 1, 2]
        assert log_type(path).read() == [0, 1, 2]
        assert path.read_bytes().count(b"\n") == 3

    def test_reading_ignores_a_torn_tail_and_never_writes(self, tmp_path, log_type):
        path = tmp_path / "j.jsonl"
        log_type(path).append(0)
        with path.open("a") as fh:
            fh.write('{"kind": "gr')
        before = path.read_bytes()
        assert log_type(path).read() == [0]
        assert path.read_bytes() == before  # reading never writes

    @pytest.mark.parametrize(
        "line",
        [None, "[1, 2]", '{"step": "fig2", "ke', "", "not json"],
        ids=["malformed-record", "not-an-object", "unparsable", "blank", "garbage"],
    )
    def test_complete_bad_final_line_raises(self, tmp_path, log_type, line):
        path = tmp_path / "j.jsonl"
        log_type(path).append(0)
        with path.open("a") as fh:
            fh.write((log_type.malformed if line is None else line) + "\n")
        with pytest.raises(log_type.error):
            log_type(path).read()


class TestStepResolution:
    def test_all_steps_in_canonical_order(self):
        names = [s.name for s in resolve_steps()]
        assert names[:3] == ["fig1", "fig2", "fig4a"]
        assert "table2" in names

    def test_subset_preserves_order(self):
        assert [s.name for s in resolve_steps(["fig2", "fig1"])] == ["fig1", "fig2"]

    def test_unknown_step_rejected(self):
        with pytest.raises(CampaignError, match="unknown step"):
            resolve_steps(["fig99"])

    def test_step_must_write_artefacts(self, tmp_path):
        step = CampaignStep(name="empty", run=lambda outdir, *, seed, quick: [])
        with pytest.raises(CampaignError, match="wrote no artefacts"):
            step.execute(tmp_path, seed=1, quick=True)


def _fake_steps(calls):
    """Two cheap, deterministic steps; ``calls`` records executions."""

    def make(name):
        def run(outdir, *, seed, quick):
            calls.append(name)
            path = Path(outdir) / f"{name}.txt"
            path.write_text(f"{name} seed={seed} quick={quick}\n")
            return [path]

        return run

    return [CampaignStep(name=n, run=make(n)) for n in ("alpha", "beta")]


@pytest.fixture
def fake_campaign(monkeypatch):
    """Patch the step registry with cheap fakes; returns the call log."""
    import repro.campaign.runner as runner

    calls = []
    monkeypatch.setattr(runner, "resolve_steps", lambda names=None: _fake_steps(calls))
    return calls


class TestRunCampaign:
    def test_fresh_run_executes_everything(self, tmp_path, fake_campaign):
        result = run_campaign(tmp_path, seed=1)
        assert result.executed == ["alpha", "beta"]
        assert result.skipped == []
        assert fake_campaign == ["alpha", "beta"]
        assert all(p.exists() for p in result.artefacts)
        assert (tmp_path / JOURNAL_NAME).exists()

    def test_resume_skips_completed_steps(self, tmp_path, fake_campaign):
        run_campaign(tmp_path, seed=1)
        result = run_campaign(tmp_path, seed=1, resume=True)
        assert result.skipped == ["alpha", "beta"]
        assert fake_campaign == ["alpha", "beta"]  # no re-execution

    def test_metrics_count_ran_vs_cached(self, tmp_path, fake_campaign):
        fresh = run_campaign(tmp_path, seed=1)
        assert fresh.metrics.counter("repro.campaign.steps_ran").value == 2.0
        assert fresh.metrics.counter("repro.campaign.steps_cached").value == 0.0
        assert fresh.metrics.histogram("repro.campaign.step_duration_seconds").count == 2
        resumed = run_campaign(tmp_path, seed=1, resume=True)
        assert resumed.metrics.counter("repro.campaign.steps_ran").value == 0.0
        assert resumed.metrics.counter("repro.campaign.steps_cached").value == 2.0

    def test_changed_seed_invalidates_cache(self, tmp_path, fake_campaign):
        run_campaign(tmp_path, seed=1)
        result = run_campaign(tmp_path, seed=2, resume=True)
        assert result.executed == ["alpha", "beta"]
        assert (tmp_path / "alpha.txt").read_text() == "alpha seed=2 quick=True\n"

    def test_tampered_artefact_reruns_step(self, tmp_path, fake_campaign):
        run_campaign(tmp_path, seed=1)
        (tmp_path / "alpha.txt").write_text("tampered\n")
        result = run_campaign(tmp_path, seed=1, resume=True)
        assert result.executed == ["alpha"]
        assert result.skipped == ["beta"]
        assert (tmp_path / "alpha.txt").read_text() == "alpha seed=1 quick=True\n"

    def test_deleted_artefact_reruns_step(self, tmp_path, fake_campaign):
        run_campaign(tmp_path, seed=1)
        (tmp_path / "beta.txt").unlink()
        result = run_campaign(tmp_path, seed=1, resume=True)
        assert result.executed == ["beta"]
        assert result.skipped == ["alpha"]

    def test_without_resume_everything_reruns(self, tmp_path, fake_campaign):
        run_campaign(tmp_path, seed=1)
        result = run_campaign(tmp_path, seed=1)
        assert result.executed == ["alpha", "beta"]
        assert fake_campaign == ["alpha", "beta", "alpha", "beta"]

    def test_progress_callback_sees_every_step(self, tmp_path, fake_campaign):
        lines = []
        run_campaign(tmp_path, seed=1, progress=lines.append)
        assert len(lines) == 2 and all("ran" in line for line in lines)
        lines.clear()
        run_campaign(tmp_path, seed=1, resume=True, progress=lines.append)
        assert all("cached" in line for line in lines)


class TestCrashResume:
    def test_kill_and_resume_is_bit_identical(self, tmp_path):
        """Kill a campaign after its first step; ``--resume`` re-executes
        only the unfinished step and the artefacts match an uninterrupted
        run bit for bit (acceptance criterion)."""
        interrupted = tmp_path / "interrupted"
        clean = tmp_path / "clean"
        script = textwrap.dedent(
            f"""
            from repro.campaign import run_campaign
            run_campaign({str(interrupted)!r}, seed=1, quick=True, steps=["fig1", "fig2"])
            """
        )
        env = dict(os.environ, PYTHONPATH="src")
        repo_root = os.path.dirname(os.path.dirname(__file__))
        proc = subprocess.Popen([sys.executable, "-c", script], env=env, cwd=repo_root)
        journal_path = interrupted / JOURNAL_NAME
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if journal_path.exists() and journal_path.read_text().count("\n") >= 1:
                break
            time.sleep(0.05)
        else:
            proc.kill()
            pytest.fail("first step never journalled")
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)

        resumed = run_campaign(interrupted, seed=1, quick=True, resume=True,
                               steps=["fig1", "fig2"])
        assert resumed.skipped == ["fig1"]
        assert resumed.executed == ["fig2"]

        reference = run_campaign(clean, seed=1, quick=True, steps=["fig1", "fig2"])
        for report in reference.reports:
            for rel in report.artefacts:
                assert file_sha256(interrupted / rel) == file_sha256(clean / rel), rel

    def test_resume_journal_entries_validate(self, tmp_path):
        """The resumed journal's entries carry keys matching the inputs."""
        outdir = tmp_path / "c"
        run_campaign(outdir, seed=3, quick=True, steps=["fig1"])
        entry = Journal(outdir / JOURNAL_NAME).latest_by_step()["fig1"]
        expected = step_key("fig1", resolve_steps(["fig1"])[0].version, seed=3, quick=True)
        assert entry.key == expected


class TestCampaignCli:
    def test_cli_run_and_status(self, tmp_path, capsys, monkeypatch):
        import repro.campaign.runner as runner

        monkeypatch.setattr(runner, "resolve_steps", lambda names=None: _fake_steps([]))
        rc = main(["campaign", "run", "--outdir", str(tmp_path), "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "alpha" in out and "beta" in out
        rc = main(["campaign", "status", "--outdir", str(tmp_path)])
        assert rc == 0
        assert "alpha" in capsys.readouterr().out

    def test_cli_rejects_unknown_step(self, tmp_path, capsys):
        rc = main(["campaign", "run", "--outdir", str(tmp_path), "--steps", "nope"])
        assert rc == 2
        assert "unknown step" in capsys.readouterr().err

    def test_journal_lines_are_valid_json(self, tmp_path, monkeypatch):
        import repro.campaign.runner as runner

        monkeypatch.setattr(runner, "resolve_steps", lambda names=None: _fake_steps([]))
        run_campaign(tmp_path, seed=1)
        for line in (tmp_path / JOURNAL_NAME).read_text().splitlines():
            record = json.loads(line)
            assert {"step", "key", "artefacts", "checksums", "duration_s"} <= set(record)
