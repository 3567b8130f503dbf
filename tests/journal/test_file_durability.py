"""FileJournalStorage durability: dir fsync, torn tails, quarantine sidecar.

Simulated power loss at the file layer: the bytes a crash leaves behind
must reopen into exactly the committed prefix, the parent directory
must be fsynced whenever a name is created or renamed (an unsynced
directory entry can vanish wholesale on power loss), and quarantined
bytes must land in a ``.quarantine`` JSONL sidecar for post-mortems.
"""

import json
import os
import stat

import pytest

from repro.journal import CommitJournal, FileJournalStorage
from repro.journal.wal import MAGIC, SNAP_MAGIC


def _fill(journal, n=4):
    for i in range(n):
        txn = journal.begin("admit", request=i, tenant="t", spec={"n": i})
        journal.seal(txn)
    return journal


class _FsyncSpy:
    """Record which fsynced fds were directories."""

    def __init__(self, monkeypatch):
        self.dir_syncs = 0
        self.file_syncs = 0
        real = os.fsync

        def spy(fd):
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                self.dir_syncs += 1
            else:
                self.file_syncs += 1
            return real(fd)

        monkeypatch.setattr(os, "fsync", spy)


def test_parent_dir_fsynced_on_create(tmp_path, monkeypatch):
    spy = _FsyncSpy(monkeypatch)
    storage = FileJournalStorage(str(tmp_path / "j.wal"))
    storage.append(b"x")
    assert spy.dir_syncs == 1, "file creation must fsync the parent dir"
    assert spy.file_syncs >= 1
    spy.dir_syncs = 0
    storage.append(b"y")
    assert spy.dir_syncs == 0, "appends to an existing file need no dir fsync"


def test_only_an_append_that_may_create_the_file_looks_for_it(tmp_path, monkeypatch):
    """Once a storage has appended, its file exists: later appends
    neither stat the path nor fsync the directory."""
    path = str(tmp_path / "j.wal")
    storage = FileJournalStorage(path)
    dir_syncs, looks = [], []
    real_sync, real_exists = storage._fsync_dir, os.path.exists
    monkeypatch.setattr(storage, "_fsync_dir", lambda: dir_syncs.append(1) or real_sync())
    monkeypatch.setattr(os.path, "exists", lambda p: looks.append(p) or real_exists(p))
    journal = CommitJournal(storage)  # the magic is the first append
    assert (len(dir_syncs), len(looks)) == (1, 1)
    _fill(journal)
    assert (len(dir_syncs), len(looks)) == (1, 1)
    # a second storage over the file looks once, and finds it
    reopened = FileJournalStorage(path)
    monkeypatch.setattr(reopened, "_fsync_dir", lambda: dir_syncs.append(1) or real_sync())
    _fill(CommitJournal(reopened), n=2)
    assert (len(dir_syncs), len(looks)) == (1, 2)


def test_parent_dir_fsynced_on_replace(tmp_path, monkeypatch):
    storage = FileJournalStorage(str(tmp_path / "j.wal"))
    storage.append(b"old")
    spy = _FsyncSpy(monkeypatch)
    storage.replace(b"new")
    assert spy.dir_syncs == 1, "rename must fsync the parent dir"
    assert storage.load() == b"new"
    assert not (tmp_path / "j.wal.tmp").exists(), "no temp file left behind"


def test_torn_final_record_truncated_on_reopen(tmp_path):
    path = tmp_path / "j.wal"
    storage = FileJournalStorage(str(path))
    _fill(CommitJournal(storage=storage))
    good = storage.load()

    # power cut mid-append: a prefix of the next frame reaches the disk
    with open(path, "ab") as fh:
        fh.write(b"\x07\x00\x00\x00\xde\xad")

    reopened = CommitJournal(storage=FileJournalStorage(str(path)))
    # O_APPEND protects earlier records; the torn tail is quarantined
    # and truncated away, leaving exactly the committed prefix
    assert len(reopened.quarantines) == 1
    assert reopened.quarantines[0].site == "tail"
    assert storage.load() == good
    sealed = {
        intent["data"]["request"]
        for intent in reopened.sealed_unapplied_intents("admit")
    }
    assert sealed == {0, 1, 2, 3}


def test_quarantine_sidecar_is_structured_jsonl(tmp_path):
    path = tmp_path / "j.wal"
    storage = FileJournalStorage(str(path))
    _fill(CommitJournal(storage=storage))
    with open(path, "ab") as fh:
        fh.write(b"\x99\x00\x00\x00")
    CommitJournal(storage=FileJournalStorage(str(path)))

    sidecar = tmp_path / "j.wal.quarantine"
    assert sidecar.exists()
    entries = [json.loads(line) for line in sidecar.read_text().splitlines()]
    assert len(entries) == 1
    entry = entries[0]
    assert entry["site"] == "tail"
    assert entry["blob_len"] == 4
    assert bytes.fromhex(entry["blob_hex"]) == b"\x99\x00\x00\x00"
    assert {"offset", "length", "reason"} <= set(entry)


def test_compacted_file_is_magic_plus_snapshot(tmp_path):
    path = tmp_path / "j.wal"
    storage = FileJournalStorage(str(path))
    journal = _fill(CommitJournal(storage=storage), n=8)
    journal.compact()
    raw = storage.load()
    assert raw.startswith(MAGIC + SNAP_MAGIC)
    assert journal.records_since_snapshot() == 0

    reopened = CommitJournal(storage=FileJournalStorage(str(path)))
    assert reopened.restored_from_snapshot
    assert len(reopened.sealed_unapplied_intents("admit")) == 8
