"""Checkpoint wire format v2: CRC verification and header validation."""

import os
import struct

import pytest

import repro.runtime.checkpoint as ckpt_mod
from repro.errors import CheckpointError
from repro.runtime.checkpoint import CheckpointImage


def _task(state):
    return state["x"] + 1


class TestWireFormatV2:
    def test_roundtrip(self):
        image = CheckpointImage.capture(_task, {"x": 1}, "t")
        blob = image.to_bytes()
        assert blob.startswith(b"MWCKPT2\n")
        restored = CheckpointImage.from_bytes(blob)
        assert restored.name == "t"
        assert restored.restart() == 2

    def test_bad_magic_rejected(self):
        with pytest.raises(CheckpointError, match="magic"):
            CheckpointImage.from_bytes(b"NOTANIMG" + b"x" * 64)
        # the retired v1 layout carried no checksum: its magic must not
        # be a way to reach pickle.loads unverified
        image = CheckpointImage.capture(_task, {"x": 4}, "old")
        name = image.name.encode()
        v1 = (
            b"MWCKPT1\n" + struct.pack("<Qd", len(name), image.created_at)
            + name + image.payload
        )
        with pytest.raises(CheckpointError, match="bad magic"):
            CheckpointImage.from_bytes(v1)

    def test_truncated_header_raises_checkpoint_error(self):
        # satellite: a truncated header must not leak a bare struct.error
        blob = CheckpointImage.capture(_task, {"x": 1}).to_bytes()
        for cut in (9, 12, 20, 27):
            with pytest.raises(CheckpointError, match="truncated"):
                CheckpointImage.from_bytes(blob[:cut])

    def test_name_len_validated_against_blob(self):
        # satellite: a header promising a name longer than the blob
        blob = b"MWCKPT2\n" + struct.pack("<QdI", 1 << 40, 0.0, 0) + b"tiny"
        with pytest.raises(CheckpointError, match="name_len"):
            CheckpointImage.from_bytes(blob)

    def test_flipped_byte_rejected_before_unpickling(self, monkeypatch):
        image = CheckpointImage.capture(_task, {"x": 1}, "guarded")
        blob = bytearray(image.to_bytes())
        blob[-3] ^= 0xFF  # corrupt the pickled payload

        calls = []
        real_loads = ckpt_mod.pickle.loads
        monkeypatch.setattr(
            ckpt_mod.pickle, "loads",
            lambda *a, **k: calls.append(1) or real_loads(*a, **k),
        )
        with pytest.raises(CheckpointError, match="checksum"):
            CheckpointImage.from_bytes(bytes(blob))
        assert calls == []  # pickle.loads never saw the corrupt payload

    def test_torn_tail_rejected(self):
        blob = CheckpointImage.capture(_task, {"x": 1}).to_bytes()
        with pytest.raises(CheckpointError, match="checksum"):
            CheckpointImage.from_bytes(blob[:-10])

    def test_every_single_byte_flip_detected(self):
        blob = CheckpointImage.capture(_task, {"x": 1}, "n").to_bytes()
        start = len(b"MWCKPT2\n") + struct.calcsize("<QdI")
        for pos in range(start, len(blob), max(1, len(blob) // 40)):
            mutated = bytearray(blob)
            mutated[pos] ^= 0x01
            with pytest.raises(CheckpointError):
                CheckpointImage.from_bytes(bytes(mutated))

    def test_header_field_flips_detected(self):
        # regression: created_at (bytes 16-23) was once outside the CRC,
        # so a flip there sailed through verification — every mutable
        # header byte must be covered
        blob = CheckpointImage.capture(_task, {"x": 1}, "n").to_bytes()
        for pos in range(len(b"MWCKPT2\n"), len(b"MWCKPT2\n") + struct.calcsize("<Qd")):
            mutated = bytearray(blob)
            mutated[pos] ^= 0xFF
            with pytest.raises(CheckpointError):
                CheckpointImage.from_bytes(bytes(mutated))

    def test_read_file_verifies(self, tmp_path):
        image = CheckpointImage.capture(_task, {"x": 1})
        path = tmp_path / "img.ckpt"
        image.write_file(str(path))
        data = bytearray(path.read_bytes())
        data[-1] ^= 0x10
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError):
            CheckpointImage.read_file(str(path))


def _suicidal(state):
    # dies without writing any report: the parent's pipe just closes
    os._exit(17)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestRestartPipe:
    def test_broken_pipe_raises_checkpoint_error(self):
        # satellite: a short result pipe must not crash in struct.unpack
        image = CheckpointImage.capture(_suicidal, {}, "kamikaze")
        with pytest.raises(CheckpointError, match="mid-header"):
            image.restart_in_fork()

    def test_healthy_fork_roundtrip(self):
        image = CheckpointImage.capture(_task, {"x": 41})
        assert image.restart_in_fork() == 42
