"""Tests for checkpoint/restart images (the rfork substrate)."""

import os

import pytest

from netmodel.checkpoint import CheckpointImage, capture_checkpoint, checkpoint_here
from netmodel.faults import CheckpointError


def _task(state):
    """Top-level task: importable, hence picklable."""
    return sum(state["numbers"]) + state.get("bias", 0)


def _failing_task(state):
    raise RuntimeError("task exploded")


def test_capture_and_restart_in_process():
    image = capture_checkpoint(_task, {"numbers": [1, 2, 3], "bias": 10})
    assert image.restart() == 16


def test_image_roundtrips_through_bytes():
    image = capture_checkpoint(_task, {"numbers": list(range(100))}, name="summer")
    blob = image.to_bytes()
    restored = CheckpointImage.from_bytes(blob)
    assert restored.name == "summer"
    assert restored.restart() == sum(range(100))


def test_bad_magic_rejected():
    with pytest.raises(CheckpointError):
        CheckpointImage.from_bytes(b"garbage data here")


def test_unpicklable_task_rejected():
    with pytest.raises(CheckpointError):
        capture_checkpoint(lambda s: 0, {})


def test_image_size_reflects_state():
    small = capture_checkpoint(_task, {"numbers": [1]})
    big = capture_checkpoint(_task, {"numbers": list(range(10_000))})
    assert big.size_bytes > small.size_bytes + 10_000


def test_write_and_read_file(tmp_path):
    image = capture_checkpoint(_task, {"numbers": [5, 5]})
    path = tmp_path / "proc.ckpt"
    written = image.write_file(str(path))
    assert written == path.stat().st_size
    assert CheckpointImage.read_file(str(path)).restart() == 10


def test_checkpoint_here_return_convention():
    image, is_restart = checkpoint_here(_task, {"numbers": [2, 2]})
    assert is_restart is False
    assert image.restart() == 4


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_restart_in_fork_ships_result_back():
    image = capture_checkpoint(_task, {"numbers": list(range(1000))})
    assert image.restart_in_fork() == sum(range(1000))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_restart_in_fork_propagates_failure():
    image = capture_checkpoint(_failing_task, {})
    with pytest.raises(CheckpointError):
        image.restart_in_fork()
