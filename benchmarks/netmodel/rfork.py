"""Remote fork: checkpoint + ship + restart, surviving a lossy link.

Two modes:

- :meth:`RemoteFork.model` — the calibrated 1989 cost model. The paper
  reports a 70K-process rfork at slightly under 1 s of checkpoint work
  with an observed ~1.3 s average once network delays are included; the
  default checkpoint rate and :data:`repro.analysis.calibration.RFORK_LINK`
  regenerate those numbers.
- :meth:`RemoteFork.execute` — really checkpoint a task, ship it over the
  simulated link, and restart the image in a forked child, returning both
  the task result and the measured/simulated breakdown.

When the link carries a :class:`~netmodel.faults.NetFaultPlan`,
``execute`` becomes an at-least-once protocol:

- dropped/partitioned transfers retry with exponential backoff and
  deterministic jitter (bounded by the :class:`RetryPolicy`);
- every shipped image is CRC-verified at
  :meth:`~netmodel.checkpoint.CheckpointImage.from_bytes`; a
  corrupted delivery is rejected and retried instead of reaching
  ``pickle.loads``;
- an idempotency token (the task's name and payload CRC) guards
  application: a duplicated delivery, or a retry whose earlier copy
  actually landed, executes the task exactly once;
- an injected remote-node crash (the ``remote`` fault site) is retried
  like a transfer fault, and when the whole budget is exhausted the task
  re-lands *locally* (``fallback="local"``) so the caller still commits —
  the distributed leg of PR 1's fork→thread→sequential degradation.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass

from repro.analysis.calibration import RFORK_LINK
from repro.distrib.retry import RetryPolicy, RetryStats, call_with_retries
from repro.errors import RetriesExhausted, TransferError

from .checkpoint import CheckpointImage
from .faults import REMOTE_SITE, CheckpointError, NetFaultKind, RemoteNodeDown
from .netsim import SimulatedLink

#: Failures :meth:`RemoteFork.execute` treats as retryable: anything the
#: wire did (drop/partition/corrupt-detected-by-CRC) plus the remote node
#: crashing before it could apply the image.
_RETRYABLE = (TransferError, CheckpointError, RemoteNodeDown)

#: Calibrated checkpoint throughput: ~70 KiB dumped in ~0.85 s (paper: an
#: rfork of a 70K process "requires slightly less than a second", dominated
#: by checkpoint creation).
CHECKPOINT_BYTES_PER_S_1989 = 70 * 1024 / 0.85

#: Fixed restart cost (bootstrap + exec of the image).
RESTART_FIXED_S_1989 = 0.05


@dataclass(frozen=True)
class RforkCost:
    """Time breakdown of one remote fork."""

    checkpoint_s: float
    transfer_s: float
    restart_s: float
    image_bytes: int
    attempts: int = 1
    backoff_s: float = 0.0

    @property
    def total_s(self) -> float:
        return self.checkpoint_s + self.transfer_s + self.restart_s + self.backoff_s


class RemoteFork:
    """Remote fork over one simulated link.

    ``node_id`` names the remote machine for the fault plan's ``remote``
    site; ``retry`` bounds the at-least-once protocol;
    ``fallback_local=False`` turns exhaustion into
    :class:`~repro.errors.RetriesExhausted` instead of a local re-landing.
    """

    def __init__(
        self,
        link: SimulatedLink | None = None,
        checkpoint_bytes_per_s: float = CHECKPOINT_BYTES_PER_S_1989,
        restart_fixed_s: float = RESTART_FIXED_S_1989,
        retry: RetryPolicy | None = None,
        node_id: int = 1,
        fallback_local: bool = True,
    ) -> None:
        self.link = link if link is not None else SimulatedLink(RFORK_LINK)
        self.checkpoint_bytes_per_s = checkpoint_bytes_per_s
        self.restart_fixed_s = restart_fixed_s
        self.retry = retry if retry is not None else RetryPolicy()
        self.node_id = node_id
        self.fallback_local = fallback_local
        #: idempotency tokens already applied on the "remote" node
        self._applied: dict[str, object] = {}
        #: duplicate deliveries whose second copy was suppressed
        self.duplicates_suppressed = 0
        #: report of the most recent :meth:`execute` (attempts, faults, ...)
        self.last_report: dict = {}

    # -- analytic model --------------------------------------------------
    def model(self, image_bytes: int) -> RforkCost:
        """Predicted cost of rforking an image of ``image_bytes``."""
        return RforkCost(
            checkpoint_s=image_bytes / self.checkpoint_bytes_per_s,
            transfer_s=self.link.transfer_time(image_bytes),
            restart_s=self.restart_fixed_s,
            image_bytes=image_bytes,
        )

    # -- real execution -----------------------------------------------------
    def _deliver_once(self, blob: bytes, token: str, attempt: int):
        """One protocol attempt: ship, verify, crash-check, apply-once."""
        delivery = self.link.ship(blob, attempt=attempt)
        # CRC gate: a corrupt or torn image must never reach pickle.loads
        restored = CheckpointImage.from_bytes(delivery.payload)
        plan = self.link.fault_plan
        if plan is not None and plan.decide(REMOTE_SITE, self.node_id, attempt).kind is NetFaultKind.REMOTE_CRASH:
            raise RemoteNodeDown(
                f"node {self.node_id} crashed mid-restart (attempt {attempt})"
            )
        if delivery.copies > 1:
            self.duplicates_suppressed += delivery.copies - 1
        if token in self._applied:
            # an earlier copy of this exact image already ran: at-least-once
            # delivery must not double-apply
            self.duplicates_suppressed += 1
            return self._applied[token], delivery
        result = restored.restart_in_fork()
        self._applied[token] = result
        return result, delivery

    def execute(self, fn, state: dict, name: str = "rfork-task"):
        """Checkpoint, ship (with retries), restart; return the result.

        Returns ``(result, measured: RforkCost)`` where ``checkpoint_s``
        and ``restart_s`` are real wall-clock measurements on this host
        and ``transfer_s``/``backoff_s`` come from the simulated link (the
        network we do not have). A report of the protocol's behaviour —
        attempts, injected faults survived, whether the task fell back to
        local execution — lands in :attr:`last_report`.
        """
        t0 = time.perf_counter()
        image = CheckpointImage.capture(fn, state, name)
        blob = image.to_bytes()
        checkpoint_s = time.perf_counter() - t0
        # keyed on what the task is, not on when it was captured: the
        # retry jitter draws from this token, so a timestamp in it would
        # make a seeded run's backoff differ from run to run
        token = f"rfork:{name}:{zlib.crc32(image.payload):08x}"

        transfer_before = self.link.busy_seconds
        stats = RetryStats()
        fallback = None
        t1 = time.perf_counter()
        try:
            (result, _delivery), stats = call_with_retries(
                lambda attempt: self._deliver_once(blob, token, attempt),
                policy=self.retry,
                token=token,
                link=self.link,
                retry_on=_RETRYABLE,
            )
        except RetriesExhausted as exc:
            stats = getattr(exc, "stats", stats)
            if not self.fallback_local:
                self.last_report = {
                    "token": token,
                    "attempts": stats.attempts,
                    "retries": stats.retries,
                    "faults": list(stats.faults),
                    "backoff_s": stats.backoff_s,
                    "duplicates_suppressed": self.duplicates_suppressed,
                    "fallback": None,
                }
                raise
            # the network (or the remote node) is gone: degrade to running
            # the already-captured image on this host
            fallback = "local"
            result = image.restart()
        restart_s = time.perf_counter() - t1
        transfer_s = self.link.busy_seconds - transfer_before

        self.last_report = {
            "token": token,
            "attempts": stats.attempts,
            "retries": stats.retries,
            "faults": list(stats.faults),
            "backoff_s": stats.backoff_s,
            "duplicates_suppressed": self.duplicates_suppressed,
            "fallback": fallback,
        }
        return result, RforkCost(
            checkpoint_s=checkpoint_s,
            transfer_s=transfer_s,
            restart_s=restart_s,
            image_bytes=len(blob),
            attempts=stats.attempts,
            backoff_s=stats.backoff_s,
        )

    def execute_block(self, fn, state: dict, name: str = "rfork-task"):
        """Run :meth:`execute` and wrap the result as a ``BlockOutcome``.

        The protocol report (retries, faults survived, local fallback)
        lands in ``outcome.extras["rfork"]`` so supervised pipelines can
        inspect network behaviour the same way they inspect PR 1's
        supervisor history.
        """
        from repro.core.outcome import AlternativeResult, BlockOutcome

        t0 = time.perf_counter()
        try:
            result, cost = self.execute(fn, state, name)
        except RetriesExhausted as exc:
            outcome = BlockOutcome(winner=None, elapsed_s=time.perf_counter() - t0)
            outcome.extras["rfork"] = dict(self.last_report or {})
            outcome.extras["rfork"]["error"] = str(exc)
            return outcome
        winner = AlternativeResult(
            index=0, name=name, value=result, succeeded=True,
            elapsed_s=cost.total_s,
        )
        outcome = BlockOutcome(winner=winner, elapsed_s=time.perf_counter() - t0)
        outcome.extras["rfork"] = dict(self.last_report)
        outcome.extras["rfork"]["cost"] = {
            "checkpoint_s": cost.checkpoint_s,
            "transfer_s": cost.transfer_s,
            "restart_s": cost.restart_s,
            "backoff_s": cost.backoff_s,
            "image_bytes": cost.image_bytes,
        }
        return outcome


@dataclass
class RemoteNode:
    """The fault plan's view of one remote machine.

    Answers, deterministically per seed, whether the node survives a
    shipped piece of work or crashes partway through it.
    """

    node_id: int
    plan: "object | None" = None

    def crash_time(self, work_s: float, attempt: int = 0) -> float | None:
        """Seconds into the work at which the node dies, or None."""
        if self.plan is None:
            return None
        decision = self.plan.decide(REMOTE_SITE, self.node_id, attempt)
        if decision.kind is NetFaultKind.REMOTE_CRASH:
            return work_s * decision.param
        return None
