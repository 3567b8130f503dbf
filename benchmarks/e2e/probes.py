"""In-situ timing for the traced window, from outside the program.

``SpeculationService`` accepts its queue, budget, policy and journal as
constructor arguments. The classes here are those objects with a clock
around their public methods: each override stamps ``time.monotonic()``
into the record of the request the calling thread is serving and defers
to the real method. Nothing in ``src/`` is edited or patched, and an
untraced window is built from the plain classes.

A request is known by its ``seq``. ``offer`` runs on the submitting thread
and opens the record; ``take`` runs on the worker that will serve the
request and binds the record to that thread, so the budget, policy and
journal calls the worker then makes need no request argument to be
attributed.
"""

from __future__ import annotations

import threading
import time

from repro.journal import CommitJournal
from repro.serve import AdaptiveSpeculationPolicy, AdmissionQueue, WorldBudget

now = time.monotonic


class Trace:
    """Per-request stamp records, keyed by request seq."""

    def __init__(self) -> None:
        self.records: dict[int, dict] = {}
        self._local = threading.local()

    def open(self, seq: int) -> dict:
        return self.records.setdefault(seq, {"journal_records": 0})

    def bind(self, seq: int) -> dict:
        rec = self._local.rec = self.open(seq)
        return rec

    @property
    def current(self) -> dict:
        """The record of the request this thread is serving (a scratch
        record for calls made outside any request, e.g. during start-up)."""
        rec = getattr(self._local, "rec", None)
        if rec is None:
            rec = self._local.rec = {"journal_records": 0}
        return rec


class ProbedQueue(AdmissionQueue):
    def __init__(self, trace: Trace, **kwargs) -> None:
        super().__init__(**kwargs)
        self.trace = trace

    def offer(self, request) -> None:
        rec = self.trace.open(request.seq)
        rec["depth"] = len(self)
        rec["offer"] = now()
        super().offer(request)

    def take(self, timeout=None):
        request, shed = super().take(timeout)
        if request is not None:
            self.trace.bind(request.seq)["take"] = now()
        return request, shed


class ProbedBudget(WorldBudget):
    def __init__(self, trace: Trace, slots: int) -> None:
        super().__init__(slots)
        self.trace = trace

    def reserve_blocking(self, *args, **kwargs):
        rec = self.trace.current
        rec["reserve_enter"] = now()
        reservation = super().reserve_blocking(*args, **kwargs)
        rec["reserve_return"] = now()
        rec["granted"] = reservation.granted if reservation is not None else 0
        return reservation


class ProbedPolicy(AdaptiveSpeculationPolicy):
    """The default adaptive policy, timed."""

    def __init__(self, trace: Trace) -> None:
        super().__init__()
        self.trace = trace

    def decide(self, names, granted, load=0.0, request_class=None):
        rec = self.trace.current
        rec["decide_enter"] = now()
        decision = super().decide(names, granted, load, request_class)
        rec["decide_return"] = now()
        rec["k"] = decision.k
        return decision

    def observe(self, outcome, names=None, launched=None) -> None:
        rec = self.trace.current
        rec["observe_enter"] = now()
        super().observe(outcome, names, launched)
        rec["observe_return"] = now()


class ProbedJournal(CommitJournal):
    """Stamps the supervisor's replay lookup and the block transaction
    (``begin`` … ``mark_applied``) of the request being served."""

    def __init__(self, trace: Trace, **kwargs) -> None:
        super().__init__(**kwargs)
        self.trace = trace

    def find_applied(self, kind, **match):
        rec = self.trace.current
        rec["find_enter"] = now()
        hit = super().find_applied(kind, **match)
        rec["find_return"] = now()
        return hit

    def begin(self, kind, **data):
        rec = self.trace.current
        rec.setdefault("txn_begin", now())
        rec["journal_records"] += 1
        return super().begin(kind, **data)

    def seal(self, seq) -> None:
        self.trace.current["journal_records"] += 1
        super().seal(seq)

    def mark_applied(self, seq, **data) -> None:
        rec = self.trace.current
        rec["journal_records"] += 1
        super().mark_applied(seq, **data)
        rec["txn_applied"] = now()
