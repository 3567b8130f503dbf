"""One shared way to jam a service's worker for the crash / restore tests.

A jam world parks the worker that runs it until the service hosting it
is crashed (or fenced), and then *fails* instead of returning. So the
request's admit stays sealed-but-unapplied — the state those tests are
about — ``SpeculationService.crash()``'s join returns at once instead of
sitting out a ``gate.wait(10)``, and the dead incarnation writes no late
block win into storage the restored one has already reopened.

A jam world re-landed on a live service parks again; once :attr:`open`
is set, a world on a live service returns its value.
"""

import threading

POLL_S = 0.005
GIVE_UP_S = 30.0


class JamReleased(Exception):
    """The service hosting this jam world was crashed or fenced."""


class CrashJam:
    def __init__(self, services):
        self.services = list(services)
        #: set to let jam worlds on a *live* service return their value
        self.open = threading.Event()

    def submit(self, submit, tenant, value=None, **kwargs):
        """``submit(tenant, [jam world], **kwargs)``; returns its ticket."""
        seq = []
        seq_known = threading.Event()

        def world(ws):
            seq_known.wait(GIVE_UP_S)
            # the incarnation this world instance was started by: the
            # live service holding the request (a dead predecessor keeps
            # its ticket too, resolution being suppressed)
            host = next(
                (
                    s for s in self.services
                    if not s._crashed and seq[0] in s._tickets
                ),
                None,
            )
            for _ in range(int(GIVE_UP_S / POLL_S)):
                if host is None or host._crashed:
                    raise JamReleased(f"request {seq[0]}: host crashed")
                if self.open.wait(POLL_S):
                    return value
            raise AssertionError("jam world was never released")

        ticket = submit(tenant, [world], **kwargs)
        seq.append(ticket.seq)
        seq_known.set()
        return ticket
