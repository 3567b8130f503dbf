"""One shared way to jam a service's worker for the crash / restore tests.

A jam world parks the worker that runs it until the service hosting it
is crashed, and then *fails* instead of returning. So the
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
    """The service hosting this jam world was crashed."""


class CrashJam:
    def __init__(self, services):
        #: request seq -> the service it was last offered to
        self.hosts = {}
        for service in services:
            service.queue.offer = self._noting(service, service.queue.offer)
        #: set to let jam worlds on a *live* service return their value
        self.open = threading.Event()

    def _noting(self, service, offer):
        def noting_offer(request):
            self.hosts[request.seq] = service
            offer(request)

        return noting_offer

    def submit(self, submit, tenant, value=None, worlds=1, **kwargs):
        """``submit(tenant, [jam world] * worlds, **kwargs)``; returns its ticket."""
        seq = []
        seq_known = threading.Event()

        def world(ws):
            seq_known.wait(GIVE_UP_S)
            # the incarnation this world instance was started by: the
            # service the request was last offered to (a re-land is
            # offered to its new host before any worker there can run it)
            host = self.hosts[seq[0]]
            for _ in range(int(GIVE_UP_S / POLL_S)):
                if host._crashed:
                    raise JamReleased(f"request {seq[0]}: host crashed")
                if self.open.wait(POLL_S):
                    return value
            raise AssertionError("jam world was never released")

        ticket = submit(tenant, [world] * worlds, **kwargs)
        seq.append(ticket.seq)
        seq_known.set()
        return ticket
