"""``ServeRequest`` is the one request record: every field's life is
declared once (``FIELD_LIFE``) and checked here against both codecs.

A *durable* field rides the journalled ``admit`` record and comes back
from ``from_admit``; a *wire* field survives the MWRPC01 frame but is
not journalled; a *local* field belongs to the process holding the
record — the receiver stamps its own. A new field fails this module
until it is declared, and then fails it again unless it really lands
where the declaration says. DESIGN's "life of a request" table is
rendered from the same declaration (``python -m tests.serve.test_request_record``
prints it).
"""

import dataclasses
import pathlib

import pytest

from repro.cluster import pack_frame, unpack_frame
from repro.core.backend import normalize_alternatives
from repro.journal import CommitJournal, MemoryJournalStorage
from repro.serve import ServeRequest, SpeculationService, WorldBudget
from repro.serve.admission import FIELD_LIFE
from repro.serve.service import ServeTicket

FIELDS = [f.name for f in dataclasses.fields(ServeRequest)]

#: field -> (who writes it, who reads it): the prose columns of DESIGN's table
WHO = {
    "tenant": ("`submit` caller", "ring placement, DRR lane, budget share, fault keys, metrics"),
    "alternatives": ("`submit` caller, normalised by `build`", "`_serve_one` (the worlds)"),
    "initial": ("`submit` caller", "the block's workspace"),
    "priority": ("`submit` caller", "`WorldBudget.reserve_blocking` (preemption)"),
    "deadline_s": ("`build`: now + the caller's relative deadline", "queue shed, grant timeout, block timeout"),
    "timeout": ("`submit` caller", "the block's run bound"),
    "cost": ("`submit` caller", "DRR dequeue price"),
    "seq": ("`build` (`next_seq`), or the restore path", "journal block id, router table key, result"),
    "submitted_at": ("`admit`, on arrival at each service", "`queue_wait_s`, `latency_s`"),
    "shadow": ("`_maybe_burst`", "skips journal, ticket resolution and stealing"),
    "spec": ("`submit` caller", "`build_alternatives(spec)` at restore"),
    "request_class": ("`submit` caller", "`policy.decide(..., request_class=)`"),
    "ticket": ("`SpeculationService.admit`, on arrival at each service; cleared by resolve", "`_resolve`"),
}


def life_table() -> str:
    rows = ["| field | written by | read by | life |", "|---|---|---|---|"]
    rows += [
        f"| `{name}` | {WHO[name][0]} | {WHO[name][1]} | {FIELD_LIFE[name]} |"
        for name in FIELDS
    ]
    return "\n".join(rows)


def alt_a(ws):
    return "a"


def alt_b(ws):
    return "b"


def populated() -> ServeRequest:
    """A request with no field left at its default."""
    return ServeRequest(
        tenant="tenant-x", alternatives=normalize_alternatives([alt_a, alt_b]),
        initial={"k": 1}, priority=4, deadline_s=1e9, timeout=2.5, cost=3.0,
        seq=77, submitted_at=-1.0, shadow=True, spec={"n": 9},
        request_class="io", ticket=ServeTicket("tenant-x", 77),
    )


def over_wire(request: ServeRequest) -> tuple[ServeRequest, ServeTicket]:
    """As the shard host receives it: framed, unframed, admitted — and
    the ticket that admission returned. A live ticket frames: local
    fields stay behind."""
    arrived = unpack_frame(pack_frame(request))
    with SpeculationService(WorldBudget(1), workers=1) as svc:
        ticket = svc.admit(arrived)
    return arrived, ticket


def over_journal(request: ServeRequest) -> tuple[dict, ServeRequest]:
    """As restore rebuilds it: the sealed admit record of a reopened journal."""
    storage = MemoryJournalStorage()
    journal = CommitJournal(storage=storage)
    journal.seal(journal.begin("admit", **request.admit_data()))
    (intent,) = CommitJournal(storage=storage).sealed_unapplied_intents("admit")
    return intent["data"], ServeRequest.from_admit(intent["data"], [alt_a, alt_b])


def test_every_field_is_declared_exactly_once():
    assert sorted(FIELD_LIFE) == sorted(FIELDS)
    assert set(FIELD_LIFE.values()) == {"durable", "wire", "local"}
    assert sorted(WHO) == sorted(FIELDS)


def test_admit_record_keys_are_the_ones_on_disk_today():
    assert list(populated().admit_data()) == [
        "request", "tenant", "priority", "cost", "timeout", "spec", "request_class",
    ]


@pytest.mark.parametrize("name", FIELDS)
def test_field_lands_where_it_is_declared(name):
    assert name in FIELD_LIFE, f"ServeRequest.{name} is not classified in FIELD_LIFE"
    life = FIELD_LIFE[name]
    sent, blank = populated(), ServeRequest("", ())
    value = getattr(sent, name)
    assert value != getattr(blank, name), f"populated() leaves {name} at its default"
    arrived, ticket = over_wire(sent)
    data, restored = over_journal(sent)
    journalled = ("request" if name == "seq" else name) in data
    assert journalled == (life == "durable")
    if life == "durable":
        assert getattr(restored, name) == value
    if life == "local":
        assert getattr(arrived, name) != value  # the receiver's own
        # a shadow is never resolved, so it keeps the service's ticket
        assert arrived.ticket is ticket and arrived.submitted_at > 0
    else:
        assert getattr(arrived, name) == value


def test_design_table_is_rendered_from_the_declaration():
    design = pathlib.Path(__file__).parents[2] / "DESIGN.md"
    assert life_table() in design.read_text(), (
        "DESIGN.md's life-of-a-request table is stale: "
        "python -m tests.serve.test_request_record prints the current one"
    )


if __name__ == "__main__":
    print(life_table())
