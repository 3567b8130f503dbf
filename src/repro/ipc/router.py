"""The receive-side decision procedure (paper section 2.4.2, Figure 2).

Pure functions only — the kernel owns the actual world-splitting. Given
the head message of a receiver's mailbox and the receiver's current
predicates, :func:`decide_receive` says what must happen:

- ``ACCEPT``  — hand the data to the receiver unchanged;
- ``IGNORE``  — drop the message, keep waiting;
- ``SPLIT``   — create two receiver copies: one that accepts (predicates
  extended with the sender's world plus ``complete(sender)``), one that
  rejects (predicates extended with ``¬complete(sender)``). When the
  rejecting copy would be self-contradictory, only the accepting copy is
  produced (``rejecting is None``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.predicates import (
    MessageDecision,
    PredicateSet,
    classify_message,
    split_predicates,
    world_key,
)
from repro.ipc.message import Message


@dataclass(frozen=True)
class ReceiveAction:
    """What the kernel must do with one (message, receiver) pair."""

    decision: MessageDecision
    accepting: PredicateSet | None = None
    rejecting: PredicateSet | None = None


def fault_filter(message: Message, plan) -> tuple[str, float]:
    """Pure fault hook: what the network does to ``message`` under ``plan``.

    Returns ``("deliver" | "drop" | "delay", delay_s)``. The decision is
    keyed on the message id alone, so it is independent of routing order
    and identical across runs — the deterministic-replay property world
    cloning depends on survives fault injection. The kernel consults this
    before routing; a dropped message traces like a dead letter, a
    delayed one is re-routed ``delay_s`` later.
    """
    from repro.faults.plan import MESSAGE_SITE, FaultKind  # local: avoid import cycle

    decision = plan.decide(MESSAGE_SITE, message.msg_id)
    if decision.kind is FaultKind.MSG_DROP:
        return "drop", 0.0
    if decision.kind is FaultKind.MSG_DELAY:
        return "delay", decision.param
    return "deliver", 0.0


def decide_receive(message: Message, receiver: PredicateSet) -> ReceiveAction:
    """Classify ``message`` against ``receiver`` and prepare predicate sets.

    A message from a sender the receiver already assumes dead — either
    the logical process (``sender ∈ receiver.cant``) or the specific
    sending world (``world_key(sender_world) ∈ receiver.cant``) — is
    ignored regardless of its payload predicates.

    A SPLIT binds ``complete(sender)`` to the sending *world*: should a
    different surviving version of the same process complete later, that
    does not validate this message.
    """
    sender_key = world_key(message.sender_world) if message.sender_world else message.sender
    if message.sender in receiver.cant or sender_key in receiver.cant:
        return ReceiveAction(MessageDecision.IGNORE)
    decision = classify_message(message.predicate, receiver)
    if decision is MessageDecision.ACCEPT:
        return ReceiveAction(decision, accepting=receiver)
    if decision is MessageDecision.IGNORE:
        return ReceiveAction(decision)
    accepting, rejecting = split_predicates(
        message.predicate, sender_key, receiver
    )
    return ReceiveAction(decision, accepting=accepting, rejecting=rejecting)
