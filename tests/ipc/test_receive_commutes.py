"""The receive rule commutes with resolution (paper §3's soundness argument).

A fact may reach a receiver before or after it looks at a queued
message; the worlds that survive must be the same either way. Checked
here without a kernel, over ``PredicateSet.resolve``, ``Mailbox.resolve``
and ``decide_receive`` only — a split is one step of a multiway rewrite,
and the two orders are two paths of it that must meet.

A branch is ``(received the message?, predicate set)``.

The fact is about a *third party*. The sender's own completion is the
literal a split introduces, and is checked by
``test_a_split_is_settled_by_the_sender_alone``; a message queued past its
sender's own fact is the open defect ROADMAP lists under "late receive".
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.predicates import MessageDecision, PredicateSet, world_key
from repro.ipc.mailbox import Mailbox
from repro.ipc.message import Message
from repro.ipc.router import decide_receive

SENDER_PID, SENDER_WID, RECEIVER_PID = 9, 9, 5
SENDER_KEY = world_key(SENDER_WID)
THIRD_PARTIES = [1, 2, 3, world_key(1), world_key(2)]


def predicate_sets(ids):
    """Every consistent (must, cant) assignment over ``ids``."""
    return st.lists(
        st.sampled_from([None, True, False]), min_size=len(ids), max_size=len(ids)
    ).map(
        lambda held: PredicateSet.of(
            must=[i for i, h in zip(ids, held) if h is True],
            cant=[i for i, h in zip(ids, held) if h is False],
        )
    )


#: a speculative sender's assumptions: third parties, and usually itself
message_predicates = predicate_sets(THIRD_PARTIES + [SENDER_PID])
#: a receiver may already hold an opinion of this sender (an earlier
#: message from the same world) or of its logical process
receiver_predicates = predicate_sets(THIRD_PARTIES + [SENDER_PID, SENDER_KEY])
facts = st.tuples(st.sampled_from(THIRD_PARTIES), st.booleans())


def _message(predicate):
    return Message(
        sender=SENDER_PID, dest=RECEIVER_PID, data="news", predicate=predicate,
        msg_id=1, sender_world=SENDER_WID,
    )


def _branches(message, receiver):
    action = decide_receive(message, receiver)
    if action.decision is MessageDecision.ACCEPT:
        return [(True, receiver)]
    if action.decision is MessageDecision.IGNORE:
        return [(False, receiver)]
    out = [(True, action.accepting)]
    if action.rejecting is not None:
        out.append((False, action.rejecting))
    return out


def decide_then_resolve(receiver, message, fact):
    resolved = {(got, held.resolve(*fact)) for got, held in _branches(message, receiver)}
    return {(got, held) for got, held in resolved if held is not None}


def resolve_then_decide(receiver, message, fact):
    receiver = receiver.resolve(*fact)
    if receiver is None:
        return set()
    box = Mailbox(RECEIVER_PID)
    box.deliver(message)
    box.resolve(*fact)
    if not box:
        return {(False, receiver)}
    return set(_branches(box.peek(), receiver))


@given(receiver=receiver_predicates, sent_under=message_predicates, fact=facts)
@settings(max_examples=400, deadline=None)
def test_receive_rule_commutes_with_resolution(receiver, sent_under, fact):
    message = _message(sent_under)
    first_decision = decide_receive(message, receiver).decision
    decided_first = decide_then_resolve(receiver, message, fact)
    resolved_first = resolve_then_decide(receiver, message, fact)

    if receiver.resolve(*fact) is None:
        # the receiver's own assumption failed: nothing of it survives
        assert decided_first == resolved_first == set()
    elif first_decision is not MessageDecision.SPLIT:
        # accept <-> accept, ignore <-> ignored (or dropped from the queue)
        assert decided_first == resolved_first
        assert {got for got, _ in decided_first} == {
            first_decision is MessageDecision.ACCEPT
        }
    elif sent_under.resolve(*fact) is None:
        # the fact voids the message: the accepting copy dies with it and
        # the doubting copy is the receiver that never saw the message —
        # still doubting a sender the same fact has doomed
        (_, untouched), = resolved_first
        if SENDER_KEY in receiver.must:
            # ... unless the receiver already believed this sender: then
            # it has no doubting copy, and dies when the sender does
            assert decided_first == set()
            assert untouched.resolve(SENDER_KEY, False) is None
        else:
            (got, survivor), = decided_first
            assert not got
            assert survivor.resolve(SENDER_KEY, False) == untouched
    elif decide_receive(_message(sent_under.resolve(*fact)), receiver.resolve(*fact)).decision is MessageDecision.SPLIT:
        # the fact decides neither copy: the same split either way
        assert decided_first == resolved_first
    else:
        # the fact was the last assumption the receiver did not share:
        # resolved first, the message is simply accepted; decided first,
        # both copies live on until the sender settles, and the accepting
        # one is that same receiver plus its belief in the sender
        (got, accepted), = resolved_first
        assert got
        assert (True, accepted.assume_complete(SENDER_KEY)) in decided_first


@given(receiver=predicate_sets(THIRD_PARTIES), sent_under=message_predicates)
@settings(max_examples=200, deadline=None)
def test_a_split_is_settled_by_the_sender_alone(receiver, sent_under):
    """split <-> the one branch the sender's fact leaves alive."""
    message = _message(sent_under)
    action = decide_receive(message, receiver)
    if action.decision is not MessageDecision.SPLIT:
        return
    completed = decide_then_resolve(receiver, message, (SENDER_KEY, True))
    failed = decide_then_resolve(receiver, message, (SENDER_KEY, False))
    # the sender completed: only the believer, holding the receiver's
    # assumptions plus the message's; the sender failed: only the doubter,
    # holding exactly what the receiver held before the message
    assert completed == {(True, receiver.union(sent_under))}
    assert failed == {(False, receiver)}
