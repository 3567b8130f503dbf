"""Predicate sets: the bookkeeping that keeps Multiple Worlds consistent.

Paper section 2.3: predicates are "lists of process identifiers, some of
which the sending process depends on completing successfully and others on
which the sending process depends on to not complete successfully". They
are deliberately simpler than Eswaran-style data predicates — they are
updated on process *status changes*, which are much rarer than memory
references.

Two lists per world:

- ``must``  — pids this world assumes WILL complete successfully,
- ``cant``  — pids this world assumes will NOT complete.

Section 2.4.2 gives the receive rule for a message with sender predicates
``S`` arriving at a receiver with predicates ``R``:

- **agree** (``S ⊆ R``): accept immediately;
- **conflict** (``p ∈ S`` and ``¬p ∈ R``): ignore the message;
- **extend** (``p ∈ S`` and ``p ∉ R``): split the receiver in two — one
  copy assuming ``complete(sender)`` (which implies all of S), one copy
  assuming ``¬complete(sender)``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import PredicateError


class MessageDecision(enum.Enum):
    """Outcome of checking a message's predicates against a receiver's."""

    ACCEPT = "accept"
    IGNORE = "ignore"
    SPLIT = "split"


#: Predicate ids below this refer to logical processes (pids); ids at or
#: above it refer to individual *worlds* (speculative versions). A split
#: receiver's assumption about its sender must name the sending world:
#: if a different surviving version of the same process completes, that
#: must not count as the sender's message-world having happened.
WORLD_FACT_BASE = 1_000_000_000


def world_key(wid: int) -> int:
    """The predicate id for "world ``wid`` completes"."""
    return WORLD_FACT_BASE + wid


def is_world_key(ident: int) -> bool:
    return ident >= WORLD_FACT_BASE


@dataclass(frozen=True)
class PredicateSet:
    """An immutable (must-complete, cant-complete) pair of pid sets.

    All mutating operations return new sets; worlds therefore share
    predicate structure safely.
    """

    must: frozenset[int] = field(default_factory=frozenset)
    cant: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.must & self.cant:
            raise PredicateError(
                f"inconsistent predicates: {sorted(self.must & self.cant)} "
                "both must and cannot complete"
            )

    # -- construction -------------------------------------------------------
    @classmethod
    def empty(cls) -> "PredicateSet":
        return cls()

    @classmethod
    def of(cls, must: "frozenset[int] | set[int] | list[int]" = (), cant: "frozenset[int] | set[int] | list[int]" = ()) -> "PredicateSet":
        return cls(frozenset(must), frozenset(cant))

    # -- queries ---------------------------------------------------------------
    @property
    def unresolved(self) -> bool:
        """True when this world still carries any assumption.

        A world with unresolved predicates is speculative and may not
        touch source devices (paper section 2.4.2).
        """
        return bool(self.must or self.cant)

    def all_pids(self) -> frozenset[int]:
        return self.must | self.cant

    def is_subset_of(self, other: "PredicateSet") -> bool:
        """True when every assumption here is also held by ``other``."""
        return self.must <= other.must and self.cant <= other.cant

    def conflicts_with(self, other: "PredicateSet") -> bool:
        """True when the two worlds hold contradictory assumptions."""
        return bool(self.must & other.cant) or bool(self.cant & other.must)

    # -- derivation --------------------------------------------------------------
    def assume_complete(self, pid: int) -> "PredicateSet":
        """This world plus the assumption that ``pid`` completes."""
        if pid in self.cant:
            raise PredicateError(f"cannot assume complete({pid}): already assumed not")
        return PredicateSet(self.must | {pid}, self.cant)

    def assume_incomplete(self, pid: int) -> "PredicateSet":
        """This world plus the assumption that ``pid`` does NOT complete."""
        if pid in self.must:
            raise PredicateError(f"cannot assume ¬complete({pid}): already assumed so")
        return PredicateSet(self.must, self.cant | {pid})

    def union(self, other: "PredicateSet") -> "PredicateSet":
        """Both worlds' assumptions combined (must be compatible)."""
        if self.conflicts_with(other):
            raise PredicateError("cannot union conflicting predicate sets")
        return PredicateSet(self.must | other.must, self.cant | other.cant)

    def child_predicates(self, self_pid: int, sibling_pids: "list[int] | tuple[int, ...]") -> "PredicateSet":
        """Predicates for a freshly spawned alternative (paper section 2.3).

        The child inherits the parent's predicates, assumes that it will
        itself complete, and that each sibling will not — "sibling rivalry
        taken to its extreme".
        """
        result = self.assume_complete(self_pid)
        for sib in sibling_pids:
            if sib != self_pid:
                result = result.assume_incomplete(sib)
        return result

    def failure_predicates(self, sibling_pids: "list[int] | tuple[int, ...]") -> "PredicateSet":
        """Predicates of the failure alternative: no sibling completes."""
        result = self
        for sib in sibling_pids:
            result = result.assume_incomplete(sib)
        return result

    # -- resolution ---------------------------------------------------------------
    def resolve(self, pid: int, completed: bool) -> "PredicateSet | None":
        """Apply the resolution of ``complete(pid)``.

        Returns the reduced predicate set when this world survives, or
        ``None`` when the resolution contradicts this world's assumptions
        (the world must be eliminated).
        """
        if completed:
            if pid in self.cant:
                return None
            if pid in self.must:
                return PredicateSet(self.must - {pid}, self.cant)
        else:
            if pid in self.must:
                return None
            if pid in self.cant:
                return PredicateSet(self.must, self.cant - {pid})
        return self

    # -- rendering ---------------------------------------------------------------
    @staticmethod
    def _render_id(ident: int) -> str:
        if is_world_key(ident):
            return f"w{ident - WORLD_FACT_BASE}"
        return str(ident)

    def literals(self) -> list[tuple[int, str]]:
        """Each assumption as ``(id, rendered literal)``: musts, then cants."""
        musts = [(p, f"complete({self._render_id(p)})") for p in sorted(self.must)]
        cants = [(p, f"¬complete({self._render_id(p)})") for p in sorted(self.cant)]
        return musts + cants

    def __str__(self) -> str:
        return "{" + ", ".join(text for _, text in self.literals()) + "}"


def classify_message(
    sender: PredicateSet, receiver: PredicateSet
) -> MessageDecision:
    """The section 2.4.2 receive rule: accept, ignore, or split."""
    if sender.is_subset_of(receiver):
        return MessageDecision.ACCEPT
    if sender.conflicts_with(receiver):
        return MessageDecision.IGNORE
    return MessageDecision.SPLIT


def split_predicates(
    sender: PredicateSet, sender_pid: int, receiver: PredicateSet
) -> tuple[PredicateSet, "PredicateSet | None"]:
    """Predicate sets for the two receiver copies created by a SPLIT.

    The accepting copy holds ``R ∪ S ∪ {complete(sender)}`` — believing the
    sender's world. The rejecting copy holds ``R ∪ {¬complete(sender)}`` —
    "implying rejection of the sender's predicates without creating a
    logical impossibility" (negating every element of S individually could
    demand two mutually exclusive processes both complete).

    When the receiver already assumes ``complete(sender)`` the rejecting
    copy would be self-contradictory; ``None`` is returned in its place and
    no rejecting world should be created.
    """
    accepting = receiver.union(sender).assume_complete(sender_pid)
    if sender_pid in receiver.must:
        return accepting, None
    rejecting = receiver.assume_incomplete(sender_pid)
    return accepting, rejecting
