"""One-way communication protocol simulation (paper Section 2.2).

A one-way protocol has Alice compute a message from her input and Bob compute the output
from the message and his own input.  Every reduction in Section 4 of the paper uses a
streaming algorithm as the message: Alice feeds her part of the gadget stream to the
algorithm and "sends" its state; Bob resumes the same algorithm on his part of the
stream and reads off the answer.

When we *run* a reduction, Alice and Bob live in the same process, so "sending the
state" is trivial — what matters is measuring how large that state is
(:meth:`StreamingChannel.message_bits`), because that is exactly the quantity the lower
bound constrains: it must be at least the one-way communication complexity of the
problem being reduced from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Optional


class StreamingChannel:
    """Wraps a streaming algorithm playing the role of the one-way message.

    ``alice_phase`` / ``bob_phase`` feed stream items in the two phases; the channel
    records the algorithm's space at the hand-off point, which is the size of the
    message Alice would have had to send.
    """

    def __init__(self, algorithm: Any) -> None:
        self.algorithm = algorithm
        self.message_bits_at_handoff: Optional[int] = None
        self.alice_items = 0
        self.bob_items = 0

    def alice_phase(self, items: Iterable[Any]) -> None:
        """Alice runs the algorithm on her part of the stream."""
        for item in items:
            self.algorithm.insert(item)
            self.alice_items += 1
        self.message_bits_at_handoff = self.algorithm.space_bits()

    def bob_phase(self, items: Iterable[Any]) -> None:
        """Bob resumes the algorithm on his part of the stream."""
        if self.message_bits_at_handoff is None:
            raise RuntimeError("bob_phase called before alice_phase")
        for item in items:
            self.algorithm.insert(item)
            self.bob_items += 1

    def message_bits(self) -> int:
        """The size of the 'message' (the algorithm state at the hand-off point)."""
        if self.message_bits_at_handoff is None:
            raise RuntimeError("the hand-off has not happened yet")
        return self.message_bits_at_handoff

    def report(self) -> Any:
        return self.algorithm.report()


@dataclass
class OneWayProtocolRun:
    """The outcome of running a reduction end to end.

    ``decoded`` is Bob's output, ``expected`` what Alice's input dictates, ``correct``
    their equality, ``message_bits`` the algorithm state size at the hand-off (the
    quantity the communication lower bound constrains), and
    ``information_lower_bound_bits`` the communication complexity of the source problem
    for this instance size (what the message size must asymptotically dominate).
    """

    decoded: Any
    expected: Any
    message_bits: int
    information_lower_bound_bits: float
    metadata: Dict[str, Any] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.decoded == self.expected
