"""Priority orderings used by the dispatcher and the stable-matching scheduler.

The paper (Section III-B/C) requires a single consistent priority order on
chunks:

* heavier chunks come first;
* ties are broken in favour of the chunk whose packet arrived earlier;
* remaining ties are broken by dispatch order (packet id) and chunk index so
  that the order is total and deterministic.

Both the dispatcher's ``H``/``L`` partition and the scheduler's greedy stable
matching must use the *same* order, otherwise the charging argument of
Lemma 2 breaks.  Centralising the key functions here keeps the two components
consistent by construction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

if TYPE_CHECKING:  # pragma: no cover - import only for type checking
    from repro.core.packet import Chunk, Packet

__all__ = [
    "chunk_priority_key",
    "chunk_fifo_key",
    "packet_priority_key",
    "chunk_outranks",
]


def packet_priority_key(packet: "Packet") -> Tuple[float, float, int]:
    """Total-order key for packets: heavier first, then earlier arrival.

    Returns a tuple suitable for ``sorted(...)`` ascending order; the heaviest
    packet sorts first because the weight is negated.
    """
    return (-packet.weight, packet.arrival, packet.packet_id)


def chunk_priority_key(chunk: "Chunk") -> Tuple[float, float, int, int]:
    """Total-order key for chunks: heavier first, then earlier packet arrival.

    The final components (packet id, chunk index) make the order total so the
    greedy matching is deterministic.  The tuple is
    ``(-weight, packet arrival, packet id, chunk index)``, stored on the chunk
    at split time (:attr:`~repro.core.packet.Chunk.key`).
    """
    return chunk.key


def chunk_fifo_key(chunk: "Chunk") -> Tuple[float, int, int]:
    """Total-order key for chunks in arrival (FIFO) order.

    Used by the weight-oblivious baselines; a module-level function (rather
    than a lambda) so policies built on it stay picklable and can be shipped
    to experiment-runner worker processes.
    """
    return (chunk.packet.arrival, chunk.packet.packet_id, chunk.index)


def chunk_outranks(first: "Chunk", second: "Chunk") -> bool:
    """Return ``True`` if ``first`` precedes ``second`` in the priority order.

    ``first`` outranking ``second`` means the scheduler would consider
    ``first`` before ``second`` and, if they conflict, ``first`` blocks
    ``second`` (Section III-A).
    """
    return chunk_priority_key(first) < chunk_priority_key(second)
