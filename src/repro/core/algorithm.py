"""The complete online algorithm ALG of the paper.

ALG is the combination of

* the worst-case-impact dispatcher (:class:`~repro.core.dispatcher.ImpactDispatcher`,
  Section III-B), which commits each arriving packet to either the direct
  fixed link or one specific transmitter–receiver edge, splitting it into
  ``d(e)`` chunks; and
* the greedy stable-matching scheduler
  (:class:`~repro.core.scheduler.StableMatchingScheduler`, Section III-C),
  which at each transmission slot sends a stable matching of pending chunks.

Theorem 1 of the paper shows this pair is ``2·(2/ε + 1)``-competitive for
total weighted (fractional) latency when run with a ``(2+ε)`` speedup.
"""

from __future__ import annotations

from repro.core.dispatcher import ImpactDispatcher
from repro.core.interfaces import Policy
from repro.core.scheduler import StableMatchingScheduler

__all__ = ["OpportunisticLinkScheduler", "make_paper_policy", "theoretical_competitive_ratio"]


class OpportunisticLinkScheduler(Policy):
    """The paper's algorithm ALG as a runnable :class:`~repro.core.interfaces.Policy`.

    Parameters
    ----------
    record_decisions:
        Forwarded to the dispatcher; when set, every dispatch decision keeps
        its full per-edge impact breakdown (used by analysis and by the
        Figure 2 reproduction).

    Examples
    --------
    >>> from repro.network import single_tier_crossbar
    >>> from repro.simulation import SimulationEngine
    >>> from repro.workloads import permutation_workload
    >>> topo = single_tier_crossbar(4)
    >>> packets = permutation_workload(topo, num_packets=16, seed=0)
    >>> result = SimulationEngine(topo, OpportunisticLinkScheduler()).run(packets)
    >>> result.all_delivered
    True
    """

    def __init__(self, record_decisions: bool = False) -> None:
        super().__init__(
            name="ALG(stable-matching+impact-dispatch)",
            dispatcher=ImpactDispatcher(record_decisions=record_decisions),
            scheduler=StableMatchingScheduler(),
        )

    @property
    def impact_dispatcher(self) -> ImpactDispatcher:
        """The underlying impact dispatcher (typed accessor)."""
        assert isinstance(self.dispatcher, ImpactDispatcher)
        return self.dispatcher


def make_paper_policy(record_decisions: bool = False) -> OpportunisticLinkScheduler:
    """Factory returning a fresh instance of the paper's algorithm ALG."""
    return OpportunisticLinkScheduler(record_decisions=record_decisions)


def theoretical_competitive_ratio(epsilon: float) -> float:
    """The Theorem 1 bound ``2·(2/ε + 1)`` for speedup ``2 + ε``.

    Parameters
    ----------
    epsilon:
        The augmentation parameter ``ε > 0``.

    Raises
    ------
    ValueError
        If ``epsilon`` is not strictly positive.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    return 2.0 * (2.0 / epsilon + 1.0)
