"""Behavioural properties of Petri nets.

Implements the checks listed in Section 2.1 of the paper that concern the
underlying net (independent of the signal interpretation):

* **boundedness / safeness** — the state space is finite, and (for
  implementability as a circuit) every place holds at most one token;
* **deadlock freedom**;
* **liveness** (every transition can always eventually fire again) and
  *home markings*.

Every check reads one reachability graph (:func:`reachability_graph`),
built by the shared engines of :mod:`repro.ts.builder` under a
configurable state bound.  Unboundedness is decided by the Karp–Miller
construction of :mod:`repro.petri.coverability`, and only for nets
whose 1-safe build fails.  Liveness and home markings also accept a
graph the caller has already built (``graph=``), so a check that holds
one — the CSC search builds a state graph per candidate — explores
nothing twice.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set, Tuple

from ..budgets import DEFAULT_STATE_BOUND
from ..errors import ModelError, UnboundedError
from .coverability import build_coverability_graph
from .marking import Marking
from .net import PetriNet
from .token_game import enabled_transitions

if TYPE_CHECKING:  # the ts package imports this one
    from ..ts.transition_system import TransitionSystem


def reachability_graph(net: PetriNet, max_states: int = DEFAULT_STATE_BOUND,
                       detect_unbounded: bool = True) -> TransitionSystem:
    """The reachability graph every property of this module is read from.

    The 1-safe build of :func:`~repro.ts.builder.build_reachability_graph`
    (compiled engine where the net supports it) runs first.  Only if it
    hits a 1-safeness violation does the Karp–Miller construction decide
    boundedness (skipped when ``detect_unbounded`` is false): an
    unbounded net raises :class:`~repro.errors.UnboundedError` naming the
    places that grow without bound, a bounded one is built by the naive
    k-bounded engine.

    Raises :class:`~repro.errors.StateExplosionError` when ``max_states``
    is exceeded; the Karp–Miller graph counts against the same budget.
    """
    from ..ts.builder import build_reachability_graph

    try:
        return build_reachability_graph(net, max_states)
    except UnboundedError:
        pass  # not 1-safe, but possibly k-bounded
    if detect_unbounded:
        cover = build_coverability_graph(net, max_nodes=max_states)
        if not cover.is_bounded():
            raise UnboundedError(
                "net is unbounded: places %s grow without bound"
                % cover.unbounded_places())
    return build_reachability_graph(net, max_states, require_safe=False,
                                    engine="naive")


def explore(net: PetriNet, max_states: int = DEFAULT_STATE_BOUND,
            detect_unbounded: bool = True) -> Dict[Marking, List[Tuple[str, Marking]]]:
    """Explicit reachability exploration.

    Returns an adjacency map ``marking -> [(transition, successor)]`` for
    all reachable markings (breadth-first discovery order, transitions
    in name order) of :func:`reachability_graph`, whose
    :class:`~repro.errors.UnboundedError` and
    :class:`~repro.errors.StateExplosionError` it raises.
    """
    graph = reachability_graph(net, max_states, detect_unbounded)
    return {m: graph.successors(m) for m in graph.states}


def reachable_markings(net: PetriNet,
                       max_states: int = DEFAULT_STATE_BOUND) -> Set[Marking]:
    """The set of reachable markings (explicit)."""
    return set(reachability_graph(net, max_states).states)


def is_bounded(net: PetriNet, max_states: int = DEFAULT_STATE_BOUND) -> bool:
    """True iff the reachability set is finite."""
    try:
        reachability_graph(net, max_states)
        return True
    except UnboundedError:
        return False


def bound(net: PetriNet, max_states: int = DEFAULT_STATE_BOUND) -> int:
    """The bound of the net: max token count of any place in any reachable
    marking.  Raises ``UnboundedError`` for unbounded nets."""
    markings = reachability_graph(net, max_states).states
    return max((n for m in markings for _, n in m.items()), default=0)


def is_safe(net: PetriNet, max_states: int = DEFAULT_STATE_BOUND) -> bool:
    """True iff the net is 1-bounded (safe)."""
    try:
        return bound(net, max_states) <= 1
    except UnboundedError:
        return False


def unsafe_witness(net: PetriNet,
                   max_states: int = DEFAULT_STATE_BOUND) -> Optional[Marking]:
    """A reachable marking with a place holding >1 token, or None."""
    for m in reachability_graph(net, max_states).states:
        if not m.is_safe():
            return m
    return None


def find_deadlocks(net: PetriNet,
                   max_states: int = DEFAULT_STATE_BOUND,
                   markings: Optional[Iterable[Marking]] = None,
                   engine: str = "explicit") -> List[Marking]:
    """All dead markings (no transition enabled), in one report format.

    With the default ``markings=None`` the whole reachability set is
    explored explicitly.  Passing a ``markings`` iterable instead filters
    *those* markings for deadness — this is how query engines that do not
    enumerate the state space (e.g. the SAT path:
    ``find_deadlocks(net, markings=[witness.final_marking])`` with a
    :class:`repro.sat.bmc.Witness`) report through the same interface as
    the explicit one.

    ``engine="bdd"`` computes the dead set symbolically instead
    (:meth:`repro.bdd.symbolic.SymbolicReachability.deadlock_markings`)
    and enumerates only its members — the reachable set itself is never
    enumerated, so the answer survives state budgets that kill the
    explicit exploration.  Requires an ordinary, safely marked net.
    """
    if engine == "bdd":
        if markings is not None:
            raise ModelError("engine='bdd' computes the dead set itself;"
                             " drop the markings= filter")
        from ..bdd.symbolic import SymbolicReachability

        return SymbolicReachability(net).deadlock_markings()
    if engine != "explicit":
        raise ModelError("unknown engine %r (expected 'explicit' or 'bdd')"
                         % engine)
    if markings is None:
        graph = reachability_graph(net, max_states)
        dead = (graph.state_at(i)
                for i, arcs in enumerate(graph.arc_lists()) if not arcs)
    else:
        dead = (m for m in markings if not enabled_transitions(net, m))
    return sorted(dead, key=lambda m: repr(m))


def is_deadlock_free(net: PetriNet,
                     max_states: int = DEFAULT_STATE_BOUND) -> bool:
    """True iff no reachable marking is dead."""
    return not find_deadlocks(net, max_states)


def is_live(net: PetriNet, max_states: int = DEFAULT_STATE_BOUND,
            graph: Optional[TransitionSystem] = None) -> bool:
    """L4-liveness: from every reachable marking, every transition can
    eventually fire.

    Checked on the reachability graph — ``graph`` if the caller already
    built it, else :func:`reachability_graph` — every bottom strongly
    connected component must contain an occurrence of every transition
    of ``net``, including those that never fire and so label no arc.
    The components and the transitions they fire are read off the
    graph's state indices, so no marking is decoded.
    """
    if graph is None:
        graph = reachability_graph(net, max_states)
    wanted = 0
    for t in net.transitions:
        label = graph.label_index(t)
        if label is None:  # labels no arc, so never fires
            return False
        wanted |= 1 << label
    fired_in = graph.enabled_masks()
    for component in graph.bottom_scc_indices():
        fired = 0
        for i in component:
            fired |= fired_in[i]
        if fired != wanted:
            return False
    return True


def home_markings(net: PetriNet,
                  max_states: int = DEFAULT_STATE_BOUND,
                  graph: Optional[TransitionSystem] = None) -> Set[Marking]:
    """Markings reachable from every reachable marking.

    For a strongly connected reachability graph this is the whole set; in
    general it is the bottom SCC if there is exactly one, and empty
    otherwise.  ``graph`` is an already-built reachability graph of
    ``net`` to read instead of exploring.
    """
    if graph is None:
        graph = reachability_graph(net, max_states)
    bottoms = graph.bottom_sccs()
    return bottoms[0] if len(bottoms) == 1 else set()


def is_reversible(net: PetriNet,
                  max_states: int = DEFAULT_STATE_BOUND) -> bool:
    """True iff the initial marking is a home marking (cyclic behaviour)."""
    return net.initial_marking in home_markings(net, max_states)
