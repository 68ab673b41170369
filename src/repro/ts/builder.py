"""Reachability-graph construction (the "token game" of Section 1.2-1.4).

Builds a :class:`~repro.ts.transition_system.TransitionSystem` whose states
are markings and whose arcs are labelled with transition names.  For safe
nets a violation of 1-safeness raises
:class:`~repro.errors.UnboundedError`.

This is the hub of the unified engine framework (see ``docs/engines.md``
for the user guide).  Three **graph-building** engines are provided:

* ``"compiled"`` — the bitvector engine of
  :mod:`repro.petri.compiled`: markings are machine ints, enabling is two
  bitwise ops, and the enabled set is maintained incrementally across
  firings.  Requires an ordinary (weight-1) net and a safe initial
  marking.
* ``"bdd"`` — the symbolic engine of :mod:`repro.bdd.symbolic`: a
  partitioned-relation frontier fixpoint first computes the reachable
  set as a characteristic function (deciding 1-safety and the state
  budget *before* any enumeration), then materialises it explicitly.
  Requires an ordinary net and a safe initial marking.
* ``"naive"`` — the original dict-backed token game; works for any
  weighted net and, with ``require_safe=False``, for k-bounded ones.

``engine="auto"`` (the default) delegates to :func:`choose_engine`, which
picks the compiled engine whenever it is applicable and falls back to the
naive one otherwise.  All graph-building engines produce **bit-identical**
transition systems: the same states, the same arcs in the same insertion
order (BFS level order, transitions fired in sorted name order per
state), so every downstream consumer — state-graph codes, regions, CSC,
synthesis, verification — is oblivious to the choice.

The fifth engine name, ``"sat"``, is reserved for the query-based
verification path of :mod:`repro.sat`: it never builds the graph, so
requesting it here raises :class:`~repro.errors.ModelError` with a
pointer to :mod:`repro.sat.queries` (``reach_marking``,
``find_deadlock``, ``csc_conflict``, ``prove_deadlock_free``, ...).
The ``"bdd"`` engine has query variants too
(:mod:`repro.bdd.queries`: ``reachable_count``, ``find_deadlock``,
``csc_conflict_chf``) that answer without materialising anything —
prefer those over graph construction when only the answer is needed.

The sixth name, ``"portfolio"``, is likewise query-only: it names the
fault-tolerant orchestration layer of :mod:`repro.portfolio`, which
*races* the other engines in worker processes (per-task deadlines,
retry-with-backoff, degradation to cheaper engines) and cross-validates
the winner — see ``docs/portfolio.md``.  Requesting it here raises
:class:`~repro.errors.ModelError` with a pointer to
:mod:`repro.portfolio` (``check_deadlock``, ``check_reach``,
``check_csc``, ``check_consistency``).
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

from .. import obs
from ..bdd.symbolic import SymbolicReachability
from ..budgets import DEFAULT_STATE_BOUND
from ..errors import ModelError, StateExplosionError, UnboundedError
from ..petri.compiled import compile_net, supports_compilation
from ..petri.marking import Marking
from ..petri.net import PetriNet
from ..petri.token_game import enabled_transitions, fire
from ..stg.stg import STG
from .transition_system import TransitionSystem

ENGINES = ("auto", "compiled", "naive", "bdd", "sat", "portfolio")


def choose_engine(model: Union[PetriNet, STG],
                  initial: Optional[Marking] = None,
                  require_safe: bool = True,
                  purpose: str = "graph") -> Union[str, Tuple[str, ...]]:
    """The ``engine="auto"`` selection heuristic, exposed for callers.

    ``purpose="graph"`` answers "which engine should *build* the
    transition system": ``"compiled"`` whenever the net is ordinary with
    a safe initial marking (markings fit machine ints; ~5-8x faster than
    the dict token game), else ``"naive"`` (the only engine covering
    weighted arcs and k-bounded exploration).

    ``purpose="query"`` answers "which engine should answer a question
    about the state space without materialising it": ``"bdd"``
    (:mod:`repro.bdd.queries` — exact fixpoint counts, deadlocks, CSC
    characteristic functions) when the net is ordinary and safely marked,
    else ``"sat"`` (:mod:`repro.sat.queries` — bounded search and
    k-induction).  Query engines keep working at sizes where every
    graph-building engine exceeds its state budget.

    ``purpose="portfolio"`` answers "which engines should the
    :mod:`repro.portfolio` layer race, and in what slot order" — the
    only purpose returning a *tuple*, ordered by predicted win: the SAT
    query engine first (cheapest definitive answers on the library
    corpus), then ``"bdd"`` when the net is in the symbolic domain
    (ordinary arcs, safe initial marking), then the graph engine that
    ``purpose="graph"`` would pick as the exhaustive anchor.
    """
    net = model.net if isinstance(model, STG) else model
    if initial is None:
        initial = net.initial_marking
    if purpose == "graph":
        if require_safe and supports_compilation(net, initial):
            return "compiled"
        return "naive"
    if purpose == "query":
        if net.has_ordinary_arcs() and initial.is_safe():
            return "bdd"
        return "sat"
    if purpose == "portfolio":
        schedule = ["sat"]
        if net.has_ordinary_arcs() and initial.is_safe():
            schedule.append("bdd")
        schedule.append(choose_engine(net, initial,
                                      require_safe=require_safe,
                                      purpose="graph"))
        return tuple(schedule)
    raise ModelError("unknown purpose %r (expected 'graph', 'query' or"
                     " 'portfolio')" % purpose)


def build_reachability_graph(model: Union[PetriNet, STG],
                             max_states: int = DEFAULT_STATE_BOUND,
                             require_safe: bool = True,
                             initial: Optional[Marking] = None,
                             engine: str = "auto") -> TransitionSystem:
    """Breadth-first reachability graph of a Petri net or STG.

    Arc labels are transition names (for an STG these are the canonical
    event strings such as ``"LDS+"`` or ``"LDS+/2"``).

    ``engine`` selects the exploration engine: ``"auto"``, ``"compiled"``,
    ``"naive"`` or ``"bdd"`` build the graph (bit-identically); ``"sat"``
    and ``"portfolio"`` are query-only and raise with a pointer to
    :mod:`repro.sat.queries` / :mod:`repro.portfolio`.
    See the module docstring and ``docs/engines.md``.  Requesting the
    compiled or bdd engine for a model outside its domain raises
    :class:`ModelError`.

    When :func:`repro.obs.enabled`, every build runs under an
    ``engine.build`` span tagged with the resolved engine and net,
    counting ``states`` / ``arcs`` and gauging ``states_per_sec``
    (see ``docs/observability.md``).
    """
    net = model.net if isinstance(model, STG) else model
    if initial is None:
        initial = net.initial_marking
    if engine == "auto":
        engine = choose_engine(net, initial, require_safe=require_safe)
    if engine == "compiled":
        if not require_safe:
            raise ModelError(
                "compiled engine only explores safe state spaces"
                " (require_safe=False needs engine='naive')")
        return _traced_build(
            "compiled", net,
            lambda: _build_compiled(net, initial, max_states))
    if engine == "naive":
        return _traced_build(
            "naive", net,
            lambda: _build_naive(net, initial, max_states, require_safe))
    if engine == "bdd":
        if not require_safe:
            raise ModelError(
                "bdd engine only explores safe state spaces"
                " (require_safe=False needs engine='naive')")
        return _traced_build(
            "bdd", net, lambda: _build_bdd(net, initial, max_states))
    if engine == "sat":
        # the SAT engine answers *queries*, it never materialises the
        # graph — asking it for the full graph is a usage error
        raise ModelError(
            "engine='sat' answers targeted queries without building the"
            " reachability graph; use repro.sat.queries (reach_marking,"
            " find_deadlock, csc_conflict, ...) or repro.bdd.queries"
            " instead of build_reachability_graph")
    if engine == "portfolio":
        # the portfolio races query engines; it never builds the graph
        raise ModelError(
            "engine='portfolio' races query engines with deadlines and"
            " degradation; use repro.portfolio (check_deadlock,"
            " check_reach, check_csc, check_consistency) instead of"
            " build_reachability_graph")
    raise ModelError(
        "unknown engine %r (expected one of %s)" % (engine, ENGINES))


def _traced_build(engine: str, net: PetriNet, build) -> TransitionSystem:
    """Run one graph-builder thunk under an ``engine.build`` span.

    Disabled, this is one boolean check plus the plain ``build()`` call
    — the graph is never re-measured; enabled, the span records the
    ``states`` / ``arcs`` counters and a ``states_per_sec`` gauge.
    """
    if not obs.enabled():
        return build()
    with obs.span("engine.build", engine=engine, net=net.name) as span:
        ts = build()
        states = len(ts)
        span.add("states", states)
        span.add("arcs", ts.arc_count())
        elapsed = span.elapsed()
        if elapsed > 0.0:
            span.set_gauge("states_per_sec", states / elapsed)
    return ts


def _build_compiled(net: PetriNet, initial: Marking,
                    max_states: int) -> TransitionSystem:
    """Bitvector BFS with incremental enabled-set maintenance.

    The BFS runs entirely on integer states and hands its arrays to the
    transition system as they are: codes in discovery order, arcs as
    ``(transition index, state index)`` and the enabled-transition mask
    of every state.  Markings are decoded only when a state-keyed view of
    the graph is asked for.  Discovery order and the sorted transition
    order per state are the insertion order the naive engine produces.
    """
    compiled = compile_net(net, initial)
    root = compiled.initial
    pre_masks = compiled.pre_masks
    post_masks = compiled.post_masks
    enabled_after = compiled.enabled_after

    codes = [root]
    position = {root: 0}
    masks = [compiled.enabled_mask(root)]
    arc_lists = []
    # live heartbeat progress for portfolio workers (repro.obs.remote):
    # the provider reads the growing code list, so it costs nothing here
    tracking = obs.enabled()
    if tracking:
        obs.push_progress(lambda: {"states": len(codes)})
    try:
        # BFS level order is the order of discovery: the code list is
        # the queue
        for code, enabled in zip(codes, masks):
            arcs = []
            bits = enabled
            while bits:
                low = bits & -bits
                bits ^= low
                index = low.bit_length() - 1
                stripped = code & ~pre_masks[index]
                post = post_masks[index]
                conflict = stripped & post
                if conflict:
                    raise compiled.unbounded_error(code, index, conflict)
                succ = stripped | post
                target = position.get(succ)
                if target is None:
                    target = len(codes)
                    if target >= max_states:
                        raise StateExplosionError(
                            "reachability graph exceeded %d states"
                            % max_states,
                            bound=max_states, states=target)
                    position[succ] = target
                    codes.append(succ)
                    masks.append(enabled_after(enabled, index, succ))
                arcs.append((index, target))
            arc_lists.append(arcs)
    finally:
        if tracking:
            obs.pop_progress()
    return TransitionSystem.from_indexed(
        codes, arc_lists, compiled.transitions, decode=compiled.decode,
        enabled=masks)


def _build_bdd(net: PetriNet, initial: Marking,
               max_states: int) -> TransitionSystem:
    """Symbolic fixpoint first, explicit materialisation second."""
    sym = SymbolicReachability(net, initial=initial)
    return sym.to_transition_system(max_states)


def _build_naive(net: PetriNet, initial: Marking, max_states: int,
                 require_safe: bool) -> TransitionSystem:
    """The original dict-backed token game (any weights, k-bounded nets)."""
    ts = TransitionSystem(initial)
    frontier = [initial]
    seen = {initial}
    tracking = obs.enabled()
    if tracking:
        obs.push_progress(lambda: {"states": len(seen)})
    try:
        while frontier:
            next_frontier = []
            for marking in frontier:
                for t in enabled_transitions(net, marking):
                    succ = fire(net, marking, t, check=False)
                    if require_safe and not succ.is_safe():
                        offenders = [p for p, n in succ.items() if n > 1]
                        raise UnboundedError(
                            "firing %r from %r violates 1-safeness at %r"
                            % (t, marking, offenders)
                        )
                    ts.add_arc(marking, t, succ)
                    if succ not in seen:
                        if len(seen) >= max_states:
                            raise StateExplosionError(
                                "reachability graph exceeded %d states"
                                % max_states,
                                bound=max_states, states=len(seen)
                            )
                        seen.add(succ)
                        next_frontier.append(succ)
            frontier = next_frontier
    finally:
        if tracking:
            obs.pop_progress()
    return ts
