"""Abstract transition systems (paper, Section 1.4).

A Transition System (TS) is a directed graph whose arcs are labelled with
events.  TSs generated from Petri nets have markings as states (then called
reachability graphs); labelling states with binary signal codes turns them
into state graphs (:mod:`repro.ts.state_graph`).

The core of a :class:`TransitionSystem` is integer-indexed.  States are
numbered ``0, 1, ...`` in insertion order (the initial state is 0),
events are numbered as *labels*, and the arcs of state ``i`` are a list
of ``(label index, target index)`` pairs.  Label numbers belong to the
builder — first use for :meth:`add_arc`, the compiled engine's
transition numbering for its graphs — so code reading the core maps
labels through :attr:`labels` rather than assuming an order.  Graph
algorithms that only need the shape of the graph — the bottom SCCs behind
liveness, the parity walk and the bitmask checks of the state graph —
run on these integers.

A state is stored as a *key*.  A TS built arc by arc (:meth:`add_arc`,
the naive and BDD engines, the composition builders) keys states by the
states themselves.  The compiled engine hands over its integer markings
as keys together with a decoder (:meth:`from_indexed`), so no
:class:`~repro.petri.marking.Marking` exists until somebody asks for one.
The state-keyed views — :attr:`states`, :meth:`successors`,
:meth:`predecessors` and the rest of the public API — are built on first
use and dropped when the TS is extended; their contents and order do not
depend on how the TS was built.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Hashable, Iterable, List, Optional, Set, Tuple

from ..errors import ModelError

State = Hashable
Event = str

#: ``(label index, target state index)`` — one arc of the indexed core.
IndexedArc = Tuple[int, int]


class TransitionSystem:
    """A labelled transition system with a distinguished initial state."""

    def __init__(self, initial: State):
        # the indexed core: state keys, labels, and arcs both ways
        self._keys: List[Hashable] = [initial]
        self._decode: Optional[Callable[[Hashable], State]] = None
        self._labels: List[Event] = []
        self._label_index: Dict[Event, int] = {}
        self._out: List[List[IndexedArc]] = [[]]
        self._in: Optional[List[List[IndexedArc]]] = [[]]
        self._masks: Optional[List[int]] = None
        # state -> index; kept up to date while building arc by arc,
        # derived on first use for a decoded core
        self._position: Optional[Dict[State, int]] = {initial: 0}
        self._drop_views()

    @classmethod
    def from_indexed(cls, keys: List[Hashable], arcs: List[List[IndexedArc]],
                     labels: List[Event],
                     decode: Optional[Callable[[Hashable], State]] = None,
                     enabled: Optional[List[int]] = None
                     ) -> "TransitionSystem":
        """Adopt an indexed core built elsewhere (no copies are made).

        ``keys[i]`` stores state ``i`` (``keys[0]`` is the initial
        state), ``arcs[i]`` its outgoing arcs as ``(label index, target
        index)`` pairs in order, and ``labels`` names the label indices.
        ``decode`` maps a key to its state — markings are then decoded
        only when a state-keyed view asks for them.  ``enabled[i]``, if
        given, is the bitmask of labels on the arcs of state ``i``.
        """
        ts = cls.__new__(cls)
        ts._keys = keys
        ts._decode = decode
        ts._labels = labels
        ts._label_index = {label: i for i, label in enumerate(labels)}
        ts._out = arcs
        ts._in = None
        ts._masks = enabled
        ts._position = None
        ts._drop_views()
        return ts

    def _drop_views(self) -> None:
        self._states: Optional[List[State]] = None
        self._succ: Optional[Dict[State, List[Tuple[Event, State]]]] = None
        self._pred: Optional[Dict[State, List[Tuple[Event, State]]]] = None
        self._events: Optional[Set[Event]] = None
        self._viewed = False

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    def _editable(self) -> Dict[State, int]:
        """Prepare the core for :meth:`add_state` / :meth:`add_arc`:
        keys become states, and the derived tables go."""
        if self._decode is not None:
            self._keys = self._state_list()
            self._decode = None
            self._labels = list(self._labels)
            self._out = [list(arcs) for arcs in self._out]
        if self._in is None:
            self._in = self._predecessor_lists()
        if self._position is None:
            self._position = self._positions()
        if self._viewed:
            self._drop_views()
        self._masks = None
        return self._position

    def add_state(self, state: State) -> int:
        """Add a state (idempotent); returns its index."""
        position = self._position
        if position is None or self._viewed or self._masks is not None:
            position = self._editable()
        index = position.get(state)
        if index is None:
            index = len(self._keys)
            position[state] = index
            self._keys.append(state)
            self._out.append([])
            self._in.append([])
        return index

    def add_arc(self, source: State, event: Event, target: State) -> None:
        """Add an arc; creates endpoint states as needed."""
        s = self.add_state(source)
        t = self.add_state(target)
        label = self._label_index.get(event)
        if label is None:
            label = len(self._labels)
            self._label_index[event] = label
            self._labels.append(event)
        self._out[s].append((label, t))
        self._in[t].append((label, s))

    # ------------------------------------------------------------------ #
    # the indexed core
    # ------------------------------------------------------------------ #

    @property
    def labels(self) -> List[Event]:
        """Events by label index (read-only)."""
        return self._labels

    def label_index(self, event: Event) -> Optional[int]:
        """Index of a label, or None if the TS does not know it."""
        return self._label_index.get(event)

    def arc_lists(self) -> List[List[IndexedArc]]:
        """Outgoing arcs of every state as ``(label index, target index)``
        lists, by state index (read-only)."""
        return self._out

    def enabled_masks(self) -> List[int]:
        """Per state index, the bitmask of labels on its outgoing arcs."""
        masks = self._masks
        if masks is None:
            masks = []
            for arcs in self._out:
                mask = 0
                for label, _ in arcs:
                    mask |= 1 << label
                masks.append(mask)
            self._masks = masks
        return masks

    def state_at(self, index: int) -> State:
        """The state with the given index (decoded on demand)."""
        if self._decode is None:
            return self._keys[index]
        if self._states is not None:
            return self._states[index]
        return self._decode(self._keys[index])

    def index_of(self, state: State) -> int:
        """Index of a state; raises ``KeyError`` for unknown states."""
        position = self._position
        if position is None:
            position = self._position = self._positions()
        return position[state]

    def bottom_scc_indices(self) -> List[List[int]]:
        """The bottom strongly connected components as lists of state
        indices: those no arc leaves (iterative Tarjan).  Liveness and
        home states are read off them."""
        out = self._out
        n = len(out)
        index = [-1] * n
        low = [0] * n
        on_stack = bytearray(n)
        component_of = [-1] * n
        stack: List[int] = []
        bottoms: List[List[int]] = []
        counter = components = 0
        for root in range(n):
            if index[root] >= 0:
                continue
            index[root] = low[root] = counter
            counter += 1
            stack.append(root)
            on_stack[root] = 1
            work = [(root, iter(out[root]))]
            while work:
                v, arcs = work[-1]
                for _, w in arcs:
                    if index[w] < 0:
                        index[w] = low[w] = counter
                        counter += 1
                        stack.append(w)
                        on_stack[w] = 1
                        work.append((w, iter(out[w])))
                        break
                    if on_stack[w] and index[w] < low[v]:
                        low[v] = index[w]
                else:  # every arc of v handled: v is finished
                    work.pop()
                    if work:
                        parent = work[-1][0]
                        if low[v] < low[parent]:
                            low[parent] = low[v]
                    if low[v] == index[v]:
                        component: List[int] = []
                        while True:
                            w = stack.pop()
                            on_stack[w] = 0
                            component_of[w] = components
                            component.append(w)
                            if w == v:
                                break
                        if all(component_of[t] == components
                               for s in component for _, t in out[s]):
                            bottoms.append(component)
                        components += 1
        return bottoms

    # ------------------------------------------------------------------ #
    # state-keyed views, built on first use
    # ------------------------------------------------------------------ #

    def _state_list(self) -> List[State]:
        states = self._states
        if states is None:
            decode = self._decode
            states = self._keys if decode is None else \
                [decode(key) for key in self._keys]
            self._states = states
            self._viewed = True
        return states

    def _positions(self) -> Dict[State, int]:
        return {state: i for i, state in enumerate(self._state_list())}

    def _predecessor_lists(self) -> List[List[IndexedArc]]:
        incoming: List[List[IndexedArc]] = [[] for _ in self._out]
        for s, arcs in enumerate(self._out):
            for label, t in arcs:
                incoming[t].append((label, s))
        return incoming

    def _successor_map(self) -> Dict[State, List[Tuple[Event, State]]]:
        succ = self._succ
        if succ is None:
            states = self._state_list()
            labels = self._labels
            succ = {states[i]: [(labels[e], states[t]) for e, t in arcs]
                    for i, arcs in enumerate(self._out)}
            self._succ = succ
        return succ

    def _predecessor_map(self) -> Dict[State, List[Tuple[Event, State]]]:
        pred = self._pred
        if pred is None:
            incoming = self._in
            if incoming is None:
                incoming = self._in = self._predecessor_lists()
            states = self._state_list()
            labels = self._labels
            pred = {states[i]: [(labels[e], states[s]) for e, s in arcs]
                    for i, arcs in enumerate(incoming)}
            self._pred = pred
        return pred

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    @property
    def initial(self) -> State:
        """The initial state (index 0)."""
        return self.state_at(0)

    @property
    def events(self) -> Set[Event]:
        """Events labelling at least one arc."""
        events = self._events
        if events is None:
            used = 0
            for mask in self.enabled_masks():
                used |= mask
            events = {label for i, label in enumerate(self._labels)
                      if used >> i & 1}
            self._events = events
            self._viewed = True
        return events

    @property
    def states(self) -> List[State]:
        """All states (insertion order)."""
        return list(self._state_list())

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, state: State) -> bool:
        position = self._position
        if position is None:
            position = self._position = self._positions()
        return state in position

    def successors(self, state: State) -> List[Tuple[Event, State]]:
        """Outgoing arcs ``(event, target)`` of a state."""
        return list(self._successor_map()[state])

    def predecessors(self, state: State) -> List[Tuple[Event, State]]:
        """Incoming arcs ``(event, source)`` of a state."""
        return list(self._predecessor_map()[state])

    def enabled(self, state: State) -> List[Event]:
        """Events labelling some outgoing arc of ``state`` (sorted)."""
        return sorted({e for e, _ in self._successor_map()[state]})

    def arcs(self) -> Iterable[Tuple[State, Event, State]]:
        """Iterate over all arcs."""
        for s, succs in self._successor_map().items():
            for e, t in succs:
                yield (s, e, t)

    def arc_count(self) -> int:
        """Total number of arcs."""
        return sum(len(arcs) for arcs in self._out)

    def bottom_sccs(self) -> List[Set[State]]:
        """The bottom strongly connected components as state sets, in the
        order of :meth:`bottom_scc_indices`."""
        state_at = self.state_at
        return [{state_at(i) for i in component}
                for component in self.bottom_scc_indices()]

    def is_deterministic(self) -> bool:
        """No state has two outgoing arcs with the same event."""
        for arcs in self._out:
            labels = [e for e, _ in arcs]
            if len(labels) != len(set(labels)):
                return False
        return True

    def states_with_event(self, event: Event) -> List[State]:
        """Source states of arcs labelling ``event`` (the excitation region
        of the event in region terminology)."""
        label = self._label_index.get(event)
        if label is None:
            return []
        return [self.state_at(i) for i, arcs in enumerate(self._out)
                if any(e == label for e, _ in arcs)]

    def fire(self, state: State, event: Event) -> State:
        """The (unique) successor of ``state`` under ``event``."""
        targets = [t for e, t in self._successor_map()[state] if e == event]
        if not targets:
            raise ModelError("event %r not enabled in state %r" % (event, state))
        if len(set(targets)) > 1:
            raise ModelError("nondeterministic event %r in state %r"
                             % (event, state))
        return targets[0]

    # ------------------------------------------------------------------ #
    # transformations
    # ------------------------------------------------------------------ #

    def relabel(self, mapping: Callable[[Event], Event]) -> "TransitionSystem":
        """New TS with every event relabelled through ``mapping``."""
        ts = TransitionSystem(self.initial)
        for s in self._state_list():
            ts.add_state(s)
        for s, e, t in self.arcs():
            ts.add_arc(s, mapping(e), t)
        return ts

    def restricted_to(self, keep: Set[State]) -> "TransitionSystem":
        """Sub-TS induced by ``keep`` (must contain the initial state)."""
        if self.initial not in keep:
            raise ModelError("restriction must keep the initial state")
        ts = TransitionSystem(self.initial)
        for s in self._state_list():
            if s in keep:
                ts.add_state(s)
        for s, e, t in self.arcs():
            if s in keep and t in keep:
                ts.add_arc(s, e, t)
        return ts

    def reachable_part(self) -> "TransitionSystem":
        """Sub-TS reachable from the initial state."""
        out = self._out
        seen = {0}
        stack = [0]
        while stack:
            for _, t in out[stack.pop()]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return self.restricted_to({self.state_at(i) for i in seen})

    # ------------------------------------------------------------------ #
    # equivalences
    # ------------------------------------------------------------------ #

    def bisimilar(self, other: "TransitionSystem") -> bool:
        """Strong bisimilarity of the initial states (partition refinement
        on the disjoint union)."""
        # disjoint-union state space
        union: List[Tuple[int, State]] = [(0, s) for s in self._state_list()]
        union += [(1, s) for s in other._state_list()]
        maps = (self._successor_map(), other._successor_map())

        def succs(tagged: Tuple[int, State]):
            tag, s = tagged
            return [(e, (tag, t)) for e, t in maps[tag][s]]

        # initial partition: single block
        block_of: Dict[Tuple[int, State], int] = {u: 0 for u in union}
        changed = True
        while changed:
            changed = False
            signatures: Dict[Tuple[int, State], FrozenSet] = {}
            for u in union:
                signatures[u] = frozenset(
                    (e, block_of[v]) for e, v in succs(u)
                )
            # refine
            keys: Dict[Tuple[int, FrozenSet], int] = {}
            new_block: Dict[Tuple[int, State], int] = {}
            for u in union:
                key = (block_of[u], signatures[u])
                if key not in keys:
                    keys[key] = len(keys)
                new_block[u] = keys[key]
            if new_block != block_of:
                block_of = new_block
                changed = True
        return block_of[(0, self.initial)] == block_of[(1, other.initial)]

    def trace_equivalent(self, other: "TransitionSystem") -> bool:
        """Language equality for deterministic TSs (synchronous product
        walk); raises :class:`ModelError` if either TS is nondeterministic."""
        if not (self.is_deterministic() and other.is_deterministic()):
            raise ModelError("trace equivalence requires determinism")
        mine, theirs = self._successor_map(), other._successor_map()
        seen = {(self.initial, other.initial)}
        stack = [(self.initial, other.initial)]
        while stack:
            a, b = stack.pop()
            ea = {e: t for e, t in mine[a]}
            eb = {e: t for e, t in theirs[b]}
            if set(ea) != set(eb):
                return False
            for e, ta in ea.items():
                pair = (ta, eb[e])
                if pair not in seen:
                    seen.add(pair)
                    stack.append(pair)
        return True

    def __repr__(self):
        return "TransitionSystem(|S|=%d, |E|=%d, |A|=%d)" % (
            len(self), len(self.events), self.arc_count())
