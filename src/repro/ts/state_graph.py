"""Binary-coded state graphs of STGs (paper, Sections 1.4 and 3.2).

A *state graph* (SG) is the reachability graph of an STG with every state
labelled by a binary vector of signal values.  The labelling is computed by
parity propagation from the initial state; failure to find a consistent
labelling (rising/falling transitions of some signal do not alternate)
raises :class:`~repro.errors.ConsistencyError`.

The parity walk runs on the integer-indexed core of the
:class:`~repro.ts.transition_system.TransitionSystem`.  It leaves, per
state index, a switching-parity word (bit ``k`` for
``signal_order[k]``) and a bitmask of the enabled signal directions
(bit ``2k`` for ``signal_order[k]+``, bit ``2k+1`` for
``signal_order[k]-``).  The implementability checks of
:mod:`repro.analysis.implementability` are bitmask passes over these
arrays and decode only the states they report.  The state-keyed
``codes`` mapping is built on first use, like the state-keyed views of
the transition system itself.

The SG also provides the region machinery of Section 3.2:

* ``ER(z+)`` / ``ER(z-)`` — positive/negative *excitation regions*: states
  in which a ``z+`` (``z-``) transition is enabled;
* ``QR(z+)`` / ``QR(z-)`` — *quiescent regions*: states where z is stable
  at 1 (0);
* the *next-state value* of a signal in a state (the incompletely
  specified function that logic synthesis minimises).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..errors import ConsistencyError
from ..stg.signals import FALL, RISE, SignalEvent
from ..stg.stg import STG
from .builder import DEFAULT_STATE_BOUND, build_reachability_graph
from .transition_system import State, TransitionSystem


class StateGraph:
    """A reachability graph of an STG with binary signal codes.

    Besides the state-keyed API, the graph exposes the arrays the parity
    walk computes, by state index of :attr:`ts`:

    * ``parities[i]`` — the switching-parity word of state ``i`` (-1 for
      a state the walk did not reach from the initial state);
    * ``enabled_masks[i]`` — the enabled signal directions of state ``i``;
    * ``label_signal_masks[l]`` — both direction bits of the signal of
      label ``l`` (0 for dummy events and labels on no arc);
    * ``noninput_mask`` — the direction bits of every non-input signal.
    """

    def __init__(self, stg: STG, ts: TransitionSystem,
                 signal_order: Optional[Sequence[str]] = None):
        self.stg = stg
        self.ts = ts
        self.signal_order: List[str] = (
            list(signal_order) if signal_order is not None else stg.signals
        )
        if set(self.signal_order) != set(stg.signals):
            raise ConsistencyError("signal_order must be a permutation of the"
                                   " STG's signals")
        self._index = {s: i for i, s in enumerate(self.signal_order)}
        self.noninput_mask = 0
        for k, signal in enumerate(self.signal_order):
            if stg.type_of(signal).is_noninput:
                self.noninput_mask |= 3 << 2 * k
        self.initial_values: Dict[str, int] = {}
        self._codes: Optional[Dict[State, Tuple[int, ...]]] = None
        self._code_tuples: Dict[int, Tuple[int, ...]] = {}
        self._classes: Optional[Dict[int, List[int]]] = None
        self._directions: Dict[int, FrozenSet[Tuple[str, str]]] = {}
        self._enabled_events: Dict[State, List[SignalEvent]] = {}
        self._assign_codes()

    # ------------------------------------------------------------------ #
    # code assignment
    # ------------------------------------------------------------------ #

    def _assign_codes(self) -> None:
        """Parity propagation on the indexed core.

        A depth-first walk from the initial state assigns each state a
        parity word (bit ``k`` is the switching parity of
        ``signal_order[k]``), so propagating an event is one XOR.  The
        first arc that fixes a signal's initial value is its witness;
        any later arc implying the other value, or a state reached with
        two parities, raises :class:`ConsistencyError`.  The same walk
        ORs together each state's enabled signal directions.
        """
        ts = self.ts
        labels = ts.labels
        # per label: parity flip, direction bit, own-signal bits, and the
        # flip again for falling events (whose source value is 1)
        flip = [0] * len(labels)
        direction = [0] * len(labels)
        own = [0] * len(labels)
        falling = [0] * len(labels)
        for name in ts.events:
            label = ts.label_index(name)
            event = self.stg.event_of(name)
            if event.is_dummy:
                continue
            k = self._index[event.signal]
            flip[label] = 1 << k
            own[label] = 3 << 2 * k
            if event.is_rising:
                direction[label] = 1 << 2 * k
            else:
                direction[label] = 2 << 2 * k
                falling[label] = 1 << k
        out = ts.arc_lists()
        parity = [-1] * len(out)
        enabled = [0] * len(out)
        parity[0] = 0
        order = [0]
        stack = [0]
        fixed = 0      # signals whose initial value some arc has fixed
        values = 0     # ... and those values
        witness: Dict[int, int] = {}  # signal flip -> label fixing it
        while stack:
            i = stack.pop()
            p = parity[i]
            mask = 0
            for label, j in out[i]:
                f = flip[label]
                if f:
                    mask |= direction[label]
                    q = p ^ f
                    # the source value of the signal is fixed by direction:
                    # a+ requires value 0 before, a- value 1; since
                    # value = initial XOR parity, this fixes the initial
                    required = (p & f) ^ falling[label]
                    if not fixed & f:
                        fixed |= f
                        values |= required
                        witness[f] = label
                    elif values & f != required:
                        raise ConsistencyError(
                            "signal %r: transitions %r and %r imply different"
                            " initial values — rising/falling edges do not"
                            " alternate" % (self.stg.event_of(
                                labels[label]).signal,
                                labels[witness[f]], labels[label]))
                else:
                    q = p
                known = parity[j]
                if known < 0:
                    parity[j] = q
                    order.append(j)
                    stack.append(j)
                elif known != q:
                    raise ConsistencyError(
                        "state %r reached with different switching"
                        " parities — inconsistent STG" % (ts.state_at(j),))
            enabled[i] = mask
        if len(order) < len(out):  # states the walk cannot reach
            for i, arcs in enumerate(out):
                if parity[i] < 0:
                    for label, _ in arcs:
                        enabled[i] |= direction[label]
        self.initial_values = {
            s: values >> k & 1 for k, s in enumerate(self.signal_order)
        }
        self._initial_word = values
        self._order = order
        self.parities = parity
        self.enabled_masks = enabled
        self.label_signal_masks = own

    def code_of_parity(self, parity: int) -> Tuple[int, ...]:
        """The binary code (ordered by ``signal_order``) of the states
        with the given parity word."""
        code = self._code_tuples.get(parity)
        if code is None:
            word = self._initial_word ^ parity
            code = tuple(word >> k & 1 for k in range(len(self.signal_order)))
            self._code_tuples[parity] = code
        return code

    def code_classes(self) -> Dict[int, List[int]]:
        """State indices grouped by parity word — equivalently by binary
        code — in parity-walk discovery order."""
        classes = self._classes
        if classes is None:
            classes = {}
            parity = self.parities
            for i in self._order:
                members = classes.get(parity[i])
                if members is None:
                    classes[parity[i]] = [i]
                else:
                    members.append(i)
            self._classes = classes
        return classes

    def signal_directions(self, mask: int) -> FrozenSet[Tuple[str, str]]:
        """The ``(signal, direction)`` pairs of an enabled-direction mask."""
        pairs = self._directions.get(mask)
        if pairs is None:
            order = self.signal_order
            found = []
            bits = mask
            while bits:
                low = bits & -bits
                bits ^= low
                bit = low.bit_length() - 1
                found.append((order[bit >> 1], FALL if bit & 1 else RISE))
            pairs = self._directions[mask] = frozenset(found)
        return pairs

    @property
    def codes(self) -> Dict[State, Tuple[int, ...]]:
        """Binary code of every state the parity walk reached, in
        discovery order (built on first use)."""
        codes = self._codes
        if codes is None:
            state_at = self.ts.state_at
            parity = self.parities
            code_of = self.code_of_parity
            codes = self._codes = {state_at(i): code_of(parity[i])
                                   for i in self._order}
        return codes

    # ------------------------------------------------------------------ #
    # basic queries
    # ------------------------------------------------------------------ #

    @property
    def states(self) -> List[State]:
        return self.ts.states

    def __len__(self) -> int:
        return len(self.ts)

    @property
    def initial(self) -> State:
        return self.ts.initial

    def code(self, state: State) -> Tuple[int, ...]:
        """Binary code of a state (ordered by ``signal_order``)."""
        return self.codes[state]

    def value(self, state: State, signal: str) -> int:
        """Value of a signal in a state."""
        return self.codes[state][self._index[signal]]

    def enabled_events(self, state: State) -> List[SignalEvent]:
        """Signal events labelling outgoing arcs of a state (memoized —
        the region queries below scan these per signal)."""
        cached = self._enabled_events.get(state)
        if cached is None:
            cached = sorted(
                {self.stg.event_of(t) for t in self.ts.enabled(state)},
                key=lambda e: e.sort_key(),
            )
            self._enabled_events[state] = cached
        return cached

    def enabled_signals(self, state: State,
                        noninput_only: bool = False) -> Set[Tuple[str, str]]:
        """Set of ``(signal, direction)`` pairs enabled in a state."""
        mask = self.enabled_masks[self.ts.index_of(state)]
        if noninput_only:
            mask &= self.noninput_mask
        return set(self.signal_directions(mask))

    def code_str(self, state: State,
                 groups: Optional[Sequence[Sequence[str]]] = None,
                 mark_enabled: bool = True) -> str:
        """Render a state code like the paper's Figure 4: ``"10.11*.0"``.

        ``groups`` optionally partitions the signals with dots; enabled
        signals get an asterisk after their bit when ``mark_enabled``.
        """
        if groups is None:
            groups = [self.signal_order]
        enabled = {s for s, _ in self.enabled_signals(state)} if mark_enabled \
            else set()
        chunks = []
        for group in groups:
            bits = []
            for s in group:
                bits.append(str(self.value(state, s)))
                if s in enabled:
                    bits.append("*")
            chunks.append("".join(bits))
        return ".".join(chunks)

    def states_by_code(self) -> Dict[Tuple[int, ...], List[State]]:
        """Group states by binary code (the key map for USC/CSC checks)."""
        state_at = self.ts.state_at
        return {self.code_of_parity(parity): [state_at(i) for i in members]
                for parity, members in self.code_classes().items()}

    # ------------------------------------------------------------------ #
    # excitation and quiescent regions (Section 3.2)
    # ------------------------------------------------------------------ #

    def excitation_region(self, signal: str, direction: str) -> Set[State]:
        """``ER(z+)`` or ``ER(z-)``: states where a transition of the signal
        in the given direction is enabled."""
        result = set()
        for state in self.ts.states:
            for s, d in self.enabled_signals(state):
                if s == signal and d == direction:
                    result.add(state)
                    break
        return result

    def quiescent_region(self, signal: str, direction: str) -> Set[State]:
        """``QR(z+)``: states where z is stable 1 (``QR(z-)``: stable 0)."""
        stable_value = 1 if direction == RISE else 0
        opposite = FALL if direction == RISE else RISE
        er_opp = self.excitation_region(signal, opposite)
        return {
            state for state in self.ts.states
            if self.value(state, signal) == stable_value and state not in er_opp
        }

    def next_value(self, state: State, signal: str) -> int:
        """The next-state value of a signal in a state (Section 3.2):

        * 1 in ``ER(z+) ∪ QR(z+)``,
        * 0 in ``ER(z-) ∪ QR(z-)``.
        """
        value = self.value(state, signal)
        for s, d in self.enabled_signals(state):
            if s == signal:
                return 1 if d == RISE else 0
        return value

    def excited(self, state: State, signal: str) -> bool:
        """True iff the signal's next value differs from its current value —
        i.e. the state is in an excitation region of the signal."""
        return self.next_value(state, signal) != self.value(state, signal)


def build_state_graph(stg: STG,
                      max_states: int = DEFAULT_STATE_BOUND,
                      signal_order: Optional[Sequence[str]] = None,
                      require_safe: bool = True,
                      engine: str = "auto") -> StateGraph:
    """Build the binary-coded state graph of an STG.

    Raises :class:`~repro.errors.UnboundedError` for non-safe STGs
    (pass ``require_safe=False`` for k-bounded nets, e.g. after dummy
    contraction) and :class:`~repro.errors.ConsistencyError` for
    inconsistent ones.  ``engine`` selects the reachability engine —
    ``"auto"``, ``"compiled"``, ``"naive"`` or ``"bdd"`` all yield the
    same graph, while the query-only ``"sat"`` and ``"portfolio"``
    engines raise; see
    :func:`~repro.ts.builder.build_reachability_graph` (and
    :mod:`repro.portfolio` for the racing layer).
    """
    ts = build_reachability_graph(stg, max_states=max_states,
                                  require_safe=require_safe, engine=engine)
    return StateGraph(stg, ts, signal_order=signal_order)
