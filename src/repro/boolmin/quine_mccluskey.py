"""Exact two-level minimization: Quine–McCluskey with Petrick covering.

Used to derive minimal sum-of-products equations from the incompletely
specified next-state functions of Section 3.2 — "in this step it is crucial
to make an efficient use of the don't care conditions derived from those
binary codes not corresponding to any state of the SG".

Primes are generated on minterm bitsets.  For each don't-care mask ``m``
one Python int holds the implicants with that mask: bit ``v`` is set iff
``(v, m)`` is an implicant (``v`` is 0 at the positions of ``m``).  The
merge of the classic tabular method on bit ``b`` is then one big-int
expression, ``S & (S >> 2**b) & ZERO[b]``, whose set bits are the values
``v`` (bit ``b`` clear) that pair with ``v | 2**b``; it yields the
implicants of mask ``m | 2**b``.  The implicants of a mask that merge on
no bit are its primes.  Each mask costs ``n`` big-int operations over
``2**n`` bits, whatever the number of implicants, so the kernel is fast on
the dense, don't-care-rich functions of state graphs and slower than a
per-implicant merge only on very sparse functions of many variables.

The minimum cover is selected by essential-prime extraction followed by
Petrick's method (with a greedy fallback above a configurable product-size
limit).  The result is deterministic.

Minterms outside ``[0, 2**n)`` raise :class:`~repro.errors.ModelError`.
When :func:`repro.obs.enabled`, :func:`minimize` runs under a
``boolmin.minimize`` span counting the ``primes`` generated, the
``cubes`` of the cover, and ``petrick`` or ``greedy`` for the covering
path that ran after the essential primes.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .. import obs
from .cube import Cube, checked_minterms, cube_contains, int_to_minterm

# internal implicant representation: (value, mask) over n bits, MSB first;
# mask bit 1 = don't care at that position.
_Implicant = Tuple[int, int]


def _implicant_to_cube(imp: _Implicant, n: int) -> Cube:
    value, mask = imp
    out = []
    for i in range(n):
        bit = n - 1 - i
        if (mask >> bit) & 1:
            out.append(None)
        else:
            out.append((value >> bit) & 1)
    return tuple(out)


def _implicant_covers(imp: _Implicant, minterm: int) -> bool:
    value, mask = imp
    return (minterm & ~mask) == (value & ~mask)


@lru_cache(maxsize=16)
def _zero_masks(n: int) -> Tuple[int, ...]:
    """Per bit ``b``: the bitset of the values in ``[0, 2**n)`` whose bit
    ``b`` is 0 (runs of ``2**b`` ones every ``2**(b+1)`` positions)."""
    full = (1 << (1 << n)) - 1
    return tuple(full // ((1 << (2 << b)) - 1) * ((1 << (1 << b)) - 1)
                 for b in range(n))


def _bitset(values: Iterable[int], n: int) -> int:
    """The int with bit ``v`` set for every ``v`` in ``values``."""
    buf = bytearray(((1 << n) + 7) >> 3)
    for v in values:
        buf[v >> 3] |= 1 << (v & 7)
    return int.from_bytes(buf, "little")


def _members(bits: int) -> Iterator[int]:
    """The set bits of a nonnegative int, ascending."""
    text = bin(bits)[:1:-1]
    i = text.find("1")
    while i >= 0:
        yield i
        i = text.find("1", i + 1)


def prime_implicants(onset: Iterable[int], dcset: Iterable[int],
                     n: int) -> List[_Implicant]:
    """All prime implicants of the function with the given ON and DC sets,
    as sorted ``(value, mask)`` pairs."""
    care = checked_minterms(onset, n) | checked_minterms(dcset, n)
    zero = _zero_masks(n)
    primes: List[_Implicant] = []
    level: Dict[int, int] = {0: _bitset(care, n)} if care else {}
    while level:
        merged: Dict[int, int] = {}
        for mask, values in level.items():
            used = 0
            for b in range(n):
                bit = 1 << b
                if mask & bit:
                    continue
                pairs = values & (values >> bit) & zero[b]
                if pairs:
                    used |= pairs | (pairs << bit)
                    # every sub-mask of mask | bit yields the same set
                    merged.setdefault(mask | bit, pairs)
            primes.extend((v, mask) for v in _members(values & ~used))
        level = merged
    primes.sort()
    return primes


def _petrick(chart: Dict[int, FrozenSet[int]],
             limit: int = 4_000) -> Optional[List[Set[int]]]:
    """Petrick's method: all minimal prime-index sets covering the chart.

    ``chart`` maps each uncovered ON-minterm to the set of prime indices
    covering it.  Returns None as soon as the intermediate product exceeds
    ``limit`` terms *before* absorption (the absorption step is quadratic,
    so the caller falls back to greedy covering early on large charts).
    """
    # Petrick is exponential; only attempt it on small charts (the paper's
    # controller functions all qualify) — otherwise signal the greedy
    # fallback immediately.
    if len(chart) > 24 or sum(len(c) for c in chart.values()) > 96:
        return None
    product: Set[FrozenSet[int]] = {frozenset()}
    work = 0
    for minterm in sorted(chart):
        alternatives = chart[minterm]
        next_product: Set[FrozenSet[int]] = set()
        for term in product:
            for p in alternatives:
                next_product.add(term | {p})
        if len(next_product) > limit:
            return None
        # absorb: drop supersets of kept (smaller-first) terms
        pruned: List[FrozenSet[int]] = []
        for term in sorted(next_product, key=len):
            work += len(pruned)
            if not any(other <= term for other in pruned):
                pruned.append(term)
        if work > limit * 50:
            return None
        product = set(pruned)
    return [set(t) for t in product]


def _greedy_cover(chart: Dict[int, FrozenSet[int]]) -> Set[int]:
    """Greedy set cover (deterministic tie-break by index)."""
    uncovered = set(chart)
    chosen: Set[int] = set()
    while uncovered:
        counts: Dict[int, int] = {}
        for m in uncovered:
            for p in chart[m]:
                counts[p] = counts.get(p, 0) + 1
        best = min(counts, key=lambda p: (-counts[p], p))
        chosen.add(best)
        uncovered = {m for m in uncovered if best not in chart[m]}
    return chosen


def minimize(onset: Iterable[int], dcset: Iterable[int], n: int,
             petrick_limit: int = 200_000) -> List[Cube]:
    """Minimal SOP cover of the incompletely specified function.

    ``onset``/``dcset`` are minterm integers over ``n`` variables
    (MSB = variable 0).  Minimizes the number of cubes, then total
    literal count.  Returns cubes in deterministic order.  Raises
    :class:`~repro.errors.ModelError` for a minterm outside
    ``[0, 2**n)``.
    """
    onset_set = checked_minterms(onset, n)
    onset = sorted(onset_set)
    dcset = sorted(checked_minterms(dcset, n) - onset_set)
    with obs.span("boolmin.minimize", n=n) as span:
        if not onset:
            span.add("cubes", 0)
            return []
        if len(onset) + len(dcset) == 1 << n:
            span.add("cubes", 1)
            return [tuple([None] * n)]
        primes = prime_implicants(onset, dcset, n)
        span.add("primes", len(primes))

        chart: Dict[int, FrozenSet[int]] = {}
        for m in onset:
            covering = frozenset(i for i, p in enumerate(primes)
                                 if _implicant_covers(p, m))
            chart[m] = covering

        # essential primes
        chosen: Set[int] = set()
        for m, covering in chart.items():
            if len(covering) == 1:
                chosen.add(next(iter(covering)))
        remaining = {m: c for m, c in chart.items()
                     if not (c & chosen)}

        if remaining:
            solutions = _petrick(remaining, petrick_limit)
            if solutions is None:
                span.add("greedy")
                chosen |= _greedy_cover(remaining)
            else:
                span.add("petrick")

                def cost(solution: Set[int]) -> Tuple[int, int, Tuple[int, ...]]:
                    total = chosen | solution
                    literals = sum(
                        n - bin(primes[i][1]).count("1") for i in total
                    )
                    return (len(total), literals, tuple(sorted(total)))

                chosen |= min(solutions, key=cost)

        cubes = [_implicant_to_cube(primes[i], n) for i in sorted(chosen)]
        cubes.sort(key=lambda c: tuple(-1 if v is None else v for v in c))
        span.add("cubes", len(cubes))
        return cubes


def verify_cover(cover: Sequence[Cube], onset: Iterable[int],
                 offset: Iterable[int], n: int) -> bool:
    """Check that a cover contains every ON minterm and no OFF minterm."""
    for m in onset:
        if not any(cube_contains(c, int_to_minterm(m, n)) for c in cover):
            return False
    for m in offset:
        if any(cube_contains(c, int_to_minterm(m, n)) for c in cover):
            return False
    return True
