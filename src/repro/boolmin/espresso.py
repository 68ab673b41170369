"""Heuristic two-level minimization (ESPRESSO-style EXPAND / IRREDUNDANT /
REDUCE loop).

The exact Quine–McCluskey/Petrick engine
(:mod:`repro.boolmin.quine_mccluskey`) is the reference used throughout
the reproduction; real CAD flows use heuristic minimizers when the exact
covering problem explodes.  This module provides such an engine over the
same minterm-level interface, so the two can be compared directly:

* **EXPAND** grows each cube literal by literal while it stays disjoint
  from the OFF-set, absorbing other cubes on the way;
* **IRREDUNDANT** greedily drops cubes whose ON minterms are covered by
  the rest;
* **REDUCE** shrinks each cube to the supercube of the ON minterms only
  it covers, giving EXPAND a different starting point next iteration.

The result is always a correct cover (asserted by property tests against
:func:`~repro.boolmin.quine_mccluskey.verify_cover`) with cube count no
better than the exact minimum — the benchmark suite measures the gap and
the speed difference.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Set, Tuple

from .cube import (
    Cube,
    checked_minterms,
    cube_contains,
    cube_covers,
    cube_minterms,
    int_to_minterm,
    minterm_to_int,
)


def _cube_off_intersects(cube: Cube, offset: Set[int], n: int) -> bool:
    """Does the cube contain any OFF minterm?  (Enumerates the smaller of
    the cube or the OFF-set.)"""
    free = sum(1 for v in cube if v is None)
    if (1 << free) <= len(offset):
        return any(minterm_to_int(m) in offset for m in cube_minterms(cube))
    return any(cube_contains(cube, int_to_minterm(m, n)) for m in offset)


def expand_cube(cube: Cube, offset: Set[int], n: int) -> Cube:
    """Raise literals (in a deterministic order) while staying disjoint
    from the OFF-set."""
    current = list(cube)
    for pos in range(n):
        if current[pos] is None:
            continue
        trial = list(current)
        trial[pos] = None
        if not _cube_off_intersects(tuple(trial), offset, n):
            current = trial
    return tuple(current)


def irredundant(cover: Sequence[Cube], onset: Set[int], n: int) -> List[Cube]:
    """Greedily drop cubes whose ON minterms are covered elsewhere
    (largest cubes are kept first)."""
    order = sorted(
        range(len(cover)),
        key=lambda i: (-sum(1 for v in cover[i] if v is None),
                       tuple(-1 if v is None else v for v in cover[i])))
    chosen: List[Cube] = []
    covered: Set[int] = set()
    for i in order:
        cube = cover[i]
        gain = {minterm_to_int(m) for m in cube_minterms(cube)} & onset
        if gain - covered:
            chosen.append(cube)
            covered |= gain
    chosen.sort(key=lambda c: tuple(-1 if v is None else v for v in c))
    return chosen


def reduce_cover(cover: Sequence[Cube], onset: Set[int],
                 n: int) -> List[Cube]:
    """Shrink cubes *sequentially*: each cube is replaced by the supercube
    of the ON minterms the rest of the (partially reduced) cover does not
    catch.  Sequential processing is essential — shrinking two cubes away
    from a shared minterm simultaneously would uncover it."""
    working: List[Optional[Cube]] = list(cover)
    for i in range(len(working)):
        cube = working[i]
        if cube is None:
            continue
        others_cover: Set[int] = set()
        for j, other in enumerate(working):
            if j == i or other is None:
                continue
            for m in cube_minterms(other):
                others_cover.add(minterm_to_int(m))
        private = [m for m in cube_minterms(cube)
                   if minterm_to_int(m) in onset
                   and minterm_to_int(m) not in others_cover]
        if not private:
            working[i] = None
            continue
        shrunk = []
        for pos in range(n):
            values = {p[pos] for p in private}
            shrunk.append(values.pop() if len(values) == 1 else None)
        working[i] = tuple(shrunk)
    return [c for c in working if c is not None]


def espresso(onset: Iterable[int], dcset: Iterable[int], n: int,
             max_iterations: int = 6) -> List[Cube]:
    """Heuristic minimum-ish SOP cover of an incompletely specified
    function (same interface as
    :func:`repro.boolmin.quine_mccluskey.minimize`, including the
    :class:`~repro.errors.ModelError` for a minterm outside
    ``[0, 2**n)``)."""
    onset = checked_minterms(onset, n)
    dcset = checked_minterms(dcset, n) - onset
    if not onset:
        return []
    offset = set(range(1 << n)) - onset - dcset
    cover: List[Cube] = [int_to_minterm(m, n) for m in sorted(onset)]
    best: Optional[List[Cube]] = None
    for _ in range(max_iterations):
        cover = [expand_cube(c, offset, n) for c in cover]
        cover = irredundant(cover, onset, n)
        if best is None or len(cover) < len(best):
            best = list(cover)
        else:
            break
        cover = reduce_cover(cover, onset, n)
        if not cover:
            cover = list(best)
            break
    # final polishing pass
    cover = [expand_cube(c, offset, n) for c in (best or cover)]
    cover = irredundant(cover, onset, n)
    if best is not None and len(best) < len(cover):
        cover = best
    cover.sort(key=lambda c: tuple(-1 if v is None else v for v in c))
    return cover
