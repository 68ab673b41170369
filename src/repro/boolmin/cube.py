"""Cube algebra for two-level logic.

A cube over ``n`` positional variables is a tuple with entries ``0``, ``1``
or ``None`` (don't-care, printed ``-``).  Cubes denote conjunctions of
literals; a list of cubes denotes their disjunction (a cover / SOP form).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..errors import ModelError

Cube = Tuple[Optional[int], ...]


def cube_from_str(text: str) -> Cube:
    """Parse ``"10-"`` into ``(1, 0, None)``."""
    mapping = {"0": 0, "1": 1, "-": None}
    return tuple(mapping[c] for c in text.strip())


def cube_to_str(cube: Cube) -> str:
    """Render ``(1, 0, None)`` as ``"10-"``."""
    return "".join("-" if v is None else str(v) for v in cube)


def cube_contains(cube: Cube, minterm: Sequence[int]) -> bool:
    """True iff the minterm (0/1 vector) lies in the cube."""
    return all(c is None or c == m for c, m in zip(cube, minterm))


def cube_covers(big: Cube, small: Cube) -> bool:
    """True iff every point of ``small`` lies in ``big``."""
    return all(b is None or b == s for b, s in zip(big, small))


def cubes_intersect(a: Cube, b: Cube) -> bool:
    """True iff the two cubes share at least one minterm."""
    return all(x is None or y is None or x == y for x, y in zip(a, b))


def cube_intersection(a: Cube, b: Cube) -> Optional[Cube]:
    """The intersection cube, or None if disjoint."""
    result = []
    for x, y in zip(a, b):
        if x is None:
            result.append(y)
        elif y is None or x == y:
            result.append(x)
        else:
            return None
    return tuple(result)


def cube_minterms(cube: Cube) -> Iterator[Tuple[int, ...]]:
    """Enumerate the minterms of a cube (2^free_positions of them)."""
    free = [i for i, v in enumerate(cube) if v is None]
    base = [0 if v is None else v for v in cube]
    for mask in range(1 << len(free)):
        point = list(base)
        for k, idx in enumerate(free):
            point[idx] = (mask >> k) & 1
        yield tuple(point)


def cube_size(cube: Cube) -> int:
    """Number of minterms in the cube."""
    return 1 << sum(1 for v in cube if v is None)


def literal_count(cube: Cube) -> int:
    """Number of fixed literals (the cost measure for covers)."""
    return sum(1 for v in cube if v is not None)


def cover_contains(cover: Iterable[Cube], minterm: Sequence[int]) -> bool:
    """True iff some cube of the cover contains the minterm."""
    return any(cube_contains(c, minterm) for c in cover)


def cover_to_str(cover: Iterable[Cube]) -> str:
    """Multi-cube cover as comma-separated cube strings."""
    return ", ".join(cube_to_str(c) for c in cover)


def minterm_to_int(minterm: Sequence[int]) -> int:
    """Binary vector (MSB first) to integer."""
    value = 0
    for bit in minterm:
        value = (value << 1) | bit
    return value


def int_to_minterm(value: int, width: int) -> Tuple[int, ...]:
    """Integer to binary vector (MSB first)."""
    return tuple((value >> (width - 1 - i)) & 1 for i in range(width))


def checked_minterms(minterms: Iterable[int], n: int) -> Set[int]:
    """The minterms as a set; :class:`~repro.errors.ModelError` names the
    smallest one outside ``[0, 2**n)``."""
    found = set(minterms)
    if found and (min(found) < 0 or max(found) >= 1 << n):
        bad = min(m for m in found if not 0 <= m < 1 << n)
        raise ModelError("minterm %d is outside [0, 2**%d) for a function"
                         " of n = %d variables" % (bad, n, n))
    return found
