"""Finite transformation groups with explicit composition tables.

Elements are opaque integer ids 0..n-1.  All constructors return fully
materialized tables so that the group axioms can be checked exhaustively
at the small orders used here.
"""

from __future__ import annotations

from functools import cache

from .record import Record

Matrix = tuple[tuple[int, int, int], ...]


class FiniteGroup(Record):
    """A finite group given by its composition table.

    ``table[a][b]`` is the id of a∘b.  ``identity`` and ``inverse`` are
    derived from the table by the constructors.
    """

    __slots__ = ("label", "n", "table", "identity", "inverse")

    def __init__(self, label: str, n: int, table: tuple[tuple[int, ...], ...], identity: int,
                 inverse: tuple[int, ...]) -> None:
        # Cheap shape/closure validation; the full axiom sweep lives in oracle.
        if n <= 0:
            raise ValueError(f"group order must be positive, got {n}")
        if len(table) != n or any(len(row) != n for row in table):
            raise ValueError(f"{label}: composition table must be {n}x{n}")
        for row in table:
            for entry in row:
                if not 0 <= entry < n:
                    raise ValueError(f"{label}: table entry {entry} outside 0..{n - 1}")
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "inverse", inverse)

    def elements(self) -> range:
        return range(self.n)

    def compose(self, a: int, b: int) -> int:
        return self.table[a][b]

    def element_order(self, a: int) -> int:
        """Smallest k >= 1 such that composing a with itself k times gives the identity."""
        acc = a
        k = 1
        while acc != self.identity:
            acc = self.table[acc][a]
            k += 1
            if k > self.n:
                raise ValueError(f"{self.label}: element {a} generates no cycle; table is not a group")
        return k

    def order_census(self) -> dict[int, int]:
        """Map element order -> number of elements of that order."""
        census: dict[int, int] = {}
        for a in self.elements():
            k = self.element_order(a)
            census[k] = census.get(k, 0) + 1
        return census


def _from_table(label: str, table: list[list[int]]) -> FiniteGroup:
    """Finish a constructor: locate the identity and the inverse map."""
    n = len(table)
    identity = None
    for e in range(n):
        if all(table[e][x] == x and table[x][e] == x for x in range(n)):
            identity = e
            break
    if identity is None:
        raise ValueError(f"{label}: composition table has no two-sided identity")
    inverse = []
    for a in range(n):
        inv = next(
            (b for b in range(n) if table[a][b] == identity and table[b][a] == identity),
            None,
        )
        if inv is None:
            raise ValueError(f"{label}: element {a} has no two-sided inverse")
        inverse.append(inv)
    return FiniteGroup(label, n, tuple(tuple(row) for row in table), identity, tuple(inverse))


def make_cyclic(n: int) -> FiniteGroup:
    """Cyclic group of order n in additive notation: (i, j) -> (i + j) mod n."""
    if n < 1:
        raise ValueError(f"cyclic group order must be at least 1, got {n}")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return _from_table(f"C{n}", table)


def make_dihedral(k: int) -> FiniteGroup:
    """Dihedral group of order 2k: rotation r of order k, reflection f with f∘r∘f = r^-1.

    Element id s*k + t encodes the word f^s r^t.
    """
    if k < 1:
        raise ValueError(f"dihedral parameter must be at least 1, got {k}")
    n = 2 * k

    def mul(a: int, b: int) -> int:
        s1, t1 = divmod(a, k)
        s2, t2 = divmod(b, k)
        s = (s1 + s2) % 2
        t = ((t1 if s2 == 0 else -t1) + t2) % k
        return s * k + t

    table = [[mul(a, b) for b in range(n)] for a in range(n)]
    return _from_table(f"D{k}", table)


def make_coin_group() -> FiniteGroup:
    """Order-2 group of a coin lying flat: identity (full turn) and the flip (half turn)."""
    return _from_table("coin", [[0, 1], [1, 0]])


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Direct product with componentwise composition; id (a, b) packed as a*|h| + b."""
    n = g.n * h.n
    table = [
        [g.table[a1][a2] * h.n + h.table[b1][b2] for a2 in range(g.n) for b2 in range(h.n)]
        for a1 in range(g.n)
        for b1 in range(h.n)
    ]
    return _from_table(f"{g.label}x{h.label}", table)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)) for i in range(3)
    )


_SIGNED_AXES = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))


def _cross(y: tuple[int, int, int], z: tuple[int, int, int]) -> tuple[int, int, int]:
    return (y[1] * z[2] - y[2] * z[1], y[2] * z[0] - y[0] * z[2], y[0] * z[1] - y[1] * z[0])


@cache
def octahedral_matrices() -> tuple[Matrix, ...]:
    """The 24 proper rotations of the cube as integer matrices, in canonical (sorted) order.

    A rotation's rows are orthonormal and right-handed: rows 2 and 3 are two signed
    unit axes at right angles, and row 1 is their cross product, which is zero
    exactly when the two axes are parallel.
    """
    frames = ((_cross(y, z), y, z) for y in _SIGNED_AXES for z in _SIGNED_AXES)
    return tuple(sorted(m for m in frames if m[0] != (0, 0, 0)))


@cache
def make_octahedral() -> FiniteGroup:
    """Rotation group of the cube, order 24; composition table from 3-D rotation composition."""
    mats = octahedral_matrices()
    index = {m: i for i, m in enumerate(mats)}
    table = [[index[mat_mul(a, b)] for b in mats] for a in mats]
    return _from_table("O", table)
