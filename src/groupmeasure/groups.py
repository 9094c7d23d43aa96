"""Finite transformation groups with explicit composition tables.

Elements are opaque integer ids 0..n-1.  All constructors return fully
materialized tables so that the group axioms can be checked exhaustively
at the small orders used here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import permutations, product

Matrix = tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group given by its composition table.

    ``table[a][b]`` is the id of a∘b.  ``identity`` and ``inverse`` are
    derived from the table by the constructors.
    """

    label: str
    n: int
    table: tuple[tuple[int, ...], ...]
    identity: int
    inverse: tuple[int, ...]

    def __post_init__(self) -> None:
        # Cheap shape/closure validation; the full axiom sweep lives in oracle.
        if self.n <= 0:
            raise ValueError(f"group order must be positive, got {self.n}")
        if len(self.table) != self.n or any(len(row) != self.n for row in self.table):
            raise ValueError(f"{self.label}: composition table must be {self.n}x{self.n}")
        for row in self.table:
            for entry in row:
                if not 0 <= entry < self.n:
                    raise ValueError(f"{self.label}: table entry {entry} outside 0..{self.n - 1}")

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


def _det3(m: Matrix) -> int:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)) for i in range(3)
    )


def mat_vec(m: Matrix, v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(m[i][k] * v[k] for k in range(3)) for i in range(3))


@cache
def octahedral_matrices() -> tuple[Matrix, ...]:
    """The 24 proper rotations of the cube as integer matrices, in canonical (sorted) order."""
    mats = []
    for perm in permutations(range(3)):
        for signs in product((1, -1), repeat=3):
            rows = [[0, 0, 0] for _ in range(3)]
            for i in range(3):
                rows[i][perm[i]] = signs[i]
            m: Matrix = tuple(tuple(r) for r in rows)
            if _det3(m) == 1:
                mats.append(m)
    return tuple(sorted(mats))


@cache
def make_octahedral() -> FiniteGroup:
    """Rotation group of the cube, order 24; composition table from 3-D rotation composition."""
    mats = octahedral_matrices()
    index = {m: i for i, m in enumerate(mats)}
    table = [[index[mat_mul(a, b)] for b in mats] for a in mats]
    return _from_table("O", table)
