"""Finite transformation groups with explicit composition tables.

Elements are opaque integer ids 0..n-1.  All constructors return fully
materialized tables so that the group axioms can be checked exhaustively.
"""

from __future__ import annotations

from collections.abc import Sequence
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
        if min(map(min, table)) < 0 or max(map(max, table)) >= n:
            entry = next(x for row in table for x in row if not 0 <= x < n)
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


def _from_table(label: str, table: Sequence[Sequence[int]]) -> FiniteGroup:
    """Finish a constructor: locate the identity and the inverse map."""
    rows = tuple(map(tuple, table))
    elements = tuple(range(len(rows)))
    identity = next(
        (e for e, row in enumerate(rows) if row == elements and all(r[e] == x for x, r in enumerate(rows))),
        None,
    )
    if identity is None:
        raise ValueError(f"{label}: composition table has no two-sided identity")
    inverse = []
    for a, row in enumerate(rows):
        inv = row.index(identity) if identity in row else None
        if inv is None or rows[inv][a] != identity:
            inv = next((b for b, x in enumerate(row) if x == identity and rows[b][a] == identity), None)
        if inv is None:
            raise ValueError(f"{label}: element {a} has no two-sided inverse")
        inverse.append(inv)
    return FiniteGroup(label, len(rows), rows, identity, tuple(inverse))


def _rotate(block: tuple[int, ...], shift: int) -> tuple[int, ...]:
    return block[shift:] + block[:shift]


def make_cyclic(n: int) -> FiniteGroup:
    """Cyclic group of order n in additive notation: (i, j) -> (i + j) mod n.

    Row i is 0..n-1 rotated left by i, so every row shares one set of ints.
    """
    if n < 1:
        raise ValueError(f"cyclic group order must be at least 1, got {n}")
    elements = tuple(range(n))
    return _from_table(f"C{n}", [_rotate(elements, i) for i in range(n)])


def make_dihedral(k: int) -> FiniteGroup:
    """Dihedral group of order 2k: rotation r of order k, reflection f with f∘r∘f = r^-1.

    Element id s*k + t encodes the word f^s r^t.  Then f^s r^t ∘ r^u = f^s r^(t+u)
    and f^s r^t ∘ f r^u = f^(1-s) r^(u-t): row s*k + t is block s rotated left by t,
    then block 1-s rotated right by t, where block s holds the ids s*k .. s*k + k-1.
    """
    if k < 1:
        raise ValueError(f"dihedral parameter must be at least 1, got {k}")
    blocks = (tuple(range(k)), tuple(range(k, 2 * k)))
    table = [_rotate(blocks[s], t) + _rotate(blocks[1 - s], -t % k) for s in (0, 1) for t in range(k)]
    return _from_table(f"D{k}", table)


def make_coin_group() -> FiniteGroup:
    """Order-2 group of a coin lying flat: identity (full turn) and the flip (half turn)."""
    return _from_table("coin", [[0, 1], [1, 0]])


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Direct product with componentwise composition; id (a, b) packed as a*|h| + b.

    Row (a1, b1) is, for each a2, the block of ids g.table[a1][a2]*|h| + h.table[b1].
    """
    m = h.n
    # blocks[b1][c] lists c*|h| + h.table[b1], built once for every row that reads it.
    blocks = [[list(map((c * m).__add__, row)) for c in range(g.n)] for row in h.table]
    table = []
    for g_row in g.table:
        for row_blocks in blocks:
            row: list[int] = []
            for c in g_row:
                row += row_blocks[c]
            table.append(row)
    return _from_table(f"{g.label}x{h.label}", table)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Row (x, y, z) of the product is x * b[0] + y * b[1] + z * b[2], written out entry by entry."""
    (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = b
    return tuple([
        (x * b00 + y * b10 + z * b20, x * b01 + y * b11 + z * b21, x * b02 + y * b12 + z * b22) for x, y, z in a
    ])


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
