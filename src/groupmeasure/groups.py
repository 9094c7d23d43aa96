"""Finite transformation groups with explicit composition tables.

Elements are opaque integer ids 0..n-1.  All constructors return fully
materialized tables so that the group axioms can be checked exhaustively.
Each constructor names its identity, which it knows from how it builds the
table: 0 for the cyclic, dihedral and coin groups, the pair of identities for
a direct product, the identity matrix's index for the octahedral group.
"""

from __future__ import annotations

from functools import cache

from .record import Record

Matrix = tuple[tuple[int, int, int], ...]


class FiniteGroup(Record):
    """A finite group given by its composition table: ``table[a][b]`` is the id of a∘b.

    The order ``n`` is read from the table.  The constructor checks the table's shape and the range of
    its entries and of ``identity``; ``oracle.verify_group_axioms`` checks whether the table is a group.
    An entry is in range when it is a member of the set of ids 0..n-1, so a negative or too large int,
    ``nan`` and a str are refused by name.  A float or bool equal to an id, such as ``1.0`` or ``True``,
    is a member and is accepted, and ``element_order`` refuses a float entry by name where it meets one;
    ``identity`` must be an int.  The table and its rows are stored as tuples.
    """

    __slots__ = ("label", "n", "table", "identity")

    def __init__(self, label: str, table: tuple[tuple[int, ...], ...], identity: int) -> None:
        table = tuple(map(tuple, table))
        n = len(table)
        if n == 0:
            raise ValueError(f"group order must be positive, got {n}")
        if any(len(row) != n for row in table):
            raise ValueError(f"{label}: composition table must be {n}x{n}")
        ids = set(range(n))
        if not all(map(ids.issuperset, table)):
            entry = next(x for row in table for x in row if x not in ids)
            raise ValueError(f"{label}: table entry {entry!r} outside 0..{n - 1}")
        if isinstance(identity, bool) or not isinstance(identity, int) or not 0 <= identity < n:
            raise ValueError(f"{label}: identity {identity!r} outside 0..{n - 1}")
        super().__init__(label, n, table, identity)

    def elements(self) -> range:
        return range(self.n)

    def compose(self, a: int, b: int) -> int:
        return self.table[a][b]

    def element_order(self, a: int) -> int:
        """Smallest k >= 1 such that composing a with itself k times gives the identity; a is an int, as identity is."""
        if isinstance(a, bool) or not isinstance(a, int) or not 0 <= a < self.n:
            raise ValueError(f"{self.label}: element {a!r} outside 0..{self.n - 1}")
        acc = row = a
        k = 1
        try:
            while acc != self.identity:
                row, acc = acc, self.table[acc][a]
                k += 1
                if k > self.n:
                    raise ValueError(f"{self.label}: element {a} generates no cycle; table is not a group")
        except TypeError:  # acc, the entry at (row, a), equals an id but is no int, such as 2.0
            raise ValueError(f"{self.label}: table entry {acc!r} at row {row}, column {a} is not an int") from None
        return k

    def order_census(self) -> dict[int, int]:
        """Map element order -> number of elements of that order."""
        census: dict[int, int] = {}
        for a in self.elements():
            k = self.element_order(a)
            census[k] = census.get(k, 0) + 1
        return census


def _rotate(block: tuple[int, ...], shift: int) -> tuple[int, ...]:
    return block[shift:] + block[:shift]


def make_cyclic(n: int) -> FiniteGroup:
    """Cyclic group of order n in additive notation: (i, j) -> (i + j) mod n.

    Row i is 0..n-1 rotated left by i, so every row shares one set of ints.
    """
    if type(n) is not int or n < 1:
        raise ValueError(f"cyclic group order must be at least 1, got {n!r}")
    elements = tuple(range(n))
    return FiniteGroup(f"C{n}", tuple(_rotate(elements, i) for i in range(n)), 0)


def make_dihedral(k: int) -> FiniteGroup:
    """Dihedral group of order 2k: rotation r of order k, reflection f with f∘r∘f = r^-1.

    Element id s*k + t encodes the word f^s r^t.  Then f^s r^t ∘ r^u = f^s r^(t+u)
    and f^s r^t ∘ f r^u = f^(1-s) r^(u-t): row s*k + t is block s rotated left by t,
    then block 1-s rotated right by t, where block s holds the ids s*k .. s*k + k-1.
    """
    if type(k) is not int or k < 1:
        raise ValueError(f"dihedral parameter must be at least 1, got {k!r}")
    blocks = (tuple(range(k)), tuple(range(k, 2 * k)))
    table = tuple(_rotate(blocks[s], t) + _rotate(blocks[1 - s], -t % k) for s in (0, 1) for t in range(k))
    return FiniteGroup(f"D{k}", table, 0)


def make_coin_group() -> FiniteGroup:
    """Order-2 group of a coin lying flat: identity (full turn) and the flip (half turn)."""
    return FiniteGroup("coin", ((0, 1), (1, 0)), 0)


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
            table.append(tuple(row))
    return FiniteGroup(f"{g.label}x{h.label}", tuple(table), g.identity * m + h.identity)


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
    table = tuple(tuple([index[mat_mul(a, b)] for b in mats]) for a in mats)
    return FiniteGroup("O", table, index[((1, 0, 0), (0, 1, 0), (0, 0, 1))])
