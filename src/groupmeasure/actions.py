"""Group actions on finite possibility sets: the coin faces and die orientations.

Die convention: right-handed playing die, opposite faces sum to 7, faces
1-2-3 counterclockwise around their shared vertex.  Face axes in the
reference placement: 1 -> +x (east), 2 -> +y (north), 3 -> +z (up).  An
orientation is named by the face pointing up and the face pointing north;
it is the octahedral group id of the rotation that places it.
"""

from __future__ import annotations

from functools import cache

from .groups import SIGNED_AXES, FiniteGroup, Matrix, make_coin_group, make_octahedral, octahedral_matrices
from .record import Record
from .tables import ProbabilityTable, uniform_table

FACE_AXES: dict[int, tuple[int, int, int]] = dict(enumerate(SIGNED_AXES, 1))

_FACE_ON_AXIS = {axis: face for face, axis in FACE_AXES.items()}


class DieOrientation(Record):
    """A die resting with face ``up`` on top and face ``north`` facing north."""

    __slots__ = ("up", "north")

    def __init__(self, up: int, north: int) -> None:
        for name, face in (("up", up), ("north", north)):
            # A bool or float equal to a face would label, compare and hash as that int face.
            if face not in FACE_AXES or not isinstance(face, int) or isinstance(face, bool):
                raise ValueError(f"{name} face must be 1..6, got {face}")
        if north == up or north == 7 - up:
            raise ValueError(f"north face {north} is not adjacent to up face {up}")
        super().__init__(up, north)

    @property
    def label(self) -> str:
        return f"up{self.up}_north{self.north}"

    @classmethod
    def from_label(cls, label: str) -> DieOrientation:
        head, _, tail = label.partition("_")
        up, north = head[2:], tail[5:]
        if not (head.startswith("up") and tail.startswith("north") and up.isdecimal() and north.isdecimal()):
            raise ValueError(f"not an orientation label: {label!r}")
        return cls(int(up), int(north))


def _orientation_of(matrix: Matrix) -> DieOrientation:
    """Read off (up, north) after applying ``matrix`` to the reference placement.

    A rotation's inverse is its transpose, so the face it carries to +z (up)
    lies on row 3 and the face it carries to +y (north) lies on row 2.
    """
    return DieOrientation(_FACE_ON_AXIS[matrix[2]], _FACE_ON_AXIS[matrix[1]])


@cache
def all_orientations() -> tuple[DieOrientation, ...]:
    """The 24 die orientations: orientation i is the one that rotation i places, so they run sorted by (up, north)."""
    return tuple(map(_orientation_of, octahedral_matrices()))


class GroupAction(Record):
    """A group acting on an ordered list of state labels; act[g][s] is a state index.

    The constructor checks the table's shape, that each entry is a member of the set of state
    indices 0..len(states)-1, and that the identity fixes every state.  A negative or too large
    int, ``nan`` and a str are refused by name; a float or bool equal to an index, such as ``1.0``
    or ``True``, is a member and is accepted.  States, table and rows are stored as tuples.
    """

    __slots__ = ("group", "states", "act")

    def __init__(self, group: FiniteGroup, states: tuple[str, ...], act: tuple[tuple[int, ...], ...]) -> None:
        states, act = tuple(states), tuple(map(tuple, act))
        if not states:
            raise ValueError("action needs at least one state")
        if len(act) != group.n:
            raise ValueError("action table must have one row per group element")
        n_states = len(states)
        if any(len(row) != n_states for row in act):
            raise ValueError("action table rows must map every state to a valid state")
        ids = set(range(n_states))
        if not all(map(ids.issuperset, act)):
            entry = next(x for row in act for x in row if x not in ids)
            raise ValueError(f"action table entry {entry!r} outside 0..{n_states - 1}")
        e = group.identity
        if any(act[e][s] != s for s in range(n_states)):
            raise ValueError("identity element must fix every state")
        super().__init__(group, states, act)


def coin_action() -> GroupAction:
    """The order-2 coin group acting on {heads, tails}; the flip swaps them."""
    return GroupAction(make_coin_group(), ("heads", "tails"), ((0, 1), (1, 0)))


@cache
def die_action() -> GroupAction:
    """The octahedral group permuting the 24 die orientations, simply transitively: its own table.

    State h is the orientation that rotation h places, and g turns it to the one g∘h places.
    """
    group = make_octahedral()
    return GroupAction(group, tuple(o.label for o in all_orientations()), group.table)


def uniform_over_action(action: GroupAction) -> ProbabilityTable:
    """Equal exact probability on every state of a transitive action.

    Transitivity is required: the observed data picks out a single orbit, so
    an action with several orbits does not determine one possibility set.
    ``action`` must be an action, each row a permutation and act[g∘h] =
    act[g]∘act[h]; this is not checked here, ``oracle.verify_action`` checks it.
    """
    n_states = len(action.states)
    orbit = {action.act[g][0] for g in action.group.elements()}
    if len(orbit) != n_states:
        raise ValueError(
            f"action is not transitive ({len(orbit)} of {n_states} states reachable); "
            "no single orbit of possibilities"
        )
    return uniform_table(action.states)
