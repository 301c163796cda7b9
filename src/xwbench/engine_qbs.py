"""Query-time summarizability resolution.

Nothing is ever rewritten: when a query runs, each fact's group membership
is resolved on the fly from the referenced instance's row array, one grouped
dimension's column of facts at a time (resolve_column).  Per grouped level
the distinct member set decides the component: one member
gives an atomic component, several collapse into a single fused component
(set semantics, so member order never splits groups), and an instance with
no value at all lands in the artificial OTHER component.  A row that is
missing the level while sibling rows carry one contributes the placeholder
member "Other" to the fused set, mirroring what the static engine's
covering+fusing produces, so both engines induce identical group partitions.
"""

from __future__ import annotations

from typing import FrozenSet, Sequence, Union

from .model import DimensionInstance

OTHER_LABEL = "Other"


class OtherGroup:
    """Singleton marker for the group of facts missing the grouped level."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "OTHER"

    def __reduce__(self) -> str:
        # Copies and unpickled keys name the module's one OTHER.
        return "OTHER"


OTHER = OtherGroup()

# A group key component: an atomic value, a fused member set, or OTHER.
Component = Union[str, FrozenSet[str], OtherGroup]


def resolve_column(index: Sequence[DimensionInstance], ordinals: Sequence[int],
                   level: str | None) -> list[Component]:
    """The component at the grouped level (None = the instance itself) of
    instance `index[o - 1]`, for every ordinal o in `ordinals`; the level is
    one the query's validation found in the dimension's schema."""
    if level is None:
        return [index[o - 1].instance_id for o in ordinals]
    column = []
    append = column.append
    for o in ordinals:
        rows = index[o - 1].rows
        if len(rows) == 1:
            only = rows[0].get(level, OTHER_LABEL)
        else:
            members = {row.get(level, OTHER_LABEL) for row in rows}
            if len(members) > 1:
                append(frozenset(members))
                continue
            (only,) = members
        append(OTHER if only == OTHER_LABEL else only)
    return column


def fused_label(members) -> str:
    """A fused component's label, also the static engine's fused value."""
    return "+".join(sorted(members))


def component_label(component: Component) -> str:
    """Canonical printable form; fused members sort lexicographically."""
    if component is OTHER:
        return OTHER_LABEL
    if isinstance(component, frozenset):
        return fused_label(component)
    return component


def label_component(label: str) -> Component:
    """Inverse of component_label over this benchmark's value domain."""
    if label == OTHER_LABEL:
        return OTHER
    if "+" in label:
        return frozenset(label.split("+"))
    return label
