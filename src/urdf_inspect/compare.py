"""Cross-source comparison of robots that more than one source defines.

Robots are grouped by a normalized (manufacturer, robot name) key taken
from the dataset metadata.  Joint count, link count, mesh extension sets
and raw line count are per-member facts: a flag says "differs" iff the
facts of the members that have one span at least two sources and hold
at least two distinct values.  A member whose text was not read gives no
line count; one whose model did not parse gives no joint, link or mesh
fact.  Sampled forward kinematics is the only pairwise check: it runs
over the cross-source pairs of members whose kinematic tree was built.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .bundles import BundleRecord, mesh_inventory
from .kinematics import Incomparable, TreeError, UnsupportedJoint, build_tree, fk_equivalent
from .model import RobotModel, line_count

__all__ = ["DiscrepancyReport", "robot_key", "find_multiply_defined", "compare_group"]

RobotKey = tuple[str, str]


def _norm(text: str) -> str:
    return re.sub(r"[^a-z0-9]", "", text.lower())


def robot_key(record: BundleRecord) -> RobotKey:
    """Grouping key: normalized (manufacturer, robot name) from metadata."""
    return (_norm(record.manufacturer), _norm(record.robot_name))


def _member_order(record: BundleRecord) -> tuple[str, str, str]:
    """The order of a robot's members: by source, id, then URDF path."""
    return record.source_name, record.id, str(record.urdf_path)


def find_multiply_defined(records: list[BundleRecord]) -> dict[RobotKey, list[BundleRecord]]:
    """Robots whose bundles come from at least two distinct sources.

    Same-source entries (URDF variants) stay listed in the group but
    are never paired with each other during comparison.
    """
    groups: dict[RobotKey, list[BundleRecord]] = {}
    for record in records:
        if not record.robot_name:
            continue
        groups.setdefault(robot_key(record), []).append(record)
    multiply = {
        key: sorted(members, key=_member_order)
        for key, members in groups.items()
        if len({r.source_name for r in members}) >= 2
    }
    return dict(sorted(multiply.items()))


class DiscrepancyReport(NamedTuple):
    """Feature differences across one multiply defined robot.

    diff_fk is None when at least one cross-source pair could not be
    compared (structural mismatch or an unparseable member) and no
    comparable pair showed a difference.
    """

    sources: tuple[str, ...]
    diff_joints: bool
    diff_links: bool
    diff_cad_types: bool
    diff_fk: bool | None
    diff_lines: bool

    @property
    def any(self) -> bool:
        return (self.diff_joints or self.diff_links or self.diff_cad_types
                or self.diff_fk is True or self.diff_lines)

    @property
    def any_excl_lines(self) -> bool:
        return (self.diff_joints or self.diff_links or self.diff_cad_types
                or self.diff_fk is True)


def _differs(facts: list[tuple[str, object]]) -> bool:
    """Some cross-source pair of (source, value) facts holds different values.

    That is the case iff the facts span at least two sources and hold at
    least two distinct values.
    """
    return len({source for source, _ in facts}) >= 2 and len({v for _, v in facts}) >= 2


def compare_group(bundles: list[tuple[BundleRecord, RobotModel | None, str | None]],
                  fk_tol: float = 1e-6) -> DiscrepancyReport:
    """Feature comparison over one robot's bundles, across distinct sources.

    A flag is true iff some cross-source pair of members differs in that
    feature.  A member gives joint, link and mesh-type facts only when
    its model parsed (``model`` is not None) and a line count only when
    its text was read (``text`` is not None).  FK is compared pairwise
    over the members whose kinematic tree was built; any member without
    a tree makes the FK verdict incomparable unless a pair differs.
    """
    bundles = sorted(bundles, key=lambda b: _member_order(b[0]))
    sources = tuple(sorted({record.source_name for record, _, _ in bundles}))
    lines = [(r.source_name, line_count(text)) for r, _, text in bundles if text is not None]
    parsed = [(r.source_name, model) for r, model, _ in bundles if model is not None]
    inventories = [(source, mesh_inventory(model)) for source, model in parsed]
    built = []
    for source, model in parsed:
        try:
            built.append((source, build_tree(model)))
        except TreeError:
            pass
    fk_verdicts: list[bool | None] = []
    if len(sources) >= 2 and len(built) < len(bundles):
        fk_verdicts.append(None)  # a member without a tree sits in some cross-source pair
    for i, (source_a, ta) in enumerate(built):
        for source_b, tb in built[i + 1:]:
            if source_a == source_b:
                continue
            try:
                fk_verdicts.append(not fk_equivalent(ta, tb, tol=fk_tol).equal)
            except (Incomparable, UnsupportedJoint):
                fk_verdicts.append(None)

    return DiscrepancyReport(
        sources=sources,
        diff_joints=_differs([(s, len(m.joints)) for s, m in parsed]),
        diff_links=_differs([(s, len(m.links)) for s, m in parsed]),
        diff_cad_types=_differs([(s, (frozenset(inv.visual), frozenset(inv.collision)))
                                 for s, inv in inventories]),
        diff_fk=True if True in fk_verdicts else None if None in fk_verdicts else False,
        diff_lines=_differs(lines),
    )
