"""Kinematic tree construction and forward kinematics.

Frames compose root-to-leaf: child = parent * joint.origin * motion,
where motion rotates about (revolute/continuous) or translates along
(prismatic) the joint's unit axis.  rpy follows the extrinsic fixed-axis
X-Y-Z convention, R = Rz(yaw) @ Ry(pitch) @ Rx(roll).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .model import Joint, JointKind, RobotModel

__all__ = [
    "Transform",
    "KinematicTree",
    "JointConfig",
    "TreeError",
    "UnsupportedJoint",
    "Incomparable",
    "FkComparison",
    "build_tree",
    "forward_kinematics",
    "fk_equivalent",
]

if TYPE_CHECKING:  # numpy is imported by the functions that use it: only FK needs it
    import numpy as np

SCALAR_KINDS = (JointKind.REVOLUTE, JointKind.CONTINUOUS, JointKind.PRISMATIC)
ROTATIONAL = (JointKind.REVOLUTE, JointKind.CONTINUOUS)


class TreeError(Exception):
    """The joint graph is not a single rooted tree, or a moving joint has no axis.

    ``reason`` is one of "multiple_roots", "cycle", "no_root",
    "disconnected" (a link unreachable from the root, or a joint naming
    an undeclared link), "shared" (a link that is the child of several
    joints), "zero_axis".
    """

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


class UnsupportedJoint(Exception):
    """Forward kinematics over floating/planar joints is not defined here."""

    def __init__(self, joint_name: str, type_name: str):
        super().__init__(f"joint '{joint_name}' has unsupported kind '{type_name}'")
        self.joint_name = joint_name


class Incomparable(Exception):
    """Two mechanisms differ structurally; no FK verdict is possible.

    ``reason`` is one of "joint_count", "joint_kinds", "leaf_count".
    """

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


@dataclass(frozen=True)
class Transform:
    """Rigid-body transform: orthonormal rotation plus translation."""

    rotation: np.ndarray  # (3, 3)
    translation: np.ndarray  # (3,)


@dataclass(frozen=True)
class KinematicTree:
    """``joints``: every joint in depth-first preorder from the root, siblings
    by joint name (ties in document order); ``actuated``: its moving joints,
    in that order, which configurations follow.  Neither depends on the
    order in which the file declares links and joints."""

    root: str
    children: dict[str, tuple[tuple[Joint, str], ...]]  # by parent link, in document order
    actuated: tuple[Joint, ...]
    joints: tuple[Joint, ...]

    def leaves(self) -> list[str]:
        """Leaf links in the order of ``joints``."""
        return [j.child for j in self.joints if not self.children.get(j.child)] or [self.root]


@dataclass(frozen=True)
class JointConfig:
    """Scalar values aligned with KinematicTree.actuated (rad or m)."""

    values: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.values)


def _rpy_matrix(rpy: Sequence[float]) -> np.ndarray:
    import numpy as np
    roll, pitch, yaw = rpy
    cr, sr = math.cos(roll), math.sin(roll)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cy, sy = math.cos(yaw), math.sin(yaw)
    rx = np.array([[1, 0, 0], [0, cr, -sr], [0, sr, cr]])
    ry = np.array([[cp, 0, sp], [0, 1, 0], [-sp, 0, cp]])
    rz = np.array([[cy, -sy, 0], [sy, cy, 0], [0, 0, 1]])
    return rz @ ry @ rx


@dataclass(frozen=True)
class _JointGraph:
    """What is wrong with a joint graph, for build_tree and kinematic_sanity.

    Edges run from a declared parent link; a joint naming an undeclared
    parent only counts toward its child's parent joints.
    """

    children: dict[str, list[tuple[Joint, str]]]
    roots: list[str]  # links that are no joint's child, in document order
    joints: list[Joint]  # the walk from the roots: depth-first preorder, siblings by joint name
    problems: list[tuple[str, str, str]]  # (reason, subject, message); none iff a single rooted tree


def _joint_graph(model: RobotModel) -> _JointGraph:
    children: dict[str, list[tuple[Joint, str]]] = {link.name: [] for link in model.links}
    parents: dict[str, int] = {}  # joints naming each link as their child
    waiting = dict.fromkeys(children, 0)  # of those, joints between declared links
    for joint in model.joints:
        parents[joint.child] = parents.get(joint.child, 0) + 1
        if joint.parent in children:
            children[joint.parent].append((joint, joint.child))
            if joint.child in waiting:
                waiting[joint.child] += 1
    roots = [link.name for link in model.links if link.name not in parents]

    def by_name(link: str) -> list[Joint]:  # popped first by name, ties in document order
        return sorted((joint for joint, _ in children.get(link, ())), key=lambda j: j.name)[::-1]

    reached = set(roots)
    joints: list[Joint] = []
    stack = [joint for root in roots for joint in by_name(root)]
    while stack:
        joints.append(stack.pop())
        if joints[-1].child not in reached:
            reached.add(joints[-1].child)
            stack += by_name(joints[-1].child)

    # Peel links whose parents are all peeled; what is left lies on or below a cycle.
    ready = [name for name, count in waiting.items() if not count]
    peeled = 0
    while ready:
        peeled += 1
        for _, child in children[ready.pop()]:
            if child in waiting:
                waiting[child] -= 1
                if not waiting[child]:
                    ready.append(child)

    robot = model.name or "robot"
    unreachable = sorted(name for name in children if name not in reached)
    problems = []
    if len(roots) > 1:
        problems.append(("multiple_roots", ", ".join(roots),
                         f"{len(roots)} root links (no unique base)"))
    if peeled < len(waiting):
        problems.append(("cycle", robot, "joint graph contains a cycle"))
    elif not roots:  # every link is the child of a joint from an undeclared link
        problems.append(("no_root", robot, "joint graph has no root link"))
    if roots and unreachable:
        problems.append(("disconnected", ", ".join(unreachable),
                         f"{len(unreachable)} links unreachable from root"))
    problems += [("shared", name, f"link '{name}' is the child of several joints")
                 for name in children if parents.get(name, 0) > 1]
    return _JointGraph(children=children, roots=roots, joints=joints, problems=problems)


def build_tree(model: RobotModel) -> KinematicTree:
    """Assemble the rooted tree; expects a model that passed validation.

    Rejects a joint naming an undeclared link, a moving joint whose axis
    is the zero vector, and exactly the joint graphs kinematic_sanity
    warns of, with the reason of the first warning.  The root is the
    unique link never appearing as a joint child.
    """
    import numpy as np
    graph = _joint_graph(model)
    for joint in model.joints:
        if joint.parent not in graph.children or joint.child not in graph.children:
            raise TreeError("disconnected",
                            f"joint '{joint.name}' references an undeclared link")
        if joint.kind in SCALAR_KINDS and not np.linalg.norm(joint.axis):
            raise TreeError("zero_axis",
                            f"moving joint '{joint.name}' has a zero axis")
    if graph.problems:
        reason, _, message = graph.problems[0]
        raise TreeError(reason, message)
    return KinematicTree(root=graph.roots[0],
                         children={n: tuple(e) for n, e in graph.children.items()},
                         actuated=tuple(j for j in graph.joints if j.kind in SCALAR_KINDS),
                         joints=tuple(graph.joints))


def _frames(tree: KinematicTree, q: np.ndarray) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Rotation (S, 3, 3) and translation (S, 3) of every link, where row s
    of ``q`` (S, len(tree.actuated)) is one configuration of ``tree.actuated``."""
    import numpy as np
    frames = {tree.root: (np.tile(np.eye(3), (len(q), 1, 1)), np.zeros((len(q), 3)))}
    values = iter(q.T)
    for joint in tree.joints:
        if joint.kind in (JointKind.FLOATING, JointKind.PLANAR):
            raise UnsupportedJoint(joint.name, joint.type_name)
        base_r, base_t = frames[joint.parent]
        rot = base_r @ _rpy_matrix(joint.origin.rpy)
        trans = base_r @ np.asarray(joint.origin.xyz, dtype=float) + base_t
        if joint.kind in SCALAR_KINDS:  # fixed joints do not move
            axis = np.asarray(joint.axis, dtype=float) / np.linalg.norm(joint.axis)
            value = next(values)
            if joint.kind is JointKind.PRISMATIC:
                trans = trans + (rot @ axis) * value[:, None]
            else:  # Rodrigues rotation about the unit axis
                x, y, z = axis
                k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
                angle = value[:, None, None]
                rot = rot @ (np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k))
        frames[joint.child] = (rot, trans)
    return frames


def forward_kinematics(tree: KinematicTree, model: RobotModel,
                       q: JointConfig | Sequence[float]) -> dict[str, Transform]:
    """Frame of every link, given one value per joint of ``tree.actuated``;
    the root frame is the identity."""
    values = tuple(q.values) if isinstance(q, JointConfig) else tuple(q)
    if len(values) != len(tree.actuated):
        raise ValueError(f"configuration has {len(values)} values, "
                         f"tree has {len(tree.actuated)} actuated joints")
    import numpy as np
    rows = np.array(values, dtype=float).reshape(1, -1)
    return {name: Transform(rot[0], trans[0]) for name, (rot, trans) in _frames(tree, rows).items()}


@dataclass(frozen=True)
class FkComparison:
    equal: bool
    worst_deviation: float  # meters, over all samples and leaves
    worst_rotation: float  # radians
    samples: tuple[tuple[float, ...], ...] = ()  # the sampled configurations of ``actuated``


def _sample_range(joint: Joint) -> tuple[float, float]:
    limit = joint.limit
    if (joint.kind is not JointKind.CONTINUOUS and limit is not None
            and limit.lower is not None and limit.upper is not None):
        return limit.lower, limit.upper
    if joint.kind in ROTATIONAL:
        return -math.pi, math.pi
    return -1.0, 1.0


def _rotation_angle(ra: np.ndarray, rb: np.ndarray) -> np.ndarray:
    """Angle between rotations (..., 3, 3) from the chord ||ra - rb||_F =
    2 sqrt(2) sin(angle / 2): exactly 0 for equal frames, where the trace
    form's acos cannot resolve angles below ~1e-8."""
    import numpy as np
    chord = np.linalg.norm(ra - rb, axis=(-2, -1)) / (2.0 * math.sqrt(2.0))
    return 2.0 * np.arcsin(np.minimum(1.0, chord))


def fk_equivalent(tree_a: KinematicTree, model_a: RobotModel,
                  tree_b: KinematicTree, model_b: RobotModel,
                  samples: int = 16, seed: int = 0, tol: float = 1e-6) -> FkComparison:
    """Compare two mechanisms by sampled forward kinematics.

    Joints are paired by index in ``actuated`` (revolute and continuous
    count as the same motion kind), leaf frames by index in ``leaves()``:
    both follow the tree preorder with siblings by joint name, so the
    verdict does not depend on declaration order.  Each sampled value is
    uniform over the intersection of the two joints' ranges.  Equal iff
    every sampled leaf frame agrees within ``tol`` in translation and in
    rotation angle.  Deterministic given (samples, seed) and symmetric.
    """
    if len(tree_a.actuated) != len(tree_b.actuated):
        raise Incomparable("joint_count",
                           f"{len(tree_a.actuated)} vs {len(tree_b.actuated)} actuated joints")
    ranges = []
    for ja, jb in zip(tree_a.actuated, tree_b.actuated):
        if (ja.kind in ROTATIONAL) != (jb.kind in ROTATIONAL):
            raise Incomparable("joint_kinds",
                               f"joint {ja.name!r} is {ja.type_name}, {jb.name!r} is {jb.type_name}")
        (lo_a, hi_a), (lo_b, hi_b) = _sample_range(ja), _sample_range(jb)
        lo, hi = max(lo_a, lo_b), min(hi_a, hi_b)
        if lo > hi:  # disjoint declared ranges; fall back to the midpoint between them
            lo = hi = (lo + hi) / 2.0
        ranges.append((lo, hi))
    leaves_a, leaves_b = tree_a.leaves(), tree_b.leaves()
    if len(leaves_a) != len(leaves_b):
        raise Incomparable("leaf_count", f"{len(leaves_a)} vs {len(leaves_b)} leaf links")

    import numpy as np
    rng = np.random.default_rng(seed)
    configs = [tuple(rng.uniform(lo, hi) if hi > lo else lo for lo, hi in ranges)
               for _ in range(max(1, samples))]
    q = np.array(configs, dtype=float).reshape(len(configs), len(ranges))

    def leaf_frames(tree, leaves):  # rotations (S, leaves, 3, 3), translations (S, leaves, 3)
        frames = _frames(tree, q)
        return [np.stack(part, axis=1) for part in zip(*(frames[leaf] for leaf in leaves))]

    rot_a, trans_a = leaf_frames(tree_a, leaves_a)
    rot_b, trans_b = leaf_frames(tree_b, leaves_b)
    worst_t = float(np.linalg.norm(trans_a - trans_b, axis=-1).max())
    worst_r = float(_rotation_angle(rot_a, rot_b).max())
    return FkComparison(equal=worst_t <= tol and worst_r <= tol,
                        worst_deviation=worst_t, worst_rotation=worst_r, samples=tuple(configs))
