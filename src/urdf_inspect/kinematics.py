"""Kinematic tree construction and forward kinematics.

Frames compose root-to-leaf: child = parent * joint.origin * motion,
where motion rotates about (revolute/continuous) or translates along
(prismatic) the joint's unit axis.  rpy follows the extrinsic fixed-axis
X-Y-Z convention, R = Rz(yaw) @ Ry(pitch) @ Rx(roll).

The arithmetic is plain Python floats: a rotation is a row-major 9-tuple
and a translation a 3-tuple.  Only ``forward_kinematics`` imports numpy,
to return its frames as arrays.
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING, NamedTuple, Sequence

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

if TYPE_CHECKING:  # numpy is imported only by forward_kinematics, to wrap its result
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


class Transform(NamedTuple):
    """Rigid-body transform: orthonormal rotation plus translation."""

    rotation: np.ndarray  # (3, 3)
    translation: np.ndarray  # (3,)


class KinematicTree(NamedTuple):
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


class JointConfig(NamedTuple):
    """Scalar values aligned with KinematicTree.actuated (rad or m)."""

    values: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.values)


class _JointGraph(NamedTuple):
    """What is wrong with a joint graph, for build_tree and kinematic_sanity.

    Edges run from a declared parent link; a joint naming an undeclared
    parent only counts toward its child's parent joints.
    """

    children: dict[str, list[tuple[Joint, str]]]
    roots: list[str]  # links that are no joint's child, by name
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
    roots = sorted(link.name for link in model.links if link.name not in parents)

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
                 for name in sorted(children) if parents.get(name, 0) > 1]
    return _JointGraph(children=children, roots=roots, joints=joints, problems=problems)


def build_tree(model: RobotModel) -> KinematicTree:
    """Assemble the rooted tree; expects a model that passed validation.

    Rejects a joint naming an undeclared link, a moving joint whose axis
    is the zero vector, and exactly the joint graphs kinematic_sanity
    warns of, with the reason of the first warning.  The root is the
    unique link never appearing as a joint child.
    """
    graph = _joint_graph(model)
    for joint in model.joints:
        if joint.parent not in graph.children or joint.child not in graph.children:
            raise TreeError("disconnected",
                            f"joint '{joint.name}' references an undeclared link")
        if joint.kind in SCALAR_KINDS and not math.hypot(*joint.axis):
            raise TreeError("zero_axis",
                            f"moving joint '{joint.name}' has a zero axis")
    if graph.problems:
        reason, _, message = graph.problems[0]
        raise TreeError(reason, message)
    return KinematicTree(root=graph.roots[0],
                         children={n: tuple(e) for n, e in graph.children.items()},
                         actuated=tuple(j for j in graph.joints if j.kind in SCALAR_KINDS),
                         joints=tuple(graph.joints))


Rotation = tuple[float, float, float, float, float, float, float, float, float]  # row-major 3x3
Vector = tuple[float, float, float]
Frame = tuple[Rotation, Vector]

_IDENTITY: Rotation = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)


def _cos_sin(angle: float) -> tuple[float, float]:
    """Both nan for an infinite angle, where math.cos and math.sin raise."""
    if math.isinf(angle):
        return math.nan, math.nan
    return math.cos(angle), math.sin(angle)


def _rpy(rpy: Sequence[float]) -> Rotation:
    """Rz(yaw) @ Ry(pitch) @ Rx(roll)."""
    roll, pitch, yaw = rpy
    cr, sr = _cos_sin(roll)
    cp, sp = _cos_sin(pitch)
    cy, sy = _cos_sin(yaw)
    return (cy * cp, cy * sp * sr - sy * cr, cy * sp * cr + sy * sr,
            sy * cp, sy * sp * sr + cy * cr, sy * sp * cr - cy * sr,
            -sp, cp * sr, cp * cr)


def _mat_mul(a: Rotation, b: Rotation) -> Rotation:
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = a
    b0, b1, b2, b3, b4, b5, b6, b7, b8 = b
    return (a0 * b0 + a1 * b3 + a2 * b6, a0 * b1 + a1 * b4 + a2 * b7, a0 * b2 + a1 * b5 + a2 * b8,
            a3 * b0 + a4 * b3 + a5 * b6, a3 * b1 + a4 * b4 + a5 * b7, a3 * b2 + a4 * b5 + a5 * b8,
            a6 * b0 + a7 * b3 + a8 * b6, a6 * b1 + a7 * b4 + a8 * b7, a6 * b2 + a7 * b5 + a8 * b8)


def _mat_vec(a: Rotation, v: Sequence[float], offset: Vector = (0.0, 0.0, 0.0)) -> Vector:
    """a @ v + offset."""
    x, y, z = v
    return (a[0] * x + a[1] * y + a[2] * z + offset[0],
            a[3] * x + a[4] * y + a[5] * z + offset[1],
            a[6] * x + a[7] * y + a[8] * z + offset[2])


def _rodrigues(r: Rotation, rk: Rotation, rkk: Rotation, angle: float) -> Rotation:
    """r + sin(angle) * rk + (1 - cos(angle)) * rkk."""
    c, s = _cos_sin(angle)
    v = 1.0 - c
    return (r[0] + s * rk[0] + v * rkk[0], r[1] + s * rk[1] + v * rkk[1],
            r[2] + s * rk[2] + v * rkk[2], r[3] + s * rk[3] + v * rkk[3],
            r[4] + s * rk[4] + v * rkk[4], r[5] + s * rk[5] + v * rkk[5],
            r[6] + s * rk[6] + v * rkk[6], r[7] + s * rk[7] + v * rkk[7],
            r[8] + s * rk[8] + v * rkk[8])


def _frames(tree: KinematicTree, configs: Sequence[Sequence[float]]) -> list[dict[str, Frame]]:
    """(rotation, translation) of every link, one dict per configuration of
    ``tree.actuated`` in ``configs``; the root frame is the identity."""
    steps = []  # (parent, child, kind, origin rotation, origin xyz, motion terms)
    for joint in tree.joints:
        if joint.kind in (JointKind.FLOATING, JointKind.PLANAR):
            raise UnsupportedJoint(joint.name, joint.type_name)
        rot, motion = _rpy(joint.origin.rpy), ()
        if joint.kind in SCALAR_KINDS:  # fixed joints do not move
            norm = math.hypot(*joint.axis)
            x, y, z = (a / norm for a in joint.axis)
            if joint.kind is JointKind.PRISMATIC:  # origin xyz + value * (R0 @ axis)
                motion = _mat_vec(rot, (x, y, z))
            else:  # Rodrigues: R0 @ (I + sin * K + (1 - cos) * K @ K)
                k = (0.0, -z, y, z, 0.0, -x, -y, x, 0.0)  # the axis's cross-product matrix
                motion = (_mat_mul(rot, k), _mat_mul(_mat_mul(rot, k), k))
        steps.append((joint.parent, joint.child, joint.kind, rot, joint.origin.xyz, motion))

    out = []
    for config in configs:
        frames = {tree.root: (_IDENTITY, (0.0, 0.0, 0.0))}
        values = iter(config)
        for parent, child, kind, rot, xyz, motion in steps:
            base_r, base_t = frames[parent]
            if kind is JointKind.PRISMATIC:
                value = next(values)
                xyz = (xyz[0] + value * motion[0], xyz[1] + value * motion[1],
                       xyz[2] + value * motion[2])
            elif motion:
                rot = _rodrigues(rot, *motion, next(values))
            frames[child] = (_mat_mul(base_r, rot), _mat_vec(base_r, xyz, base_t))
        out.append(frames)
    return out


def forward_kinematics(tree: KinematicTree, model: RobotModel,
                       q: JointConfig | Sequence[float]) -> dict[str, Transform]:
    """Frame of every link, given one value per joint of ``tree.actuated``;
    the root frame is the identity."""
    values = tuple(q.values) if isinstance(q, JointConfig) else tuple(q)
    if len(values) != len(tree.actuated):
        raise ValueError(f"configuration has {len(values)} values, "
                         f"tree has {len(tree.actuated)} actuated joints")
    frames = _frames(tree, [tuple(map(float, values))])[0]
    import numpy as np
    return {name: Transform(np.array(rot).reshape(3, 3), np.array(trans))
            for name, (rot, trans) in frames.items()}


class FkComparison(NamedTuple):
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


def _rotation_angle(ra: Rotation, rb: Rotation) -> float:
    """Angle between two rotations from the chord ||ra - rb||_F =
    2 sqrt(2) sin(angle / 2): exactly 0 for equal frames, where the trace
    form's acos cannot resolve angles below ~1e-8."""
    chord = math.hypot(*(a - b for a, b in zip(ra, rb))) / (2.0 * math.sqrt(2.0))
    return 2.0 * math.asin(1.0 if chord > 1.0 else chord)  # a nan chord stays nan


def _worst(values: list[float]) -> float:
    """The largest of ``values``; nan if any is nan, so it never compares equal."""
    return math.nan if any(map(math.isnan, values)) else max(values)


def fk_equivalent(tree_a: KinematicTree, tree_b: KinematicTree, tol: float = 1e-6) -> FkComparison:
    """Compare two mechanisms by forward kinematics at 16 sampled configurations.

    Joints are paired by index in ``actuated`` (revolute and continuous
    count as the same motion kind), leaf frames by index in ``leaves()``:
    both follow the tree preorder with siblings by joint name, so the
    verdict does not depend on declaration order.  Each sampled value is
    uniform over the intersection of the two joints' ranges, drawn from
    ``random.Random(0)``.  Equal iff every sampled leaf frame agrees within
    ``tol`` in translation and in rotation angle.  Deterministic and symmetric.
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

    rng = random.Random(0)
    configs = [tuple(rng.uniform(lo, hi) if hi > lo else lo for lo, hi in ranges)
               for _ in range(16)]
    pairs = [(fa[leaf_a], fb[leaf_b])
             for fa, fb in zip(_frames(tree_a, configs), _frames(tree_b, configs))
             for leaf_a, leaf_b in zip(leaves_a, leaves_b)]
    worst_t = _worst([math.dist(ta, tb) for (_, ta), (_, tb) in pairs])
    worst_r = _worst([_rotation_angle(ra, rb) for (ra, _), (rb, _) in pairs])
    return FkComparison(equal=worst_t <= tol and worst_r <= tol,
                        worst_deviation=worst_t, worst_rotation=worst_r, samples=tuple(configs))
