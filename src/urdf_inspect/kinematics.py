"""Kinematic tree construction and forward kinematics.

Frames compose root-to-leaf: child = parent * joint.origin * motion,
where motion rotates about (revolute/continuous) or translates along
(prismatic) the joint's unit axis.  rpy follows the extrinsic fixed-axis
X-Y-Z convention, R = Rz(yaw) @ Ry(pitch) @ Rx(roll).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import Joint, JointKind, Pose, RobotModel

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

SCALAR_KINDS = (JointKind.REVOLUTE, JointKind.CONTINUOUS, JointKind.PRISMATIC)
ROTATIONAL = (JointKind.REVOLUTE, JointKind.CONTINUOUS)


class TreeError(Exception):
    """The joint graph is not a single rooted tree.

    ``reason`` is one of "multiple_roots", "cycle", "disconnected",
    "zero_axis".
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

    @staticmethod
    def identity() -> "Transform":
        return Transform(np.eye(3), np.zeros(3))

    @staticmethod
    def from_pose(pose: Pose) -> "Transform":
        return Transform(_rpy_matrix(pose.rpy), np.asarray(pose.xyz, dtype=float))

    def compose(self, other: "Transform") -> "Transform":
        return Transform(self.rotation @ other.rotation,
                         self.rotation @ other.translation + self.translation)

    def __matmul__(self, other: "Transform") -> "Transform":
        return self.compose(other)


@dataclass(frozen=True)
class KinematicTree:
    root: str
    children: dict[str, tuple[tuple[Joint, str], ...]]
    actuated: tuple[Joint, ...]

    def leaves(self) -> list[str]:
        """Leaf links in depth-first preorder from the root."""
        out: list[str] = []
        stack = [self.root]
        while stack:
            name = stack.pop()
            edges = self.children.get(name, ())
            if not edges:
                out.append(name)
            else:
                stack.extend(child for _, child in reversed(edges))
        return out


@dataclass(frozen=True)
class JointConfig:
    """Scalar values aligned with KinematicTree.actuated (rad or m)."""

    values: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.values)


def _rpy_matrix(rpy: Sequence[float]) -> np.ndarray:
    roll, pitch, yaw = rpy
    cr, sr = math.cos(roll), math.sin(roll)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cy, sy = math.cos(yaw), math.sin(yaw)
    rx = np.array([[1, 0, 0], [0, cr, -sr], [0, sr, cr]])
    ry = np.array([[cp, 0, sp], [0, 1, 0], [-sp, 0, cp]])
    rz = np.array([[cy, -sy, 0], [sy, cy, 0], [0, 0, 1]])
    return rz @ ry @ rx

def _axis_angle_matrix(axis: np.ndarray, angle: float) -> np.ndarray:
    # Rodrigues rotation about a unit axis.
    x, y, z = axis
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def _unit_axis(joint: Joint) -> np.ndarray:
    axis = np.asarray(joint.axis, dtype=float)
    return axis / np.linalg.norm(axis)


@dataclass(frozen=True)
class _JointGraph:
    """What build_tree and kinematic_sanity need to know of a joint graph.

    Edges run from a declared parent link; a joint naming an undeclared
    parent only counts toward its child's parent joints.
    """

    children: dict[str, list[tuple[Joint, str]]]
    roots: list[str]  # links that are no joint's child, in document order
    shared: list[str]  # links that are the child of several joints, in document order
    reached_again: list[str]  # links the walk from the roots meets a second time, in that order
    unreachable: list[str]  # links the walk from the roots never meets, sorted
    cycle: bool  # some links form a directed cycle


def _joint_graph(model: RobotModel) -> _JointGraph:
    children: dict[str, list[tuple[Joint, str]]] = {link.name: [] for link in model.links}
    parents: dict[str, int] = {}
    for joint in model.joints:
        if joint.parent in children:
            children[joint.parent].append((joint, joint.child))
        parents[joint.child] = parents.get(joint.child, 0) + 1
    roots = [link.name for link in model.links if link.name not in parents]

    reached: set[str] = set()
    reached_again: list[str] = []
    stack = list(roots)
    while stack:
        name = stack.pop()
        if name in reached:
            reached_again.append(name)
            continue
        if name in children:
            reached.add(name)
            stack.extend(child for _, child in children[name])

    # Peel links whose parents are all peeled; what is left lies on or below a cycle.
    waiting = {name: 0 for name in children}
    for edges in children.values():
        for _, child in edges:
            if child in waiting:
                waiting[child] += 1
    ready = [name for name, count in waiting.items() if not count]
    peeled = 0
    while ready:
        peeled += 1
        for _, child in children[ready.pop()]:
            if child in waiting:
                waiting[child] -= 1
                if not waiting[child]:
                    ready.append(child)

    return _JointGraph(children=children, roots=roots,
                       shared=[name for name in children if parents.get(name, 0) > 1],
                       reached_again=reached_again,
                       unreachable=sorted(name for name in children if name not in reached),
                       cycle=peeled < len(waiting))


def build_tree(model: RobotModel) -> KinematicTree:
    """Assemble the rooted tree; expects a model that passed validation.

    The root is the unique link never appearing as a joint child.
    Rejects multi-root, cyclic and disconnected graphs, and moving
    joints whose axis is the zero vector.
    """
    known = {link.name for link in model.links}
    for joint in model.joints:
        if joint.parent not in known or joint.child not in known:
            raise TreeError("disconnected",
                            f"joint '{joint.name}' references an undeclared link")
        if joint.kind in SCALAR_KINDS and not np.linalg.norm(joint.axis):
            raise TreeError("zero_axis",
                            f"moving joint '{joint.name}' has a zero axis")

    graph = _joint_graph(model)
    if not graph.roots:
        raise TreeError("cycle", "every link is some joint's child; the graph has a cycle")
    if len(graph.roots) > 1:
        raise TreeError("multiple_roots", f"multiple root links: {', '.join(graph.roots)}")
    root = graph.roots[0]
    if graph.reached_again:
        raise TreeError("cycle", f"link '{graph.reached_again[0]}' is reached more than once")
    if graph.unreachable:
        raise TreeError("disconnected",
                        f"links not reachable from root '{root}': {', '.join(graph.unreachable)}")

    actuated = tuple(j for j in model.joints if j.kind in SCALAR_KINDS)
    frozen = {name: tuple(edges) for name, edges in graph.children.items()}
    return KinematicTree(root=root, children=frozen, actuated=actuated)


def _motion(joint: Joint, value: float) -> Transform:
    if joint.kind in ROTATIONAL:
        return Transform(_axis_angle_matrix(_unit_axis(joint), value), np.zeros(3))
    if joint.kind is JointKind.PRISMATIC:
        return Transform(np.eye(3), _unit_axis(joint) * value)
    if joint.kind in (JointKind.FLOATING, JointKind.PLANAR):
        raise UnsupportedJoint(joint.name, joint.type_name)
    # fixed joints and unrecognized kinds do not move
    return Transform.identity()


def forward_kinematics(tree: KinematicTree, model: RobotModel,
                       q: JointConfig | Sequence[float]) -> dict[str, Transform]:
    """Frame of every link; the root frame is the identity."""
    values = tuple(q.values) if isinstance(q, JointConfig) else tuple(q)
    if len(values) != len(tree.actuated):
        raise ValueError(f"configuration has {len(values)} values, "
                         f"tree has {len(tree.actuated)} actuated joints")
    index = {id(joint): i for i, joint in enumerate(tree.actuated)}

    frames = {tree.root: Transform.identity()}
    stack = [tree.root]
    while stack:
        name = stack.pop()
        base = frames[name]
        for joint, child in tree.children.get(name, ()):
            value = values[index[id(joint)]] if id(joint) in index else 0.0
            frames[child] = base @ Transform.from_pose(joint.origin) @ _motion(joint, value)
            stack.append(child)
    return frames


@dataclass(frozen=True)
class FkSample:
    config: tuple[float, ...]
    translation_deviation: float
    rotation_deviation: float


@dataclass(frozen=True)
class FkComparison:
    equal: bool
    worst_deviation: float  # meters, over all samples and leaves
    worst_rotation: float  # radians
    samples: tuple[FkSample, ...] = ()


def _sample_range(joint: Joint) -> tuple[float, float]:
    limit = joint.limit
    if (joint.kind is not JointKind.CONTINUOUS and limit is not None
            and limit.lower is not None and limit.upper is not None):
        return limit.lower, limit.upper
    if joint.kind in ROTATIONAL:
        return -math.pi, math.pi
    return -1.0, 1.0


def _rotation_angle(ra: np.ndarray, rb: np.ndarray) -> float:
    cos = (np.trace(ra.T @ rb) - 1.0) / 2.0
    return math.acos(min(1.0, max(-1.0, cos)))


def fk_equivalent(tree_a: KinematicTree, model_a: RobotModel,
                  tree_b: KinematicTree, model_b: RobotModel,
                  samples: int = 16, seed: int = 0, tol: float = 1e-6) -> FkComparison:
    """Compare two mechanisms by sampled forward kinematics.

    Joints are paired by index (revolute and continuous count as the
    same motion kind); leaf frames are paired by tree position.  Each
    sampled value is uniform over the intersection of the two joints'
    ranges.  Equal iff every sampled leaf frame agrees within ``tol``
    in translation and in rotation angle.  Deterministic given
    (samples, seed) and symmetric in the two models.
    """
    if len(tree_a.actuated) != len(tree_b.actuated):
        raise Incomparable("joint_count",
                           f"{len(tree_a.actuated)} vs {len(tree_b.actuated)} actuated joints")
    for ja, jb in zip(tree_a.actuated, tree_b.actuated):
        rot_a, rot_b = ja.kind in ROTATIONAL, jb.kind in ROTATIONAL
        if rot_a != rot_b:
            raise Incomparable("joint_kinds",
                               f"joint {ja.name!r} is {ja.type_name}, {jb.name!r} is {jb.type_name}")
    leaves_a, leaves_b = tree_a.leaves(), tree_b.leaves()
    if len(leaves_a) != len(leaves_b):
        raise Incomparable("leaf_count", f"{len(leaves_a)} vs {len(leaves_b)} leaf links")

    ranges = []
    for ja, jb in zip(tree_a.actuated, tree_b.actuated):
        (lo_a, hi_a), (lo_b, hi_b) = _sample_range(ja), _sample_range(jb)
        lo, hi = max(lo_a, lo_b), min(hi_a, hi_b)
        if lo > hi:  # disjoint declared ranges; fall back to the midpoint between them
            lo = hi = (lo + hi) / 2.0
        ranges.append((lo, hi))

    rng = np.random.default_rng(seed)
    worst_t = 0.0
    worst_r = 0.0
    details: list[FkSample] = []
    for _ in range(max(1, samples)):
        q = tuple(rng.uniform(lo, hi) if hi > lo else lo for lo, hi in ranges)
        frames_a = forward_kinematics(tree_a, model_a, q)
        frames_b = forward_kinematics(tree_b, model_b, q)
        dev_t = 0.0
        dev_r = 0.0
        for la, lb in zip(leaves_a, leaves_b):
            fa, fb = frames_a[la], frames_b[lb]
            dev_t = max(dev_t, float(np.linalg.norm(fa.translation - fb.translation)))
            dev_r = max(dev_r, _rotation_angle(fa.rotation, fb.rotation))
        details.append(FkSample(q, dev_t, dev_r))
        worst_t = max(worst_t, dev_t)
        worst_r = max(worst_r, dev_r)

    return FkComparison(equal=worst_t <= tol and worst_r <= tol,
                        worst_deviation=worst_t, worst_rotation=worst_r,
                        samples=tuple(details))
