import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.spatial.transform import Rotation

from urdf_inspect.kinematics import (
    Incomparable,
    JointConfig,
    TreeError,
    UnsupportedJoint,
    _rotation_angle,
    build_tree,
    fk_equivalent,
    forward_kinematics,
)
from urdf_inspect.model import parse_urdf

from oracles import chain_fk, hom, oracle_fk_deviation, pose_matrix, rotation_angle


def chain_urdf(joints, name="chain"):
    """Serial-chain URDF from (kind, xyz, rpy, axis) tuples."""
    parts = [f'<robot name="{name}">', '<link name="link0"/>']
    for i, (kind, xyz, rpy, axis) in enumerate(joints, start=1):
        parts.append(f'<link name="link{i}"/>')
        limit = '<limit effort="10" velocity="1"/>' if kind in ("revolute", "prismatic") else ""
        parts.append(
            f'<joint name="joint{i}" type="{kind}">'
            f'<parent link="link{i-1}"/><child link="link{i}"/>'
            f'<origin xyz="{xyz[0]} {xyz[1]} {xyz[2]}" rpy="{rpy[0]} {rpy[1]} {rpy[2]}"/>'
            f'<axis xyz="{axis[0]} {axis[1]} {axis[2]}"/>'
            f"{limit}</joint>"
        )
    parts.append("</robot>")
    return "\n".join(parts)


def random_chain(rng, max_joints=8):
    n = rng.randint(1, max_joints)
    joints = []
    for _ in range(n):
        kind = rng.choice(["revolute", "prismatic", "fixed"])
        xyz = tuple(rng.uniform(-1, 1) for _ in range(3))
        rpy = tuple(rng.uniform(-math.pi, math.pi) for _ in range(3))
        axis = tuple(rng.uniform(-1, 1) for _ in range(3))
        while all(abs(a) < 1e-3 for a in axis):
            axis = tuple(rng.uniform(-1, 1) for _ in range(3))
        joints.append((kind, xyz, rpy, axis))
    return joints


def tree_urdf(joints, link_order=None, joint_order=None, limits=None):
    """URDF of a tree whose joint i (name, kind, parent index, xyz, rpy, axis)
    hangs link l{i+1} off link l{parent}; the orders permute the declarations.
    A revolute or prismatic joint i has the limits ``limits[i]``, (-1, 2) by default."""
    links = [f'<link name="l{i}"/>' for i in range(len(joints) + 1)]
    limits = limits or [(-1, 2)] * len(joints)
    parts = []
    for i, (name, kind, parent, xyz, rpy, axis) in enumerate(joints, start=1):
        lo, hi = limits[i - 1]
        limit = f'<limit lower="{lo}" upper="{hi}" effort="10" velocity="1"/>' \
            if kind in ("revolute", "prismatic") else ""
        parts.append(
            f'<joint name="{name}" type="{kind}"><parent link="l{parent}"/><child link="l{i}"/>'
            f'<origin xyz="{xyz[0]} {xyz[1]} {xyz[2]}" rpy="{rpy[0]} {rpy[1]} {rpy[2]}"/>'
            f'<axis xyz="{axis[0]} {axis[1]} {axis[2]}"/>{limit}</joint>')
    link_order = range(len(links)) if link_order is None else link_order
    joint_order = range(len(parts)) if joint_order is None else joint_order
    return ('<robot name="tree">' + "".join(links[i] for i in link_order)
            + "".join(parts[i] for i in joint_order) + "</robot>")


# Siblings a_* and b_* under l0 and l1, declared b before a.
BRANCHING = [("b_root", "revolute", 0, (0.1, 0, 0.2), (0, 0.3, 0), (0, 0, 1)),
             ("a_root", "prismatic", 0, (-0.2, 0.1, 0), (0.2, 0, 0), (1, 0, 0)),
             ("b_mid", "continuous", 1, (0, 0.3, 0.1), (0, 0, 0.4), (0, 1, 0)),
             ("a_mid", "fixed", 1, (0.05, 0, 0.3), (0.1, 0, 0), (1, 0, 0)),
             ("tip", "revolute", 4, (0, 0, 0.25), (0, 0, 0), (1, 1, 0))]


class TestBuildTree:
    def test_listing1_chain(self, listing1):
        tree = build_tree(parse_urdf(listing1))
        assert tree.root == "base link"
        assert tree.children["base link"][0][1] == "link 1"
        assert tree.children["link 1"][0][1] == "link 2"
        assert tree.leaves() == ["link 2"]
        assert [j.name for j in tree.actuated] == ["joint 1", "joint 2"]

    def test_single_link(self):
        tree = build_tree(parse_urdf('<robot name="r"><link name="only"/></robot>'))
        assert tree.root == "only"
        assert tree.actuated == ()

    def test_cycle_rejected(self):
        text = ('<robot name="r"><link name="a"/><link name="b"/>'
                '<joint name="j1" type="fixed"><parent link="a"/><child link="b"/></joint>'
                '<joint name="j2" type="fixed"><parent link="b"/><child link="a"/></joint>'
                "</robot>")
        with pytest.raises(TreeError) as info:
            build_tree(parse_urdf(text))
        assert info.value.reason == "cycle"

    def test_multiple_roots_rejected(self):
        with pytest.raises(TreeError) as info:
            build_tree(parse_urdf('<robot name="r"><link name="a"/><link name="b"/></robot>'))
        assert info.value.reason == "multiple_roots"

    def test_branching_order_is_preorder_by_joint_name(self):
        tree = build_tree(parse_urdf(tree_urdf(BRANCHING)))
        assert [j.name for j in tree.joints] == ["a_root", "b_root", "a_mid", "tip", "b_mid"]
        assert [j.name for j in tree.actuated] == ["a_root", "b_root", "tip", "b_mid"]
        assert tree.leaves() == ["l2", "l5", "l3"]

    def test_joint_naming_an_undeclared_link_rejected(self):
        text = ('<robot name="r"><link name="a"/>'
                '<joint name="j" type="fixed"><parent link="a"/><child link="ghost"/></joint>'
                "</robot>")
        with pytest.raises(TreeError) as info:
            build_tree(parse_urdf(text))
        assert (info.value.reason, str(info.value)) == (
            "disconnected", "joint 'j' references an undeclared link")

    def test_zero_axis_rejected(self):
        text = chain_urdf([("revolute", (0, 0, 1), (0, 0, 0), (0, 0, 0))])
        with pytest.raises(TreeError) as info:
            build_tree(parse_urdf(text))
        assert info.value.reason == "zero_axis"


class TestForwardKinematics:
    def test_listing1_zero_configuration(self, listing1):
        model = parse_urdf(listing1)
        frames = forward_kinematics(build_tree(model), model, JointConfig((0.0, 0.0)))
        link1 = frames["link 1"]
        assert np.allclose(link1.translation, [0.0, 0.0, 0.5], atol=1e-12)
        assert np.allclose(link1.rotation, np.eye(3), atol=1e-12)

    def test_quarter_turn_places_leaf(self):
        # derived with the homogeneous-matrix oracle: (0.5, 0, 0.5)
        model = parse_urdf(chain_urdf([
            ("continuous", (0, 0, 0.5), (0, 0, 0), (0, 1, 0)),
            ("continuous", (0, 0, 0.5), (0, 0, 0), (0, 1, 0)),
        ]))
        frames = forward_kinematics(build_tree(model), model, (math.pi / 2, 0.0))
        assert np.allclose(frames["link2"].translation, [0.5, 0.0, 0.5], atol=1e-12)

    def test_fixed_chain_with_zero_origins_stays_identity(self):
        model = parse_urdf(chain_urdf([("fixed", (0, 0, 0), (0, 0, 0), (1, 0, 0))] * 4))
        frames = forward_kinematics(build_tree(model), model, ())
        for frame in frames.values():
            assert np.allclose(frame.rotation, np.eye(3), atol=1e-15)
            assert np.allclose(frame.translation, 0.0, atol=1e-15)

    def test_prismatic_translates_along_axis(self):
        model = parse_urdf(chain_urdf([("prismatic", (0, 0, 0), (0, 0, 0), (0, 0, 2))]))
        frames = forward_kinematics(build_tree(model), model, (0.75,))
        assert np.allclose(frames["link1"].translation, [0.0, 0.0, 0.75])

    def test_root_frame_is_identity(self, listing1):
        model = parse_urdf(listing1)
        root = forward_kinematics(build_tree(model), model, (0.3, -0.2))["base link"]
        assert np.allclose(root.rotation, np.eye(3))
        assert np.allclose(root.translation, 0.0)

    def test_floating_joint_unsupported(self):
        model = parse_urdf(chain_urdf([("floating", (0, 0, 0), (0, 0, 0), (1, 0, 0))]))
        with pytest.raises(UnsupportedJoint):
            forward_kinematics(build_tree(model), model, ())

    def test_wrong_configuration_length(self, listing1):
        model = parse_urdf(listing1)
        with pytest.raises(ValueError):
            forward_kinematics(build_tree(model), model, (0.0,))

    def test_matches_homogeneous_oracle_on_random_chains(self):
        rng = random.Random(20240915)
        for _ in range(60):
            joints = random_chain(rng)
            model = parse_urdf(chain_urdf(joints))
            tree = build_tree(model)
            q = [rng.uniform(-math.pi, math.pi) for _ in tree.actuated]
            frames = forward_kinematics(tree, model, q)
            expected = chain_fk(joints, q)
            for i, T in enumerate(expected, start=1):
                got = frames[f"link{i}"]
                assert np.linalg.norm(got.translation - T[:3, 3]) < 1e-9
                assert rotation_angle(got.rotation, T[:3, :3]) < 1e-9

    def test_rotations_stay_orthonormal(self):
        rng = random.Random(7)
        for _ in range(20):
            joints = random_chain(rng)
            model = parse_urdf(chain_urdf(joints))
            tree = build_tree(model)
            q = [rng.uniform(-math.pi, math.pi) for _ in tree.actuated]
            for frame in forward_kinematics(tree, model, q).values():
                R = frame.rotation
                assert np.allclose(R.T @ R, np.eye(3), atol=1e-12)
                assert abs(np.linalg.det(R) - 1.0) < 1e-12

    def test_zero_configuration_locality(self):
        rng = random.Random(99)
        joints = random_chain(rng)
        model = parse_urdf(chain_urdf(joints))
        tree = build_tree(model)
        frames = forward_kinematics(tree, model, [0.0] * len(tree.actuated))
        for name, edges in tree.children.items():
            parent = hom(frames[name].rotation, frames[name].translation)
            for joint, child in edges:
                expected = parent @ pose_matrix(joint.origin.xyz, joint.origin.rpy)
                got = hom(frames[child].rotation, frames[child].translation)
                assert np.allclose(got, expected, atol=1e-12)


class TestFkEquivalent:
    BASE = [("continuous", (0, 0, 0.5), (0, 0, 0), (0, 1, 0)),
            ("continuous", (0, 0, 0.5), (0, 0, 0), (0, 1, 0))]

    def _pair(self, joints_a, joints_b):
        return (build_tree(parse_urdf(chain_urdf(joints_a, name="a"))),
                build_tree(parse_urdf(chain_urdf(joints_b, name="b"))))

    def test_model_equals_itself(self):
        ta, tb = self._pair(self.BASE, self.BASE)
        outcome = fk_equivalent(ta, tb)
        assert outcome.equal
        assert outcome.worst_deviation == 0.0

    def test_shifted_origin_detected(self):
        shifted = [("continuous", (0, 0, 0.6), (0, 0, 0), (0, 1, 0)), self.BASE[1]]
        ta, tb = self._pair(self.BASE, shifted)
        outcome = fk_equivalent(ta, tb)
        assert not outcome.equal
        assert outcome.worst_deviation >= 0.1 - 1e-12

    def test_joint_count_mismatch(self):
        ta, tb = self._pair(self.BASE, self.BASE + [self.BASE[0]])
        with pytest.raises(Incomparable) as info:
            fk_equivalent(ta, tb)
        assert info.value.reason == "joint_count"

    def test_joint_kind_mismatch(self):
        prismatic = [("prismatic", (0, 0, 0.5), (0, 0, 0), (0, 1, 0)), self.BASE[1]]
        ta, tb = self._pair(self.BASE, prismatic)
        with pytest.raises(Incomparable) as info:
            fk_equivalent(ta, tb)
        assert info.value.reason == "joint_kinds"

    def test_leaf_count_mismatch(self):
        chain = [("j1", "revolute", 0, (0, 0, 0.5), (0, 0, 0), (0, 1, 0)),
                 ("j2", "fixed", 1, (0, 0, 0.5), (0, 0, 0), (1, 0, 0))]
        fork = [chain[0], ("j2", "fixed", 0, (0, 0, 0.5), (0, 0, 0), (1, 0, 0))]
        ta, tb = (build_tree(parse_urdf(tree_urdf(joints))) for joints in (chain, fork))
        with pytest.raises(Incomparable) as info:
            fk_equivalent(ta, tb)
        assert (info.value.reason, str(info.value)) == ("leaf_count", "1 vs 2 leaf links")

    def test_revolute_and_continuous_pair_up(self):
        revolute = [("revolute", (0, 0, 0.5), (0, 0, 0), (0, 1, 0)), self.BASE[1]]
        ta, tb = self._pair(self.BASE, revolute)
        assert isinstance(fk_equivalent(ta, tb).equal, bool)

    def test_symmetric_and_deterministic(self):
        shifted = [("continuous", (0, 0.2, 0.5), (0, 0.1, 0), (0, 1, 0)), self.BASE[1]]
        ta, tb = self._pair(self.BASE, shifted)
        forward = fk_equivalent(ta, tb)
        backward = fk_equivalent(tb, ta)
        again = fk_equivalent(ta, tb)
        assert forward.worst_deviation == backward.worst_deviation == again.worst_deviation
        assert forward.equal == backward.equal
        assert forward.samples == again.samples
        assert len(forward.samples) == 16

    def test_sampling_respects_limits(self):
        limited = """<robot name="a"><link name="l0"/><link name="l1"/>
            <joint name="j" type="revolute"><parent link="l0"/><child link="l1"/>
            <axis xyz="0 0 1"/><limit lower="0.25" upper="0.5" effort="1" velocity="1"/></joint>
            </robot>"""
        model = parse_urdf(limited)
        tree = build_tree(model)
        outcome = fk_equivalent(tree, tree)
        assert outcome.equal
        assert len(outcome.samples) == 16
        for config in outcome.samples:
            assert 0.25 <= config[0] <= 0.5

    def test_prismatic_limit_without_bounds_samples_one_meter_each_way(self):
        unbounded = [("prismatic", (0, 0, 0.5), (0, 0, 0), (0, 0, 1))]  # <limit> without bounds
        tree = build_tree(parse_urdf(chain_urdf(unbounded)))
        assert tree.actuated[0].limit.lower is None and tree.actuated[0].limit.upper is None
        outcome = fk_equivalent(tree, tree)
        assert outcome.equal
        values = [config[0] for config in outcome.samples]
        assert -1.0 <= min(values) < 0 < max(values) <= 1.0  # both ways, not one point
        bounded = build_tree(parse_urdf(tree_urdf(
            [("j", "prismatic", 0, (0, 0, 0.5), (0, 0, 0), (0, 0, 1))], limits=[(-3, 0.5)])))
        assert all(-1.0 <= config[0] <= 0.5 for config in fk_equivalent(tree, bounded).samples)


NUMBER = st.floats(-2.0, 2.0, allow_nan=False).map(lambda x: round(x, 3))
TRIPLE = st.tuples(NUMBER, NUMBER, NUMBER)
AXIS = TRIPLE.filter(lambda a: max(map(abs, a)) > 0.1)
KIND = st.sampled_from(["revolute", "continuous", "prismatic", "fixed"])


@st.composite
def shuffled_trees(draw):
    """A random tree of 2-12 links and the orders to declare it in."""
    count = draw(st.integers(1, 11))
    names = draw(st.permutations([f"j{i:02d}" for i in range(count)]))
    joints = [(names[i], draw(KIND), draw(st.integers(0, i)), draw(TRIPLE), draw(TRIPLE),
               draw(AXIS)) for i in range(count)]
    return joints, draw(st.permutations(range(count + 1))), draw(st.permutations(range(count)))


# A serial chain with its links and joints declared in reverse order.
REVERSED_CHAIN = ([("j1", "revolute", 0, (0, 0, 0.3), (0, 0, 0), (0, 1, 0)),
                   ("j2", "revolute", 1, (0, 0, 0.4), (0.5, 0, 0), (0, 1, 0)),
                   ("j3", "revolute", 2, (0.1, 0, 0.3), (0, 0, 0), (1, 0, 0))],
                  [3, 2, 1, 0], [2, 1, 0])


class TestDeclarationOrder:
    @given(shuffled_trees())
    @example(REVERSED_CHAIN)
    @example((BRANCHING, [5, 4, 3, 2, 1, 0], [3, 2, 4, 0, 1]))
    @settings(deadline=None)
    def test_shuffled_declarations_compare_exactly_equal(self, spec):
        joints, link_order, joint_order = spec
        ma = parse_urdf(tree_urdf(joints))
        mb = parse_urdf(tree_urdf(joints, link_order, joint_order))
        outcome = fk_equivalent(build_tree(ma), build_tree(mb))
        assert outcome.equal
        assert outcome.worst_deviation == 0.0
        assert outcome.worst_rotation == 0.0


class TestRotationAngle:
    def test_self_comparison_is_exact(self):
        # the trace form read 4.2e-8 rad here, failing tol=1e-9
        model = parse_urdf(chain_urdf([("revolute", (0, 0, 0.5), (0, 0, 0), (1, 1, 0))]))
        tree = build_tree(model)
        outcome = fk_equivalent(tree, tree, tol=1e-9)
        assert outcome.equal
        assert outcome.worst_rotation == 0.0

    def test_matches_oracle_below_three_radians(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            ra = Rotation.random(random_state=rng).as_matrix()
            axis = rng.normal(size=3)
            angle = rng.uniform(0.0, 3.0)
            rb = ra @ Rotation.from_rotvec(angle * axis / np.linalg.norm(axis)).as_matrix()
            flat_a, flat_b = tuple(ra.ravel()), tuple(rb.ravel())
            assert abs(_rotation_angle(flat_a, flat_b) - rotation_angle(ra, rb)) < 1e-9
            assert _rotation_angle(flat_a, flat_b) == _rotation_angle(flat_b, flat_a)


LIMIT = st.tuples(NUMBER, NUMBER).map(sorted)  # lo == hi included
POSE = st.tuples(TRIPLE, TRIPLE, AXIS)  # origin xyz, origin rpy, axis


@st.composite
def fk_pairs(draw):
    """One random tree declared twice, each copy with its own joint limits
    and revolute/continuous choice.  The second copy is the same mechanism,
    or has one joint's origin shifted or its roll turned by at least 0.01,
    or has every joint's pose drawn afresh."""
    count = draw(st.integers(1, 8))
    kinds = [draw(KIND) for _ in range(count)]
    parents = [draw(st.integers(0, i)) for i in range(count)]
    poses = [draw(POSE) for _ in range(count)]
    swap = {"revolute": "continuous", "continuous": "revolute"}
    kinds_b = [swap.get(kind, kind) if draw(st.booleans()) else kind for kind in kinds]
    limits = [[draw(LIMIT) for _ in range(count)] for _ in "ab"]
    change = draw(st.none()
                  | st.tuples(st.sampled_from(["xyz", "roll"]), st.integers(0, count - 1),
                              st.floats(0.01, 0.5))
                  | st.tuples(st.just("poses"), st.lists(POSE, min_size=count, max_size=count)))
    return kinds, kinds_b, parents, poses, limits, change


def _fk_pair_models(spec):
    kinds, kinds_b, parents, poses, (limits_a, limits_b), change = spec
    poses_b = list(poses)
    if change is not None and change[0] == "poses":
        poses_b = change[1]
    elif change is not None:
        what, index, amount = change
        xyz, rpy, axis = poses_b[index]
        if what == "xyz":
            xyz = (xyz[0] + amount, xyz[1], xyz[2])
        else:
            rpy = (rpy[0] + amount, rpy[1], rpy[2])
        poses_b[index] = (xyz, rpy, axis)
    joints_a = [(f"j{i}", kind, parent, *pose)
                for i, (kind, parent, pose) in enumerate(zip(kinds, parents, poses))]
    joints_b = [(f"j{i}", kind, parent, *pose)
                for i, (kind, parent, pose) in enumerate(zip(kinds_b, parents, poses_b))]
    return (parse_urdf(tree_urdf(joints_a, limits=limits_a)),
            parse_urdf(tree_urdf(joints_b, limits=limits_b)))


# A revolute chain whose first joint's ranges are disjoint and whose second is a point.
DEGENERATE_RANGES = (["revolute", "revolute"], ["revolute", "continuous"], [0, 1],
                     [((0, 0, 0.3), (0.2, 0, 0), (0, 1, 0)), ((0.1, 0, 0.3), (0, 0.4, 0), (1, 0, 0))],
                     [[(-1.0, -0.5), (0.3, 0.3)], [(0.5, 1.0), (-2.0, 2.0)]], None)


def agree(got: float, want: float) -> bool:
    """Within 1e-9, or both nan."""
    return abs(got - want) <= 1e-9 or (math.isnan(got) and math.isnan(want))


class TestFkDifferential:
    @given(fk_pairs())
    @example(DEGENERATE_RANGES)
    @example(DEGENERATE_RANGES[:5] + (("roll", 1, 0.01),))
    @example(DEGENERATE_RANGES[:5] + (("poses", [((0, 0, 0.3), (0, 0, 0), (0, 1, 0))] * 2),))
    @settings(deadline=None)
    def test_matches_numpy_oracle_at_the_sampled_configurations(self, spec):
        ma, mb = _fk_pair_models(spec)
        ta, tb = build_tree(ma), build_tree(mb)
        result = fk_equivalent(ta, tb)
        worst_t, worst_r = oracle_fk_deviation(ta, tb, result.samples)
        assert agree(result.worst_deviation, worst_t)
        assert agree(result.worst_rotation, worst_r)
        assert result.equal == (worst_t <= 1e-6 and worst_r <= 1e-6)
        change = spec[-1]
        if change is None or change[0] != "poses":  # a shift or turn of 0.01 always shows
            assert result.equal == (change is None)

    def test_disjoint_ranges_sample_the_midpoint(self):
        ma, mb = _fk_pair_models(DEGENERATE_RANGES)
        result = fk_equivalent(build_tree(ma), build_tree(mb))
        assert result.samples == ((0.0, 0.3),) * 16

    def test_non_finite_origin_never_compares_equal(self):
        ma = parse_urdf(chain_urdf([("revolute", (0, 0, 0.5), (0, 0, 0), (0, 1, 0))]))
        mb = parse_urdf(chain_urdf([("revolute", (0, 0, "nan"), (0, 0, 0), (0, 1, 0))]))
        result = fk_equivalent(build_tree(ma), build_tree(mb))
        assert not result.equal
        assert math.isnan(result.worst_deviation)

    @pytest.mark.parametrize("rpy", [("nan", 0, 0), (0, "inf", 0), (0, 0, "-inf")])
    def test_non_finite_rpy_never_compares_equal(self, rpy):
        ma = parse_urdf(chain_urdf([("revolute", (0, 0, 0.5), (0, 0, 0), (0, 1, 0))]))
        mb = parse_urdf(chain_urdf([("revolute", (0, 0, 0.5), rpy, (0, 1, 0))]))
        result = fk_equivalent(build_tree(ma), build_tree(mb))
        assert not result.equal
        assert math.isnan(result.worst_rotation)

    @pytest.mark.parametrize("bounds", [("inf", "inf"), ("-inf", "-inf")])
    def test_infinite_limits_never_compare_equal(self, bounds):
        # the disjoint ranges fall back to an infinite midpoint angle
        joints = [("j0", "revolute", 0, (0, 0, 0.3), (0, 0, 0), (0, 1, 0)),
                  ("j1", "fixed", 1, (0.2, 0, 0.1), (0, 0, 0), (1, 0, 0))]
        ma = parse_urdf(tree_urdf(joints, limits=[bounds, (-1, 2)]))
        mb = parse_urdf(tree_urdf(joints))
        ta, tb = build_tree(ma), build_tree(mb)
        for result in fk_equivalent(ta, tb), fk_equivalent(tb, ta):
            assert not result.equal
            assert math.isnan(result.worst_deviation)
            assert math.isnan(result.worst_rotation)
            with np.errstate(invalid="ignore"):  # numpy warns of sin(inf)
                worst_t, worst_r = oracle_fk_deviation(ta, tb, result.samples)
            assert agree(result.worst_deviation, worst_t)
            assert agree(result.worst_rotation, worst_r)
