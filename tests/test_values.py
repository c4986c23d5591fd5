"""The exported value types: immutable, and each with the repr it has always had."""

from pathlib import Path

import numpy as np
import pytest

import urdf_inspect
from urdf_inspect import (Box, BundleRecord, Collision, ContactMarkers, Cylinder, Diagnostic,
                          DiscrepancyReport, DuplicateGroup, FkComparison, Inertial, Joint,
                          JointConfig, JointKind, JointLimit, KinematicTree, Link, Material, Mesh,
                          MeshInventory, ParseNotice, Pose, ReportTable, RobotModel, Sphere,
                          Transform, ValidationResult, Visual)

POSE0 = "Pose(xyz=(0.0, 0.0, 0.0), rpy=(0.0, 0.0, 0.0))"
LINK = "Link(name='base', inertial=None, visuals=(), collisions=(), line=0, column=0)"
PATH, MESH = repr(Path("urdf/r.urdf")), repr(Path("s1/a.stl"))  # PosixPath or WindowsPath

VALUES = [
    (Pose((1.0, 2.0, 3.0), (0.0, 0.0, 0.5)), "Pose(xyz=(1.0, 2.0, 3.0), rpy=(0.0, 0.0, 0.5))"),
    (Box((1.0, 2.0, 3.0)), "Box(size=(1.0, 2.0, 3.0))"),
    (Cylinder(0.5, 2.0), "Cylinder(radius=0.5, length=2.0)"),
    (Sphere(0.25), "Sphere(radius=0.25)"),
    (Mesh("package://r/m.stl"), "Mesh(uri='package://r/m.stl', scale=(1.0, 1.0, 1.0))"),
    (Inertial(Pose(), 1.5, (1.0, 0.0, 0.0, 1.0, 0.0, 1.0)),
     f"Inertial(origin={POSE0}, mass=1.5, inertia=(1.0, 0.0, 0.0, 1.0, 0.0, 1.0))"),
    (Visual(Pose(), Sphere(1.0), "red", 3, 2),
     f"Visual(origin={POSE0}, geometry=Sphere(radius=1.0), material_name='red', line=3, "
     "column=2)"),
    (Collision(Pose(), Box((1.0, 1.0, 1.0))),
     f"Collision(origin={POSE0}, geometry=Box(size=(1.0, 1.0, 1.0)))"),
    (Link("base"), LINK),
    (JointLimit(-1.0, 1.0), "JointLimit(lower=-1.0, upper=1.0, effort=None, velocity=None)"),
    (Joint("j", JointKind.REVOLUTE, "revolute", "base", "tip",
           limit=JointLimit(effort=10.0, velocity=1.0), line=5),
     "Joint(name='j', kind=<JointKind.REVOLUTE: 'revolute'>, type_name='revolute', "
     f"parent='base', child='tip', origin={POSE0}, axis=(1.0, 0.0, 0.0), "
     "limit=JointLimit(lower=None, upper=None, effort=10.0, velocity=1.0), line=5, column=0)"),
    (Material("red", (1.0, 0.0, 0.0, 1.0)),
     "Material(name='red', color_rgba=(1.0, 0.0, 0.0, 1.0), texture=None)"),
    (ParseNotice("robot", "unknown attribute 'x' on <robot>", 1, 0),
     "ParseNotice(subject='robot', message=\"unknown attribute 'x' on <robot>\", line=1, "
     "column=0)"),
    (RobotModel("r", (Link("base"),), ()),
     f"RobotModel(name='r', links=({LINK},), joints=(), materials=(), notices=(), line=0, "
     "column=0)"),
    (Transform(np.eye(3), np.zeros(3)),
     "Transform(rotation=array([[1., 0., 0.],\n       [0., 1., 0.],\n       [0., 0., 1.]]), "
     "translation=array([0., 0., 0.]))"),
    (KinematicTree("base", {"base": ()}, (), ()),
     "KinematicTree(root='base', children={'base': ()}, actuated=(), joints=())"),
    (JointConfig((0.5, -0.5)), "JointConfig(values=(0.5, -0.5))"),
    (FkComparison(True, 0.0, 0.0),
     "FkComparison(equal=True, worst_deviation=0.0, worst_rotation=0.0, samples=())"),
    (BundleRecord("r1", "r", "arm", "Acme", "s1", "https://example.org/s1", Path("urdf/r.urdf"),
                  False, Path("s1")),
     "BundleRecord(id='r1', robot_name='r', robot_type='arm', manufacturer='Acme', "
     f"source_name='s1', source_url='https://example.org/s1', urdf_path={PATH}, "
     f"xacro_generated_by_dataset=False, root_dir={Path('s1')!r}, notices=(), name='')"),
    (MeshInventory({"stl": 2}, {}), "MeshInventory(visual={'stl': 2}, collision={})"),
    (ContactMarkers(True, False, True), "ContactMarkers(author=True, at_sign=False, dot_com=True)"),
    (DiscrepancyReport(("s1", "s2"), False, True, False, None, True),
     "DiscrepancyReport(sources=('s1', 's2'), diff_joints=False, diff_links=True, "
     "diff_cad_types=False, diff_fk=None, diff_lines=True)"),
    (DuplicateGroup((Path("s1/a.stl"),), 3, "abc"),
     f"DuplicateGroup(members=({MESH},), size=3, digest='abc')"),
    (ReportTable("t", ("a", "b"), (("x", 1),)),
     "ReportTable(name='t', columns=('a', 'b'), rows=(('x', 1),))"),
    (Diagnostic("error", "A", "j", "no limit", 4, 2),
     "Diagnostic(severity='error', code='A', subject='j', message='no limit', line=4, column=2)"),
    (ValidationResult(None, [Diagnostic("error", "F", "document", "bad", 1, 0)]),
     "ValidationResult(model=None, diagnostics=[Diagnostic(severity='error', code='F', "
     "subject='document', message='bad', line=1, column=0)])"),
]


def test_every_exported_value_type_is_pinned():
    exported = {t for t in vars(urdf_inspect).values() if isinstance(t, type) and
                issubclass(t, tuple)}
    assert exported == {type(value) for value, _ in VALUES}


@pytest.mark.parametrize("value, text", VALUES, ids=[type(v).__name__ for v, _ in VALUES])
def test_value_is_immutable_with_its_repr(value, text):
    assert repr(value) == text
    field = type(value)._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        value.extra = None
