"""Independent reference implementations used to check the main code paths.

These deliberately take different routes: forward kinematics goes
through scipy rotations and 4x4 homogeneous matrices, the sampled FK
comparison evaluates numpy stacks of (3, 3) matrices, duplicate
grouping is a pairwise O(n^2) comparison with its own byte-level
normalizer, line counting is a split-free scanner, discrepancy flags
compare every cross-source pair of members, the joint-graph verdict
asks of every link what it reaches, the per-bundle corpus tables are
built from full models parsed afresh, and URDF parsing builds a tree of
the whole document before it walks that tree.
"""

from __future__ import annotations

import math
import re
from pathlib import Path
from xml.parsers import expat

import numpy as np
from scipy.spatial.transform import Rotation

from urdf_inspect.model import (DEFAULT_AXIS, ZERO3, Box, Collision, Cylinder, Geometry,
                                Inertial, Joint, JointKind, JointLimit, Link, Material, Mesh,
                                ParseFailure, ParseNotice, Pose, RobotModel, Sphere, Visual)

MOVING = ("revolute", "continuous", "prismatic")


def hom(rotation: np.ndarray, translation) -> np.ndarray:
    T = np.eye(4)
    T[:3, :3] = rotation
    T[:3, 3] = translation
    return T


def pose_matrix(xyz, rpy) -> np.ndarray:
    return hom(Rotation.from_euler("xyz", rpy).as_matrix(), xyz)


def motion_matrix(kind: str, axis, value: float) -> np.ndarray:
    if kind not in MOVING:
        return np.eye(4)
    unit = np.asarray(axis, dtype=float)
    unit = unit / np.linalg.norm(unit)
    if kind == "prismatic":
        return hom(np.eye(3), unit * value)
    return hom(Rotation.from_rotvec(unit * value).as_matrix(), np.zeros(3))


def chain_fk(joints: list[tuple[str, tuple, tuple, tuple]], q) -> list[np.ndarray]:
    """Frames after each joint of a serial chain rooted at the identity.

    ``joints`` holds (kind, origin_xyz, origin_rpy, axis) tuples; ``q``
    supplies one value per moving joint, in chain order.
    """
    frames = []
    T = np.eye(4)
    values = iter(q)
    for kind, xyz, rpy, axis in joints:
        value = next(values) if kind in MOVING else 0.0
        T = T @ pose_matrix(xyz, rpy) @ motion_matrix(kind, axis, value)
        frames.append(T.copy())
    return frames


def rotation_angle(ra: np.ndarray, rb: np.ndarray) -> float:
    return float(np.linalg.norm(Rotation.from_matrix(ra.T @ rb).as_rotvec()))


def _rpy_matrix(rpy) -> np.ndarray:
    roll, pitch, yaw = rpy
    cr, sr = math.cos(roll), math.sin(roll)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cy, sy = math.cos(yaw), math.sin(yaw)
    rx = np.array([[1, 0, 0], [0, cr, -sr], [0, sr, cr]])
    ry = np.array([[cp, 0, sp], [0, 1, 0], [-sp, 0, cp]])
    rz = np.array([[cy, -sy, 0], [sy, cy, 0], [0, 0, 1]])
    return rz @ ry @ rx


def oracle_frames(tree, q: np.ndarray) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Rotation (S, 3, 3) and translation (S, 3) of every link, where row s
    of ``q`` (S, len(tree.actuated)) is one configuration of ``tree.actuated``."""
    from urdf_inspect.kinematics import SCALAR_KINDS, UnsupportedJoint
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


def oracle_rotation_angle(ra: np.ndarray, rb: np.ndarray) -> np.ndarray:
    """Angle between rotations (..., 3, 3) from the chord ||ra - rb||_F =
    2 sqrt(2) sin(angle / 2)."""
    chord = np.linalg.norm(ra - rb, axis=(-2, -1)) / (2.0 * math.sqrt(2.0))
    return 2.0 * np.arcsin(np.minimum(1.0, chord))


def oracle_fk_deviation(tree_a, tree_b, configs) -> tuple[float, float]:
    """(worst translation, worst rotation angle) between the paired leaf
    frames of two trees over the sampled configurations ``configs``,
    leaves paired by index in ``leaves()``."""
    q = np.array(configs, dtype=float).reshape(len(configs), len(tree_a.actuated))

    def leaf_frames(tree):  # rotations (S, leaves, 3, 3), translations (S, leaves, 3)
        frames = oracle_frames(tree, q)
        return [np.stack(part, axis=1) for part in zip(*(frames[leaf] for leaf in tree.leaves()))]

    rot_a, trans_a = leaf_frames(tree_a)
    rot_b, trans_b = leaf_frames(tree_b)
    return (float(np.linalg.norm(trans_a - trans_b, axis=-1).max()),
            float(oracle_rotation_angle(rot_a, rot_b).max()))


# --------------------------------------------------------------------------
# Duplicate detection.
# --------------------------------------------------------------------------

_TEXT_EXT = {"urdf", "xacro", "dae", "obj", "mtl", "xml", "json", "txt", "md"}


def _oracle_is_text(path: Path, data: bytes) -> bool:
    ext = path.suffix.lower().lstrip(".")
    if ext in _TEXT_EXT:
        return True
    if ext != "stl":
        return False
    head = data[:1024]
    if b"\x00" in head:
        return False
    return data.startswith((b"solid ", b"solid\t", b"solid\r", b"solid\n")) or data == b"solid"


def oracle_normalize(data: bytes, is_text: bool) -> bytes:
    if not is_text:
        return data
    out = bytearray()
    i = 0
    n = len(data)
    while i < n:
        byte = data[i]
        if byte in (0x20, 0x09):
            i += 1
        elif byte == 0x0D:
            out += b"\r\n"
            i += 1
            while i < n and data[i] in (0x20, 0x09):  # dropped first, so CR <tab> LF is one break
                i += 1
            if i < n and data[i] == 0x0A:
                i += 1
        elif byte == 0x0A:
            out += b"\r\n"
            i += 1
        else:
            out.append(byte)
            i += 1
    return bytes(out)


def oracle_content(path) -> bytes:
    """The normalized content of the file at ``path``."""
    data = Path(path).read_bytes()
    return oracle_normalize(data, _oracle_is_text(Path(path), data))


def brute_force_duplicates(paths) -> set[frozenset]:
    """All-pairs grouping by normalized byte equality; groups of >= 2."""
    normalized = {Path(path): oracle_content(path) for path in paths}
    remaining = sorted(normalized, key=str)
    groups = set()
    while remaining:
        first = remaining[0]
        same = [p for p in remaining if normalized[p] == normalized[first]]
        remaining = [p for p in remaining if normalized[p] != normalized[first]]
        if len(same) >= 2:
            groups.add(frozenset(same))
    return groups


# --------------------------------------------------------------------------
# Line counting.
# --------------------------------------------------------------------------


def oracle_line_count(text: str) -> int:
    unified = text.replace("\r\n", "\n").replace("\r", "\n")
    if not unified:
        return 0
    return unified.count("\n") + (0 if unified.endswith("\n") else 1)


# --------------------------------------------------------------------------
# Cross-source discrepancy flags.
# --------------------------------------------------------------------------


def oracle_discrepancy_flags(bundles, fk_tol: float = 1e-6) -> tuple:
    """(joints, links, cad, fk, lines) by the pairwise definition.

    ``bundles`` holds (record, model or None, text or None) triples.
    Every pair of members from distinct sources is compared: lines when
    both texts were read, joints, links and mesh extension sets when
    both models parsed; FK is None for a pair where either member has
    no kinematic tree.  A flag is true iff some pair differs; FK is
    True if some pair differs, else None if some pair was incomparable.
    """
    from urdf_inspect.bundles import mesh_inventory
    from urdf_inspect.kinematics import (Incomparable, TreeError, UnsupportedJoint,
                                         build_tree, fk_equivalent)
    from urdf_inspect.model import line_count

    def tree(model):
        try:
            return build_tree(model) if model is not None else None
        except TreeError:
            return None

    def cad(model):
        inv = mesh_inventory(model)
        return frozenset(inv.visual), frozenset(inv.collision)

    members = sorted(bundles, key=lambda b: (b[0].source_name, b[0].id, str(b[0].urdf_path)))
    flags = dict.fromkeys(("joints", "links", "cad", "lines"), False)
    verdicts = []
    for i, (ra, ma, text_a) in enumerate(members):
        for rb, mb, text_b in members[i + 1:]:
            if ra.source_name == rb.source_name:
                continue
            if text_a is not None and text_b is not None:
                flags["lines"] |= line_count(text_a) != line_count(text_b)
            if ma is not None and mb is not None:
                flags["joints"] |= len(ma.joints) != len(mb.joints)
                flags["links"] |= len(ma.links) != len(mb.links)
                flags["cad"] |= cad(ma) != cad(mb)
            ta, tb = tree(ma), tree(mb)
            if ta is None or tb is None:
                verdicts.append(None)
                continue
            try:
                verdicts.append(not fk_equivalent(ta, tb, tol=fk_tol).equal)
            except (Incomparable, UnsupportedJoint):
                verdicts.append(None)
    fk = True if True in verdicts else None if None in verdicts else False
    return flags["joints"], flags["links"], flags["cad"], fk, flags["lines"]


# --------------------------------------------------------------------------
# Joint-graph verdict.
# --------------------------------------------------------------------------


def oracle_graph_problems(model) -> list[tuple[str, str, str]]:
    """(reason, subject, message) of each way a joint graph is not one
    rooted tree, in kinematic_sanity's order and words.

    Brute force: a link reaches what a path of one or more joints leads
    to, where a joint counts as an edge only when it names two declared
    links; a cycle is a link that reaches itself.  A joint from an
    undeclared link still makes its child no root, and counts toward a
    child of several joints.
    """
    links = [link.name for link in model.links]
    declared = dict.fromkeys(links)  # document order, each name once
    edges = {(j.parent, j.child) for j in model.joints if j.parent in declared and j.child in declared}

    def reach(start: str) -> set[str]:
        seen: set[str] = set()
        frontier = {start}
        while frontier:
            frontier = {child for parent, child in edges if parent in frontier} - seen
            seen |= frontier
        return seen

    child_of = [j.child for j in model.joints]
    roots = sorted(name for name in links if name not in child_of)
    reached = set(roots).union(*(reach(root) for root in roots))
    unreachable = sorted(name for name in declared if name not in reached)
    robot = model.name or "robot"
    problems = []
    if len(roots) > 1:
        problems.append(("multiple_roots", ", ".join(roots), f"{len(roots)} root links (no unique base)"))
    if any(name in reach(name) for name in declared):
        problems.append(("cycle", robot, "joint graph contains a cycle"))
    elif not roots:
        problems.append(("no_root", robot, "joint graph has no root link"))
    if roots and unreachable:
        problems.append(("disconnected", ", ".join(unreachable),
                         f"{len(unreachable)} links unreachable from root"))
    problems += [("shared", name, f"link '{name}' is the child of several joints")
                 for name in sorted(declared) if child_of.count(name) > 1]
    return problems


# --------------------------------------------------------------------------
# Per-bundle corpus tables.
# --------------------------------------------------------------------------


def oracle_bundle_tables(root: Path) -> list:
    """The xacro, mesh_types, contact, name_stats and model_stats tables of
    a corpus, in that order, from every bundle's full model and text.

    Each URDF is read and validated afresh, and every row comes from the
    public per-file functions; nothing is reduced or kept between tables.
    A URDF that cannot be read (missing, unreadable, a directory) gives
    no text, so it counts in no xacro column; one that fails validation
    gives no model.
    """
    from urdf_inspect import bundles, report
    from urdf_inspect.validator import validate

    xacro, meshes, contact, names, sizes = [], [], [], [], []
    for record in bundles.scan_corpus(root):
        try:
            raw = record.urdf_file.read_bytes()
        except OSError:
            raw = None
        text = None if raw is None else raw.decode("utf-8", errors="replace")
        model = None if raw is None else validate(raw).model
        source = record.source_name
        if text is not None:
            xacro.append((source, record.xacro_generated_by_dataset,
                          bundles.detect_xacro_generated(text)))
            contact.append(bundles.contact_markers(text))
        if model is not None:
            meshes.append((source, bundles.mesh_inventory(model)))
            names.append((source, bundles.name_substring_stats(model, bundles.NAME_TERMS)))
            sizes.append((record.robot_type, len(model.links), len(model.joints)))
    return [report.xacro_table(xacro), report.mesh_types_table(meshes),
            report.contact_table(contact), report.name_stats_table(names),
            report.model_stats_table(bundles.model_stats(sizes))]


# --------------------------------------------------------------------------
# URDF parsing, in two passes: XML layer, a minimal position-tracking
# element tree built on expat.
# --------------------------------------------------------------------------


class _XmlElement:
    __slots__ = ("tag", "attrib", "children", "line", "column")

    def __init__(self, tag: str, attrib: dict[str, str], line: int, column: int):
        self.tag = tag
        self.attrib = attrib
        self.children: list[_XmlElement] = []
        self.line = line
        self.column = column

    def find(self, tag: str) -> "_XmlElement | None":
        for child in self.children:
            if child.tag == tag:
                return child
        return None


def _decode(xml_text: str | bytes) -> str:
    if isinstance(xml_text, bytes):
        if xml_text.startswith(b"\xff\xfe") or xml_text.startswith(b"\xfe\xff"):
            raise ParseFailure("unsupported encoding: UTF-16 byte order mark", 1, 0)
        if xml_text.startswith(b"\xef\xbb\xbf"):
            xml_text = xml_text[3:]
        try:
            text = xml_text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseFailure(f"document is not valid UTF-8: {exc}", 1, 0) from None
    else:
        text = xml_text
    return text.lstrip("﻿")


def _read_document(text: str) -> _XmlElement:
    parser = expat.ParserCreate()
    parser.buffer_text = True
    root: list[_XmlElement] = []
    stack: list[_XmlElement] = []

    def start(tag: str, attrib: dict[str, str]) -> None:
        element = _XmlElement(tag, attrib, parser.CurrentLineNumber, parser.CurrentColumnNumber)
        if stack:
            stack[-1].children.append(element)
        elif not root:
            root.append(element)
        stack.append(element)

    def end(tag: str) -> None:
        stack.pop()

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    try:
        parser.Parse(text, True)
    except expat.ExpatError as exc:
        raise ParseFailure(str(exc), exc.lineno, exc.offset) from None
    finally:  # the handlers and the parser refer to each other; free the tree without the GC
        parser.StartElementHandler = parser.EndElementHandler = None
    return root[0]


# --------------------------------------------------------------------------
# URDF layer.
# --------------------------------------------------------------------------

# Standard URDF/ROS elements we do not model; skipping them is expected
# and produces no notice, unlike genuinely unknown vendor elements.
_UNMODELED = {"gazebo", "transmission", "ros2_control", "dynamics", "calibration",
              "mimic", "safety_controller", "sensor"}
_JOINT_CHILDREN = {"parent", "child", "origin", "axis", "limit"} | _UNMODELED

# Primitive shapes: the class and its required attributes with their arities,
# in constructor order.  Every value should be positive.
_SHAPES = {
    "box": (Box, {"size": 3}),
    "cylinder": (Cylinder, {"radius": 1, "length": 1}),
    "sphere": (Sphere, {"radius": 1}),
}
_INERTIA = dict.fromkeys(("ixx", "ixy", "ixz", "iyy", "iyz", "izz"), 1)
_LIMIT_BOUNDS = ("lower", "upper", "effort", "velocity")
_ASCII_FLOAT = re.compile(r"[+-]?(?:(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:e[+-]?[0-9]+)?"
                          r"|inf(?:inity)?|nan)", re.ASCII | re.IGNORECASE)
_NOT_ASCII_OR_UNDERSCORE = re.compile(r"[^\x00-\x7f]|_")


class _Parser:
    def __init__(self) -> None:
        self.notices: list[ParseNotice] = []
        self.materials: list[Material] = []

    def notice(self, element: _XmlElement, message: str) -> None:
        self.notices.append(ParseNotice(element.tag, message, element.line, element.column))

    def floats(self, element: _XmlElement | None, attr: str, count: int,
               default: tuple[float, ...] | None = None) -> float | tuple[float, ...] | None:
        """Parse a whitespace-separated list of ``count`` floats, one float
        when ``count`` is 1; ``default`` when the element or the attribute is
        absent.  A wrong arity or a non-number is fatal.  A number is what
        ``_ASCII_FLOAT`` matches, and a value holding any character outside
        ASCII, or a ``_``, is not numeric whatever its arity: urdfdom splits
        on spaces and reads each part in the classic locale."""
        raw = None if element is None else element.attrib.get(attr)
        if raw is None:
            return default
        not_numeric = ParseFailure(f"attribute '{attr}' of <{element.tag}> is not numeric: "
                                   f"{raw!r}", element.line, element.column)
        if _NOT_ASCII_OR_UNDERSCORE.search(raw):
            raise not_numeric
        parts = raw.split()
        if len(parts) != count:
            raise ParseFailure(f"attribute '{attr}' of <{element.tag}> must hold {count} "
                               f"numbers, got {len(parts)}", element.line, element.column)
        if not all(_ASCII_FLOAT.fullmatch(part) for part in parts):
            raise not_numeric
        values = tuple(map(float, parts))
        if not all(map(math.isfinite, values)):
            self.notice(element, f"attribute '{attr}' holds a non-finite value")
        return values[0] if count == 1 else values

    def required(self, element: _XmlElement, arities: dict[str, int]) -> list | None:
        """The values of every attribute in ``arities``, in order, read with
        ``floats``.  When any is absent, nothing is read: one notice names
        the missing ones and the result is None."""
        missing = [attr for attr in arities if attr not in element.attrib]
        if missing:
            self.notice(element, f"<{element.tag}> is missing {', '.join(missing)}; skipped")
            return None
        return [self.floats(element, attr, count) for attr, count in arities.items()]

    def pose(self, element: _XmlElement | None) -> Pose:
        return Pose(self.floats(element, "xyz", 3, ZERO3), self.floats(element, "rpy", 3, ZERO3))

    def geometry(self, parent: _XmlElement) -> Geometry | None:
        geom = parent.find("geometry")
        if geom is None:
            self.notice(parent, f"<{parent.tag}> has no <geometry> child; skipped")
            return None
        for shape in geom.children:
            if shape.tag in _SHAPES:
                cls, arities = _SHAPES[shape.tag]
                values = self.required(shape, arities)
                if values is None:
                    return None
                if any(v <= 0 for value in values
                       for v in (value if isinstance(value, tuple) else (value,))):
                    self.notice(shape, f"<{shape.tag}> has a non-positive dimension")
                return cls(*values)
            if shape.tag == "mesh":
                uri = shape.attrib.get("filename", "")
                if not uri:
                    self.notice(shape, "<mesh> has no filename; skipped")
                    return None
                return Mesh(uri, self.floats(shape, "scale", 3, (1.0, 1.0, 1.0)))
            self.notice(shape, f"unknown geometry shape <{shape.tag}>")
        self.notice(geom, "<geometry> holds no recognized shape; skipped")
        return None

    def material(self, element: _XmlElement) -> Material:
        name = element.attrib.get("name", "")
        rgba = self.floats(element.find("color"), "rgba", 4)
        tex = element.find("texture")
        texture = tex.attrib.get("filename") if tex is not None else None
        material = Material(name, rgba, texture)
        if name and material.defines_appearance:
            self.materials.append(material)
        return material

    def inertial(self, element: _XmlElement) -> Inertial | None:
        mass_el = element.find("mass")
        inertia_el = element.find("inertia")
        if mass_el is None or "value" not in mass_el.attrib:
            self.notice(element, "<inertial> lacks a mass value; skipped")
            return None
        if inertia_el is None:
            self.notice(element, "<inertial> lacks an <inertia> element; skipped")
            return None
        moments = self.required(inertia_el, _INERTIA)
        if moments is None:
            return None
        mass = self.floats(mass_el, "value", 1)
        if mass < 0:
            self.notice(mass_el, "negative mass")
        return Inertial(self.pose(element.find("origin")), mass, tuple(moments))

    def link(self, element: _XmlElement) -> Link:
        name = element.attrib.get("name", "")
        inertial = None
        visuals: list[Visual] = []
        collisions: list[Collision] = []
        for child in element.children:
            if child.tag == "inertial":
                if inertial is None:
                    inertial = self.inertial(child)
                else:
                    self.notice(child, "extra <inertial> ignored")
            elif child.tag == "visual":
                geometry = self.geometry(child)
                if geometry is None:
                    continue
                material_el = child.find("material")
                material_name = None
                if material_el is not None:
                    material_name = material_el.attrib.get("name") or None
                    self.material(material_el)
                visuals.append(
                    Visual(self.pose(child.find("origin")), geometry, material_name,
                           child.line, child.column)
                )
            elif child.tag == "collision":
                geometry = self.geometry(child)
                if geometry is None:
                    continue
                collisions.append(Collision(self.pose(child.find("origin")), geometry))
            elif child.tag not in _UNMODELED:
                self.notice(child, f"unknown element <{child.tag}> in <link>")
        return Link(name, inertial, tuple(visuals), tuple(collisions),
                    element.line, element.column)

    def joint_limit(self, element: _XmlElement | None) -> JointLimit | None:
        if element is None:
            return None
        values = {attr: self.floats(element, attr, 1) for attr in _LIMIT_BOUNDS}
        if (values["lower"] is not None and values["upper"] is not None
                and values["lower"] > values["upper"]):
            self.notice(element, "limit lower bound exceeds upper bound")
        return JointLimit(**values)

    def joint(self, element: _XmlElement) -> Joint:
        name = element.attrib.get("name", "")
        type_name = element.attrib.get("type", "")
        try:
            kind = JointKind(type_name)
        except ValueError:
            kind = None
            self.notice(element, f"joint '{name}' has unrecognized type {type_name!r}")
        parent_el, child_el = element.find("parent"), element.find("child")
        parent = parent_el.attrib.get("link", "") if parent_el is not None else ""
        child_link = child_el.attrib.get("link", "") if child_el is not None else ""
        axis = self.floats(element.find("axis"), "xyz", 3, DEFAULT_AXIS)
        for sub in element.children:
            if sub.tag not in _JOINT_CHILDREN:
                self.notice(sub, f"unknown element <{sub.tag}> in <joint>")
        return Joint(
            name=name,
            kind=kind,
            type_name=type_name,
            parent=parent,
            child=child_link,
            origin=self.pose(element.find("origin")),
            axis=axis,
            limit=self.joint_limit(element.find("limit")),
            line=element.line,
            column=element.column,
        )

    def robot(self, root: _XmlElement) -> RobotModel:
        links: list[Link] = []
        joints: list[Joint] = []
        for child in root.children:
            if child.tag == "link":
                links.append(self.link(child))
            elif child.tag == "joint":
                joints.append(self.joint(child))
            elif child.tag == "material":
                self.material(child)
            elif child.tag not in _UNMODELED:
                self.notice(child, f"unknown element <{child.tag}> in <robot>")
        for attr in root.attrib:
            if attr != "name" and not attr.startswith("xmlns"):
                self.notices.append(
                    ParseNotice("robot", f"unknown attribute {attr!r} on <robot>",
                                root.line, root.column)
                )
        return RobotModel(
            name=root.attrib.get("name", ""),
            links=tuple(links),
            joints=tuple(joints),
            materials=tuple(self.materials),
            notices=tuple(self.notices),
            line=root.line,
            column=root.column,
        )


def oracle_parse_urdf(xml_text: str | bytes) -> RobotModel:
    """parse_urdf by the two-pass route: expat builds an element tree of the
    whole document, then a second walk over that tree builds the model.
    Every XML error therefore wins over every URDF failure, and failures
    and notices come in the walk's order."""
    text = _decode(xml_text)
    root = _read_document(text)
    if root.tag != "robot":
        raise ParseFailure(f"root element is <{root.tag}>, expected <robot>", root.line, root.column)
    return _Parser().robot(root)
