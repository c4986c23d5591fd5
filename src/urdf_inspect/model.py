"""Typed in-memory representation of a URDF document.

Everything here is immutable after parsing: models can be shared across
threads and compared structurally.  Parsing is strict about XML
well-formedness and numeric attribute arity, and lenient about unknown
vendor elements (those are skipped and recorded as notices).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from xml.parsers import expat

__all__ = [
    "Pose",
    "Box",
    "Cylinder",
    "Sphere",
    "Mesh",
    "Geometry",
    "Inertial",
    "Visual",
    "Collision",
    "Link",
    "JointKind",
    "JointLimit",
    "Joint",
    "Material",
    "ParseNotice",
    "ParseFailure",
    "RobotModel",
    "parse_urdf",
    "line_count",
]

Vec3 = tuple[float, float, float]

ZERO3: Vec3 = (0.0, 0.0, 0.0)
DEFAULT_AXIS: Vec3 = (1.0, 0.0, 0.0)


class ParseFailure(Exception):
    """The document could not be turned into a robot model at all.

    Covers malformed XML, unsupported encodings, a root element other
    than ``robot``, and numeric attribute lists of the wrong arity.
    Carries taxonomy code ``F`` plus the offending position (1-based
    line, 0-based column).
    """

    code = "F"

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(message)
        self.message = message
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Pose:
    """Rigid-body offset: xyz in meters, rpy in radians (roll, pitch, yaw)."""

    xyz: Vec3 = ZERO3
    rpy: Vec3 = ZERO3


@dataclass(frozen=True)
class Box:
    size: Vec3


@dataclass(frozen=True)
class Cylinder:
    radius: float
    length: float


@dataclass(frozen=True)
class Sphere:
    radius: float


@dataclass(frozen=True)
class Mesh:
    uri: str
    scale: Vec3 = (1.0, 1.0, 1.0)


Geometry = Box | Cylinder | Sphere | Mesh


@dataclass(frozen=True)
class Inertial:
    """Mass properties: inertia holds (ixx, ixy, ixz, iyy, iyz, izz)."""

    origin: Pose
    mass: float
    inertia: tuple[float, float, float, float, float, float]


@dataclass(frozen=True)
class Visual:
    origin: Pose
    geometry: Geometry
    material_name: str | None = None
    line: int = 0
    column: int = 0


@dataclass(frozen=True)
class Collision:
    origin: Pose
    geometry: Geometry


@dataclass(frozen=True)
class Link:
    name: str
    inertial: Inertial | None = None
    visuals: tuple[Visual, ...] = ()
    collisions: tuple[Collision, ...] = ()
    line: int = 0
    column: int = 0


class JointKind(Enum):
    REVOLUTE = "revolute"
    CONTINUOUS = "continuous"
    PRISMATIC = "prismatic"
    FIXED = "fixed"
    FLOATING = "floating"
    PLANAR = "planar"


@dataclass(frozen=True)
class JointLimit:
    """Motion limits; every field is None when its attribute is absent."""

    lower: float | None = None
    upper: float | None = None
    effort: float | None = None
    velocity: float | None = None


@dataclass(frozen=True)
class Joint:
    name: str
    kind: JointKind | None  # None when the type attribute is unrecognized
    type_name: str
    parent: str
    child: str
    origin: Pose = Pose()
    axis: Vec3 = DEFAULT_AXIS
    limit: JointLimit | None = None
    line: int = 0
    column: int = 0


@dataclass(frozen=True)
class Material:
    name: str
    color_rgba: tuple[float, float, float, float] | None = None
    texture: str | None = None

    @property
    def defines_appearance(self) -> bool:
        return self.color_rgba is not None or self.texture is not None


@dataclass(frozen=True)
class ParseNotice:
    """Non-fatal oddity found while parsing (unknown element, bad value)."""

    subject: str
    message: str
    line: int = 0
    column: int = 0


@dataclass(frozen=True)
class RobotModel:
    """One parsed URDF document, in document order.

    The raw model intentionally tolerates things the validator rejects
    (duplicate link names, dangling joint references) so diagnostics can
    point at them.
    """

    name: str
    links: tuple[Link, ...]
    joints: tuple[Joint, ...]
    materials: tuple[Material, ...] = ()
    notices: tuple[ParseNotice, ...] = ()
    line: int = 0
    column: int = 0

    def link_names(self) -> list[str]:
        return [link.name for link in self.links]

    def joint_names(self) -> list[str]:
        return [joint.name for joint in self.joints]


_LINE_BREAK = re.compile(r"\r\n|\r|\n")


def line_count(raw_text: str) -> int:
    """Number of lines, counting a trailing partial line as one line.

    Line breaks are LF, CR or CRLF; other control characters do not
    terminate a line.
    """
    if not raw_text:
        return 0
    pieces = _LINE_BREAK.split(raw_text)
    if pieces[-1] == "":
        pieces.pop()
    return len(pieces)


# --------------------------------------------------------------------------
# XML layer: a minimal position-tracking element tree built on expat.
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
        absent.  A wrong arity or a non-number is fatal."""
        raw = None if element is None else element.attrib.get(attr)
        if raw is None:
            return default
        parts = raw.split()
        if len(parts) != count:
            raise ParseFailure(f"attribute '{attr}' of <{element.tag}> must hold {count} "
                               f"numbers, got {len(parts)}", element.line, element.column)
        try:
            values = tuple(map(float, parts))
        except ValueError:
            raise ParseFailure(f"attribute '{attr}' of <{element.tag}> is not numeric: {raw!r}",
                               element.line, element.column) from None
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


def parse_urdf(xml_text: str | bytes) -> RobotModel:
    """Parse URDF XML text into a RobotModel.

    Accepts UTF-8 with or without BOM.  Raises ParseFailure (taxonomy
    code F) for anything that prevents building a model: bad encoding,
    malformed XML, a root element other than ``robot``, or a numeric
    attribute list with the wrong arity.  Pure function: identical input
    yields a structurally identical model.
    """
    text = _decode(xml_text)
    root = _read_document(text)
    if root.tag != "robot":
        raise ParseFailure(f"root element is <{root.tag}>, expected <robot>", root.line, root.column)
    return _Parser().robot(root)
