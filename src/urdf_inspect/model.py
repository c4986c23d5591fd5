"""Typed in-memory representation of a URDF document.

Everything here is immutable after parsing: models can be shared across
threads and compared structurally.  Parsing is strict about XML
well-formedness and numeric attribute arity, and lenient about unknown
vendor elements (those are skipped and recorded as notices).

A model is built in one pass over expat's events.  Only the elements it
reads are kept, and each link child, joint and top-level material is
built at its end tag, so notices come in document order.  The first URDF
failure (wrong arity, a non-number, a root other than <robot>) is held
while expat reads on: malformed XML anywhere in the document wins.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple
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
    The validator reports it as taxonomy code ``F``, at the offending
    position (1-based line, 0-based column).
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(message)
        self.message = message
        self.line = line
        self.column = column


class Pose(NamedTuple):
    """Rigid-body offset: xyz in meters, rpy in radians (roll, pitch, yaw)."""

    xyz: Vec3 = ZERO3
    rpy: Vec3 = ZERO3


class Box(NamedTuple):
    size: Vec3


class Cylinder(NamedTuple):
    radius: float
    length: float


class Sphere(NamedTuple):
    radius: float


class Mesh(NamedTuple):
    uri: str
    scale: Vec3 = (1.0, 1.0, 1.0)


Geometry = Box | Cylinder | Sphere | Mesh


class Inertial(NamedTuple):
    """Mass properties: inertia holds (ixx, ixy, ixz, iyy, iyz, izz)."""

    origin: Pose
    mass: float
    inertia: tuple[float, float, float, float, float, float]


class Visual(NamedTuple):
    origin: Pose
    geometry: Geometry
    material_name: str | None = None
    line: int = 0
    column: int = 0


class Collision(NamedTuple):
    origin: Pose
    geometry: Geometry


class Link(NamedTuple):
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


class JointLimit(NamedTuple):
    """Motion limits; every field is None when its attribute is absent."""

    lower: float | None = None
    upper: float | None = None
    effort: float | None = None
    velocity: float | None = None


class Joint(NamedTuple):
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


class Material(NamedTuple):
    name: str
    color_rgba: tuple[float, float, float, float] | None = None
    texture: str | None = None

    @property
    def defines_appearance(self) -> bool:
        return self.color_rgba is not None or self.texture is not None


class ParseNotice(NamedTuple):
    """Non-fatal oddity found while parsing (unknown element, bad value)."""

    subject: str
    message: str
    line: int = 0
    column: int = 0


class RobotModel(NamedTuple):
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


def line_count(raw_text: str) -> int:
    """Number of lines, counting a trailing partial line as one line.

    Line breaks are LF, CR or CRLF; other control characters do not
    terminate a line.
    """
    breaks = raw_text.count("\n") + raw_text.count("\r") - raw_text.count("\r\n")
    return breaks + (1 if raw_text and not raw_text.endswith(("\n", "\r")) else 0)


# --------------------------------------------------------------------------
# URDF layer: the model is built in one pass over expat's events.
# --------------------------------------------------------------------------


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


# Standard URDF/ROS elements we do not model; skipping them is expected
# and produces no notice, unlike genuinely unknown vendor elements.
_UNMODELED = {"gazebo", "transmission", "ros2_control", "dynamics", "calibration",
              "mimic", "safety_controller", "sensor"}
_JOINT_CHILDREN = {"parent", "child", "origin", "axis", "limit"} | _UNMODELED
# The children the model reads, by parent: <robot> and <link> read each of
# theirs, the others the first of each tag.  Of these, only a <geometry> and
# a <material> have children the model reads.
_MODELED = {
    "robot": {"link", "joint", "material"}, "link": {"inertial", "visual", "collision"},
    "inertial": {"origin", "mass", "inertia"}, "visual": {"origin", "geometry", "material"},
    "collision": {"origin", "geometry"}, "material": {"color", "texture"},
    "joint": {"parent", "child", "origin", "axis", "limit"},
}

# Primitive shapes: the class and its required attributes with their arities,
# in constructor order.  Every value should be positive.
_SHAPES = {
    "box": (Box, {"size": 3}),
    "cylinder": (Cylinder, {"radius": 1, "length": 1}),
    "sphere": (Sphere, {"radius": 1}),
}
_INERTIA = dict.fromkeys(("ixx", "ixy", "ixz", "iyy", "iyz", "izz"), 1)
_LIMIT_BOUNDS = ("lower", "upper", "effort", "velocity")
_JOINT_KINDS = {kind.value: kind for kind in JointKind}
_ZERO_POSE = Pose()


class _Builder:
    """Builds one RobotModel from the expat events of one document.

    An element the model reads is a tuple (tag, attrib, line, column).  An
    element whose children it reads is a frame: those four, then ``first``,
    its first child of each tag read, and ``rest``, the children it keeps in
    order (all of a <geometry>'s, the unknown ones of a <joint>).
    """

    def __init__(self) -> None:
        self.notices: list[ParseNotice] = []
        self.materials: list[Material] = []
        self.links: list[Link] = []
        self.joints: list[Joint] = []
        self.inertial, self.visuals, self.collisions = None, [], []  # the open link's
        self.numbers: dict[tuple[str, int], tuple] = {}  # (raw, count) -> (value, all finite)

    def notice(self, element: tuple, message: str) -> None:
        self.notices.append(ParseNotice(element[0], message, element[2], element[3]))

    def floats(self, element: tuple | None, attr: str, count: int,
               default: tuple[float, ...] | None = None) -> float | tuple[float, ...] | None:
        """Parse a whitespace-separated list of ``count`` floats, one float
        when ``count`` is 1; ``default`` when the element or the attribute is
        absent.  A wrong arity or a non-number is fatal; a value holding a
        non-ASCII character or a ``_`` is not numeric.  Each string is read
        once per document; a non-finite value is noticed wherever it occurs."""
        raw = None if element is None else element[1].get(attr)
        if raw is None:
            return default
        known = self.numbers.get((raw, count))
        if known is None:
            tag, _, line, column = element
            parts, plain = raw.split(), raw.isascii() and "_" not in raw
            if plain and len(parts) != count:
                raise ParseFailure(f"attribute '{attr}' of <{tag}> must hold {count} "
                                   f"numbers, got {len(parts)}", line, column)
            try:
                if not plain:  # split() and float() take more than urdfdom does
                    raise ValueError
                values = tuple(map(float, parts))
            except ValueError:
                raise ParseFailure(f"attribute '{attr}' of <{tag}> is not numeric: {raw!r}",
                                   line, column) from None
            known = (values[0] if count == 1 else values, all(map(math.isfinite, values)))
            self.numbers[raw, count] = known
        if not known[1]:
            self.notice(element, f"attribute '{attr}' holds a non-finite value")
        return known[0]

    def required(self, element: tuple, arities: dict[str, int]) -> list | None:
        """The values of every attribute in ``arities``, in order, read with
        ``floats``.  When any is absent, nothing is read: one notice names
        the missing ones and the result is None."""
        missing = [attr for attr in arities if attr not in element[1]]
        if missing:
            self.notice(element, f"<{element[0]}> is missing {', '.join(missing)}; skipped")
            return None
        return [self.floats(element, attr, count) for attr, count in arities.items()]

    def pose(self, element: tuple | None) -> Pose:
        if element is None:
            return _ZERO_POSE
        return Pose(self.floats(element, "xyz", 3, ZERO3), self.floats(element, "rpy", 3, ZERO3))

    def geometry(self, frame: tuple) -> Geometry | None:
        geom = frame[4].get("geometry")
        if geom is None:
            self.notice(frame, f"<{frame[0]}> has no <geometry> child; skipped")
            return None
        for shape in geom[5]:
            tag, attrib, _, _ = shape
            if tag in _SHAPES:
                cls, arities = _SHAPES[tag]
                values = self.required(shape, arities)
                if values is None:
                    return None
                if any(v <= 0 for value in values
                       for v in (value if isinstance(value, tuple) else (value,))):
                    self.notice(shape, f"<{tag}> has a non-positive dimension")
                return cls(*values)
            if tag == "mesh":
                uri = attrib.get("filename", "")
                if not uri:
                    self.notice(shape, "<mesh> has no filename; skipped")
                    return None
                return Mesh(uri, self.floats(shape, "scale", 3, (1.0, 1.0, 1.0)))
            self.notice(shape, f"unknown geometry shape <{tag}>")
        self.notice(geom, "<geometry> holds no recognized shape; skipped")
        return None

    def material(self, frame: tuple) -> Material:
        _, attrib, _, _, first, _ = frame
        name = attrib.get("name", "")
        rgba = self.floats(first.get("color"), "rgba", 4)
        tex = first.get("texture")
        texture = tex[1].get("filename") if tex is not None else None
        material = Material(name, rgba, texture)
        if name and material.defines_appearance:
            self.materials.append(material)
        return material

    def inertial_of(self, frame: tuple) -> Inertial | None:
        first = frame[4]
        mass_el, inertia_el = first.get("mass"), first.get("inertia")
        if mass_el is None or "value" not in mass_el[1]:
            self.notice(frame, "<inertial> lacks a mass value; skipped")
            return None
        if inertia_el is None:
            self.notice(frame, "<inertial> lacks an <inertia> element; skipped")
            return None
        moments = self.required(inertia_el, _INERTIA)
        if moments is None:
            return None
        mass = self.floats(mass_el, "value", 1)
        if mass < 0:
            self.notice(mass_el, "negative mass")
        return Inertial(self.pose(first.get("origin")), mass, tuple(moments))

    def visual(self, frame: tuple) -> None:
        geometry = self.geometry(frame)
        if geometry is None:
            return
        _, _, line, column, first, _ = frame
        material = first.get("material")
        material_name = None
        if material is not None:
            material_name = material[1].get("name") or None
            self.material(material)
        self.visuals.append(Visual(self.pose(first.get("origin")), geometry, material_name,
                                   line, column))

    def collision(self, frame: tuple) -> None:
        geometry = self.geometry(frame)
        if geometry is not None:
            self.collisions.append(Collision(self.pose(frame[4].get("origin")), geometry))

    def joint_limit(self, element: tuple | None) -> JointLimit | None:
        if element is None:
            return None
        values = {attr: self.floats(element, attr, 1) for attr in _LIMIT_BOUNDS}
        if (values["lower"] is not None and values["upper"] is not None
                and values["lower"] > values["upper"]):
            self.notice(element, "limit lower bound exceeds upper bound")
        return JointLimit(**values)

    def joint(self, frame: tuple) -> Joint:
        _, attrib, line, column, first, unknown = frame
        name, type_name = attrib.get("name", ""), attrib.get("type", "")
        kind = _JOINT_KINDS.get(type_name)
        if kind is None:
            self.notice(frame, f"joint '{name}' has unrecognized type {type_name!r}")
        parent, child_link = (first[role][1].get("link", "") if role in first else ""
                              for role in ("parent", "child"))
        axis = self.floats(first.get("axis"), "xyz", 3, DEFAULT_AXIS)
        for sub in unknown:
            self.notice(sub, f"unknown element <{sub[0]}> in <joint>")
        return Joint(name, kind, type_name, parent, child_link, self.pose(first.get("origin")),
                     axis, self.joint_limit(first.get("limit")), line, column)

    def build(self, text: str) -> RobotModel:
        """Read ``text`` with expat, building every <link> child, <joint> and
        top-level <material> at its end tag, so notices and the first
        failure come in document order.  A URDF failure is held while expat
        reads on, so an XML error anywhere in the document wins over it."""
        parser = expat.ParserCreate()
        stack: list[tuple] = []  # the open frames, the root first
        root: tuple = ()
        skip = 0  # open elements of a subtree the model does not read
        held: list[tuple[str, int, int]] = []  # the first failure: message, line, column

        def hold(message: str, line: int, column: int) -> None:
            held.append((message, line, column))
            parser.StartElementHandler = parser.EndElementHandler = None

        def start(tag: str, attrib: dict[str, str]) -> None:
            nonlocal skip, root
            if skip:
                skip += 1
                return
            element = (tag, attrib, parser.CurrentLineNumber, parser.CurrentColumnNumber)
            if not stack:
                if tag == "robot":
                    root = element + ({}, [])
                    stack.append(root)
                else:
                    hold(f"root element is <{tag}>, expected <robot>", *element[2:])
                return
            parent, _, _, _, first, rest = stack[-1]
            skip = 1
            if parent == "geometry" or (parent == "joint" and tag not in _JOINT_CHILDREN):
                rest.append(element)
            elif parent == "robot" or parent == "link":
                if tag not in _MODELED[parent]:
                    if tag not in _UNMODELED:
                        self.notice(element, f"unknown element <{tag}> in <{parent}>")
                elif tag == "inertial" and self.inertial is not None:
                    self.notice(element, "extra <inertial> ignored")
                else:
                    if tag == "link":
                        self.inertial, self.visuals, self.collisions = None, [], []
                    stack.append(element + ({}, []))
                    skip = 0
            elif tag in _MODELED[parent] and tag not in first:
                if tag == "geometry" or tag == "material":
                    element += ({}, [])
                    stack.append(element)
                    skip = 0
                first[tag] = element

        def end(tag: str) -> None:
            nonlocal skip
            if skip:
                skip -= 1
                return
            frame = stack.pop()
            try:
                if tag == "link":
                    self.links.append(Link(frame[1].get("name", ""), self.inertial,
                                           tuple(self.visuals), tuple(self.collisions),
                                           frame[2], frame[3]))
                elif tag == "joint":
                    self.joints.append(self.joint(frame))
                elif tag == "visual":
                    self.visual(frame)
                elif tag == "collision":
                    self.collision(frame)
                elif tag == "inertial":
                    self.inertial = self.inertial_of(frame)
                elif tag == "material" and len(stack) == 1:
                    self.material(frame)
            except ParseFailure as failure:
                hold(failure.message, failure.line, failure.column)

        parser.StartElementHandler = start
        parser.EndElementHandler = end
        try:
            parser.Parse(text, True)
        except expat.ExpatError as exc:
            raise ParseFailure(str(exc), exc.lineno, exc.offset) from None
        finally:  # the handlers and the parser refer to each other; free them without the GC
            parser.StartElementHandler = parser.EndElementHandler = None
        if held:
            raise ParseFailure(*held[0])
        _, attrib, line, column, _, _ = root
        for attr in attrib:
            if attr != "name" and not attr.startswith("xmlns"):
                self.notice(root, f"unknown attribute {attr!r} on <robot>")
        return RobotModel(attrib.get("name", ""), tuple(self.links), tuple(self.joints),
                          tuple(self.materials), tuple(self.notices), line, column)


def parse_urdf(xml_text: str | bytes) -> RobotModel:
    """Parse URDF XML text into a RobotModel.

    Accepts UTF-8 with or without BOM.  Raises ParseFailure (taxonomy
    code F) for anything that prevents building a model: bad encoding,
    malformed XML, a root element other than ``robot``, or a numeric
    attribute list with the wrong arity.  Malformed XML anywhere in the
    document wins over the others.  Pure function: identical input
    yields a structurally identical model.
    """
    return _Builder().build(_decode(xml_text))
