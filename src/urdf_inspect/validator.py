"""Pass/fail classification of URDF files with the A-F error taxonomy.

Mirrors the acceptance behavior of the ROS reference parser: a file
fails when any error-severity diagnostic is present.  Error codes:

    A  revolute/prismatic joint without usable limits
    B  no link elements
    C  duplicate link name
    D  missing or empty robot name
    E  joint parent or child names no declared link
    F  XML parsing failed

Warnings never fail a file; W_UNDEFINED_MATERIAL flags a visual whose
material name is defined nowhere in the document.  The CLI also reports
a file it cannot read as F.
"""

from __future__ import annotations

from typing import NamedTuple

from .kinematics import _joint_graph
from .model import JointKind, ParseFailure, RobotModel, parse_urdf

__all__ = ["Diagnostic", "ValidationResult", "validate", "kinematic_sanity"]

ERROR = "error"
WARNING = "warning"


class Diagnostic(NamedTuple):
    severity: str  # "error" | "warning"
    code: str  # "A".."F", "W_UNDEFINED_MATERIAL", "W_OTHER"
    subject: str
    message: str
    line: int = 0
    column: int = 0


class ValidationResult(NamedTuple):
    """Model is present iff no error-severity diagnostic was found."""

    model: RobotModel | None
    diagnostics: list[Diagnostic]

    def error_codes(self) -> list[str]:
        return [d.code for d in self.diagnostics if d.severity == ERROR]


def validate(xml_text: str | bytes) -> ValidationResult:
    """Classify one URDF document.

    F preempts everything (there is no model to inspect); otherwise all
    applicable A-E codes are reported, ordered by document position.
    """
    try:
        model = parse_urdf(xml_text)
    except ParseFailure as failure:
        diag = Diagnostic(ERROR, "F", "document", failure.message, failure.line, failure.column)
        return ValidationResult(model=None, diagnostics=[diag])

    diags: list[Diagnostic] = []

    if model.name == "":
        diags.append(Diagnostic(ERROR, "D", "robot", "no name given for robot",
                                model.line, model.column))
    if not model.links:
        diags.append(Diagnostic(ERROR, "B", "robot", "no link elements found",
                                model.line, model.column))

    seen: set[str] = set()
    for link in model.links:
        if link.name in seen:
            diags.append(Diagnostic(ERROR, "C", link.name,
                                    f"link name '{link.name}' is not unique",
                                    link.line, link.column))
        seen.add(link.name)

    link_names = {link.name for link in model.links}
    for joint in model.joints:
        if joint.kind in (JointKind.REVOLUTE, JointKind.PRISMATIC):
            limit = joint.limit
            if limit is None:
                diags.append(Diagnostic(ERROR, "A", joint.name,
                                        f"{joint.type_name} joint '{joint.name}' has no limit element",
                                        joint.line, joint.column))
            elif limit.effort is None or limit.velocity is None:
                missing = [a for a in ("effort", "velocity") if getattr(limit, a) is None]
                diags.append(Diagnostic(ERROR, "A", joint.name,
                                        f"joint '{joint.name}' limit lacks {' and '.join(missing)}",
                                        joint.line, joint.column))
        if joint.parent not in link_names:
            diags.append(Diagnostic(ERROR, "E", joint.name,
                                    f"parent link '{joint.parent}' of joint '{joint.name}' not found",
                                    joint.line, joint.column))
        if joint.child not in link_names:
            diags.append(Diagnostic(ERROR, "E", joint.name,
                                    f"child link '{joint.child}' of joint '{joint.name}' not found",
                                    joint.line, joint.column))
        if joint.kind is None:
            diags.append(Diagnostic(WARNING, "W_OTHER", joint.name,
                                    f"joint '{joint.name}' has unrecognized type {joint.type_name!r}",
                                    joint.line, joint.column))

    defined = {m.name for m in model.materials if m.defines_appearance}
    for link in model.links:
        for visual in link.visuals:
            name = visual.material_name
            if name and name not in defined:
                diags.append(Diagnostic(WARNING, "W_UNDEFINED_MATERIAL", name,
                                        f"visual of link '{link.name}' uses undefined material '{name}'",
                                        visual.line, visual.column))

    diags.sort(key=lambda d: (d.line, d.column))
    has_error = any(d.severity == ERROR for d in diags)
    return ValidationResult(model=None if has_error else model, diagnostics=diags)


def kinematic_sanity(model: RobotModel) -> list[Diagnostic]:
    """Warn about structurally odd joint graphs; never errors.

    Expects a model that passed validate.  Reports multiple roots,
    cycles, no root without a cycle, links unreachable from the root and
    links that are the child of several joints: what build_tree rejects.
    """
    if not model.links:
        return []
    return [Diagnostic(WARNING, "W_OTHER", subject, message)
            for _, subject, message in _joint_graph(model).problems]
