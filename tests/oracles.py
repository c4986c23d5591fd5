"""Independent reference implementations used to check the main code paths.

These deliberately take different routes: forward kinematics goes
through scipy rotations and 4x4 homogeneous matrices, duplicate
grouping is a pairwise O(n^2) comparison with its own byte-level
normalizer, line counting is a split-free scanner, discrepancy flags
compare every cross-source pair of members, the joint-graph verdict
asks of every link what it reaches, and the per-bundle corpus tables are
built from full models parsed afresh.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from scipy.spatial.transform import Rotation

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


def brute_force_duplicates(paths) -> set[frozenset]:
    """All-pairs grouping by normalized byte equality; groups of >= 2."""
    normalized = {}
    for path in paths:
        path = Path(path)
        data = path.read_bytes()
        normalized[path] = oracle_normalize(data, _oracle_is_text(path, data))
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


def oracle_discrepancy_flags(bundles, fk_samples: int = 16, fk_seed: int = 0,
                             fk_tol: float = 1e-6) -> tuple:
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
                verdicts.append(not fk_equivalent(ta, ma, tb, mb, samples=fk_samples,
                                                  seed=fk_seed, tol=fk_tol).equal)
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
    roots = [name for name in links if name not in child_of]
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
                 for name in declared if child_of.count(name) > 1]
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
    no text; one that fails validation gives no model.
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
        banner = text is not None and bundles.detect_xacro_generated(text)
        xacro.append((source, record.xacro_generated_by_dataset, banner))
        if text is not None:
            contact.append(bundles.contact_markers(text))
        if model is not None:
            meshes.append((source, bundles.mesh_inventory(model)))
            names.append((source, bundles.name_substring_stats(model, bundles.NAME_TERMS)))
            sizes.append((record.robot_type, len(model.links), len(model.joints)))
    return [report.xacro_table(xacro), report.mesh_types_table(meshes),
            report.contact_table(contact), report.name_stats_table(names),
            report.model_stats_table(bundles.model_stats(sizes))]
