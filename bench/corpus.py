"""Seeded synthetic URDF corpora with ground-truth manifests.

``make_corpus(workload, seed, root)`` writes a corpus tree under ``root``
and returns its manifest.  The manifest records what the generator
built: per-bundle structure, license, xacro flags, planted error codes,
mesh references, per-file sizes and normalized duplicate groups, and the
expected discrepancy row of every multiply defined robot.  It is never
derived from running urdf_inspect.

Every share in a corpus is an exact count, and what drives the work
(links per robot, which robots have which kinds of copies, mesh sizes)
follows a fixed plan.  The seed changes tree shapes, joint values, mesh
contents and where files go, so two seeds give different trees of equal
cost.

Run as a script to write a corpus and its manifest:

    python bench/corpus.py scan_mixed 7 /tmp/corpus
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

WORKLOADS = ("scan_mixed", "compare_fk", "dupes_meshes")

FK_SAMPLES = 16  # the CLI's default --fk-samples
TEXT_EXTS = ("urdf", "dae", "obj")  # plus ASCII STL, which starts with "solid "
EXCLUDED_NAMES = ("source-information.json", "meta-information.json")

LICENSE_TEXTS = {
    "Apache-2.0": ("Apache License\nVersion 2.0, January 2004\nhttp://www.apache.org/licenses/\n\n"
                   "Licensed under the Apache License, Version 2.0 (the \"License\");\n"
                   "you may not use this file except in compliance with the License.\n"),
    "BSD-3-Clause": ("Copyright (c) 2015, the authors\nAll rights reserved.\n\n"
                     "Redistribution and use in source and binary forms, with or without\n"
                     "modification, are permitted provided that the following conditions are met:\n"
                     "* Neither the name of the copyright holder nor the names of its\n"
                     "  contributors may be used to endorse or promote products.\n"),
    "BSD-2-Clause": ("Copyright (c) 2017, the authors\nAll rights reserved.\n\n"
                     "Redistribution and use in source and binary forms, with or without\n"
                     "modification, are permitted provided that the following conditions are met:\n"
                     "1. Redistributions of source code must retain the above copyright notice.\n"),
    "MIT": ("MIT License\n\nCopyright (c) 2019 the authors\n\n"
            "Permission is hereby granted, free of charge, to any person obtaining a copy\n"
            "of this software and associated documentation files (the \"Software\").\n"),
}

XACRO_BANNER = ("<!-- =================================================================== -->\n"
                "<!-- |  This document was autogenerated by xacro from robot.urdf.xacro | -->\n"
                "<!-- =================================================================== -->\n")


# --------------------------------------------------------------------------
# Normalization oracle: the rule the tool documents, written independently.
# --------------------------------------------------------------------------


def normalize_text(content: bytes) -> bytes:
    """Drop spaces and tabs, then turn every CRLF, CR or LF into CRLF."""
    stripped = content.translate(None, b" \t")
    return stripped.replace(b"\r\n", b"\n").replace(b"\r", b"\n").replace(b"\n", b"\r\n")


def is_text_file(rel: str, content: bytes) -> bool:
    ext = rel.rsplit(".", 1)[-1].lower() if "." in rel.rsplit("/", 1)[-1] else ""
    if ext in TEXT_EXTS:
        return True
    return ext == "stl" and content.startswith(b"solid ")


# --------------------------------------------------------------------------
# Robot models.
# --------------------------------------------------------------------------


@dataclass
class JointSpec:
    name: str
    kind: str
    parent: str
    child: str
    xyz: tuple[float, float, float]
    rpy: tuple[float, float, float]
    axis: tuple[float, float, float]
    lower: float | None = None
    upper: float | None = None


@dataclass
class RobotSpec:
    name: str
    links: list[str]
    joints: list[JointSpec]
    # link -> (visual mesh file, collision mesh file); links not listed use boxes
    meshes: dict[str, tuple[str, str]] = field(default_factory=dict)
    banner: bool = False


def _r(value: float, digits: int = 4) -> float:
    return round(value, digits) + 0.0  # + 0.0 turns -0.0 into 0.0


def random_robot(rng: random.Random, name: str, n_links: int,
                 kinds: tuple[float, float, float, float]) -> RobotSpec:
    """A random deep branching tree; ``kinds`` weighs revolute,
    continuous, prismatic and fixed joints."""
    links = [f"{name}_l{i}" for i in range(n_links)]
    joints = []
    for i in range(1, n_links):
        parent = i - 1 if rng.random() < 0.65 else rng.randrange(i)
        kind = rng.choices(("revolute", "continuous", "prismatic", "fixed"), kinds)[0]
        axis = rng.choice(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.0, 0.0, -1.0),
                           None))
        if axis is None:
            raw = [rng.uniform(-1, 1) for _ in range(3)]
            norm = math.sqrt(sum(v * v for v in raw)) or 1.0
            axis = tuple(_r(v / norm) for v in raw)
            if not any(axis):
                axis = (0.0, 0.0, 1.0)
        lower = upper = None
        if kind == "revolute":
            lower, upper = -_r(rng.uniform(0.5, 3.0), 3), _r(rng.uniform(0.5, 3.0), 3)
        elif kind == "prismatic":
            lower, upper = -_r(rng.uniform(0.05, 0.5), 3), _r(rng.uniform(0.05, 0.5), 3)
        joints.append(JointSpec(
            name=f"{name}_j{i}", kind=kind, parent=links[parent], child=links[i],
            xyz=tuple(_r(rng.uniform(-0.25, 0.25)) for _ in range(3)),
            rpy=tuple(_r(rng.uniform(-3.1, 3.1)) for _ in range(3)),
            axis=axis, lower=lower, upper=upper))
    return RobotSpec(name, links, joints)


def motion_pattern(robot: RobotSpec) -> str:
    """Motion class of each actuated joint in declaration order: R or P."""
    return "".join("P" if j.kind == "prismatic" else "R"
                   for j in robot.joints if j.kind != "fixed")


def leaf_count(robot: RobotSpec) -> int:
    parents = {j.parent for j in robot.joints}
    return sum(1 for link in robot.links if link not in parents)


def mechanism(robot: RobotSpec) -> tuple[str, int]:
    """Motion classes (R or P) of the actuated joints in tree preorder,
    children taken by joint name, and the leaf count: what every copy of
    one mechanism shares, in whatever order its file declares it."""
    children: dict[str, list[JointSpec]] = {}
    for joint in robot.joints:
        children.setdefault(joint.parent, []).append(joint)
    joint_of = {j.child: j for j in robot.joints}
    order = []
    stack = [link for link in robot.links if link not in joint_of]
    while stack:
        link = stack.pop()
        stack += [j.child for j in sorted(children.get(link, []), key=lambda j: j.name,
                                          reverse=True)]
        joint = joint_of.get(link)
        if joint is not None and joint.kind != "fixed":
            order.append("P" if joint.kind == "prismatic" else "R")
    return "".join(order), leaf_count(robot)


def render_urdf(robot: RobotSpec, package: str, defect: str = "") -> str:
    """URDF text; ``defect`` plants one of the error codes A-F."""
    out = ['<?xml version="1.0"?>\n']
    if robot.banner:
        out.append(XACRO_BANNER)
    out.append(f'<robot name="{"" if defect == "D" else robot.name}">\n')
    out.append(' <material name="grey">\n  <color rgba="0.6 0.6 0.6 1.0"/>\n </material>\n')
    links = [] if defect == "B" else list(robot.links)
    joints = [] if defect == "B" else list(robot.joints)
    if defect == "C":
        links.append(links[-1])
    for link in links:
        mesh = robot.meshes.get(link)
        if mesh is None:
            visual = collision = ' <box size="0.1 0.1 0.1"/>'
        else:
            visual = f' <mesh filename="package://{package}/meshes/{mesh[0]}"/>'
            collision = f' <mesh filename="package://{package}/meshes/{mesh[1]}"/>'
        out.append(
            f' <link name="{link}">\n'
            '  <inertial>\n   <mass value="1.0"/>\n'
            '   <inertia ixx="0.01" ixy="0" ixz="0" iyy="0.01" iyz="0" izz="0.01"/>\n'
            '  </inertial>\n'
            f'  <visual>\n   <geometry>\n   {visual}\n   </geometry>\n'
            '   <material name="grey"/>\n  </visual>\n'
            f'  <collision>\n   <geometry>\n   {collision}\n   </geometry>\n  </collision>\n'
            ' </link>\n')
    for index, joint in enumerate(joints):
        child = "missing_link" if defect == "E" and index == 0 else joint.child
        xyz = " ".join(repr(v) for v in joint.xyz)
        rpy = " ".join(repr(v) for v in joint.rpy)
        axis = " ".join(repr(v) for v in joint.axis)
        if joint.kind == "continuous":
            limit = '  <limit effort="10.0" velocity="1.0"/>\n'
        elif joint.kind in ("revolute", "prismatic"):
            effort = "" if defect == "A" and index == 0 else ' effort="10.0"'
            limit = (f'  <limit lower="{joint.lower!r}" upper="{joint.upper!r}"'
                     f'{effort} velocity="1.0"/>\n')
        else:
            limit = ""
        out.append(
            f' <joint name="{joint.name}" type="{joint.kind}">\n'
            f'  <parent link="{joint.parent}"/>\n  <child link="{child}"/>\n'
            f'  <origin xyz="{xyz}" rpy="{rpy}"/>\n  <axis xyz="{axis}"/>\n'
            f'{limit} </joint>\n')
    text = "".join(out) + "</robot>\n"
    if defect == "F":
        text = text[: len(text) - len("</robot>\n") - len(" </joint>\n")]
    return text


def reordered(robot: RobotSpec) -> RobotSpec:
    """The same mechanism with links and joints declared in reverse order."""
    return replace(robot, links=robot.links[::-1], joints=robot.joints[::-1])


def moved(robot: RobotSpec, rng: random.Random) -> RobotSpec:
    """One joint origin shifted 5 cm, far beyond the default --fk-tol."""
    joints = list(robot.joints)
    index = rng.randrange(len(joints))
    x, y, z = joints[index].xyz
    joints[index] = replace(joints[index], xyz=(_r(x + 0.05), y, z))
    return replace(robot, joints=joints)


def extended(robot: RobotSpec, rng: random.Random) -> RobotSpec:
    """One extra revolute joint and link hung off a random link."""
    link = f"{robot.name}_extra"
    joint = JointSpec(f"{robot.name}_extra_joint", "revolute", rng.choice(robot.links), link,
                      (0.0, 0.0, 0.1), (0.0, 0.0, 0.0), (0.0, 0.0, 1.0), -1.0, 1.0)
    return replace(robot, links=robot.links + [link], joints=robot.joints + [joint])


def _spread(count: int, low: int, high: int) -> list[int]:
    """``count`` integers spread evenly over [low, high]."""
    if count == 1:
        return [low]
    return [low + (high - low) * i // (count - 1) for i in range(count)]


def _balanced(rng: random.Random, count: int, shares: dict[str, int]) -> list[str]:
    """Exactly ``shares[label]`` of each label, the rest ``""``, shuffled."""
    labels = [label for label, n in shares.items() for _ in range(n)]
    labels += [""] * (count - len(labels))
    rng.shuffle(labels)
    return labels


# --------------------------------------------------------------------------
# Meshes.
# --------------------------------------------------------------------------


def binary_stl(nrng: np.random.Generator, triangles: int) -> bytes:
    header = b"binary stl exported by meshtool".ljust(80, b"\x00")
    return header + int(triangles).to_bytes(4, "little") + nrng.bytes(50 * triangles)


def _floats(nrng: np.random.Generator, count: int) -> list[str]:
    return [f"{v:.5f}" for v in (nrng.random(count) * 2.0 - 1.0).tolist()]


def ascii_stl(nrng: np.random.Generator, name: str, facets: int) -> bytes:
    values = _floats(nrng, facets * 12)
    parts = [f"solid {name}\n"]
    for f in range(facets):
        v = values[12 * f: 12 * f + 12]
        parts.append(
            f"  facet normal {v[0]} {v[1]} {v[2]}\n    outer loop\n"
            f"      vertex {v[3]} {v[4]} {v[5]}\n      vertex {v[6]} {v[7]} {v[8]}\n"
            f"      vertex {v[9]} {v[10]} {v[11]}\n    endloop\n  endfacet\n")
    parts.append(f"endsolid {name}\n")
    return "".join(parts).encode()


def collada(nrng: np.random.Generator, name: str, count: int) -> bytes:
    values = _floats(nrng, count)
    rows = "\n".join(" ".join(values[i: i + 12]) for i in range(0, count, 12))
    return (f'<?xml version="1.0" encoding="utf-8"?>\n<COLLADA version="1.4.1">\n'
            f' <library_geometries>\n  <geometry id="{name}">\n   <mesh>\n'
            f'    <source id="{name}-positions">\n'
            f'     <float_array id="{name}-array" count="{count}">\n{rows}\n'
            f'     </float_array>\n    </source>\n   </mesh>\n  </geometry>\n'
            f' </library_geometries>\n</COLLADA>\n').encode()


def wavefront(nrng: np.random.Generator, name: str, vertices: int) -> bytes:
    values = _floats(nrng, vertices * 3)
    lines = [f"o {name}\n"]
    lines += [f"v {values[3 * i]} {values[3 * i + 1]} {values[3 * i + 2]}\n" for i in range(vertices)]
    lines += [f"f {i} {i + 1} {i + 2}\n" for i in range(1, vertices - 1, 3)]
    return "".join(lines).encode()


def mesh_bytes(nrng: np.random.Generator, ext: str, name: str, size: int) -> bytes:
    """A text mesh of roughly ``size`` bytes: dae, obj or ASCII stl."""
    if ext == "dae":
        return collada(nrng, name, max(12, size // 9))
    if ext == "obj":
        return wavefront(nrng, name, max(3, size // 27))
    return ascii_stl(nrng, name, max(1, size // 230))


def crlf_variant(content: bytes) -> bytes:
    return content.replace(b"\n", b"\r\n")


def whitespace_variant(content: bytes) -> bytes:
    return content.replace(b" ", b" \t ")


# --------------------------------------------------------------------------
# Corpus writer.
# --------------------------------------------------------------------------


class CorpusWriter:
    """Writes files under a corpus root and records their ground truth."""

    def __init__(self, root: Path):
        self.root = root
        self.files: dict[str, dict] = {}
        self._keys: dict[str, bytes] = {}
        self.bundles: list[dict] = []

    def write(self, rel: str, content: bytes) -> None:
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(content)
        if path.name in EXCLUDED_NAMES:
            return
        text = is_text_file(rel, content)
        normalized = normalize_text(content) if text else content
        self.files[rel] = {"size": len(content), "text": text, "norm_size": len(normalized),
                           "md5": hashlib.md5(normalized).hexdigest()}
        self._keys[rel] = hashlib.sha256(normalized).digest()

    def write_json(self, rel: str, data) -> None:
        self.write(rel, (json.dumps(data, indent=2) + "\n").encode())

    def source(self, name: str) -> None:
        self.write_json(f"{name}/source-information.json",
                        {"name": name, "url": f"https://example.org/{name}"})

    def duplicate_groups(self) -> list[list[str]]:
        """Files whose normalized contents are identical, two or more per group."""
        by_key: dict[bytes, list[str]] = {}
        for rel in sorted(self.files):
            by_key.setdefault(self._keys[rel], []).append(rel)
        return sorted((members for members in by_key.values() if len(members) > 1),
                      key=lambda m: m[0])

    def manifest(self, workload: str, seed: int, robots: list[dict]) -> dict:
        groups = self.duplicate_groups()
        for gid, members in enumerate(groups):
            for rel in members:
                self.files[rel]["group"] = gid
        return {"workload": workload, "seed": seed, "fk_samples": FK_SAMPLES,
                "bundles": self.bundles, "robots": robots, "files": self.files,
                "groups": groups}


_LAYOUTS = {"A": ("{robot}_description", "urdf"),
            "B": ("{mfr}_{robot}_support", "urdf"),
            "C": ("{robot}_description", "robots"),
            "D": ("{robot}_visualization", "urdf"),
            "Other": ("{robot}", "")}


def write_bundle(writer: CorpusWriter, source: str, robot: RobotSpec, meta: dict, *,
                 structure: str, license_id: str, xacro_flag: bool, defect: str = "",
                 meshes: dict[str, bytes] | None = None, text: str | None = None) -> None:
    """Write one bundle directory and record its manifest entry."""
    dirname, urdf_dir = _LAYOUTS[structure]
    bundle = dirname.format(robot=robot.name, mfr=meta["manufacturer"])
    base = f"{source}/{bundle}"
    urdf_rel = f"{urdf_dir}/{robot.name}.urdf" if urdf_dir else f"{robot.name}.urdf"
    if text is None:
        text = render_urdf(robot, f"{robot.name}_description", defect)
    writer.write(f"{base}/{urdf_rel}", text.encode())
    for name, content in sorted((meshes or {}).items()):
        writer.write(f"{base}/meshes/{name}", content)
    if license_id:
        writer.write(f"{base}/LICENSE", LICENSE_TEXTS[license_id].encode())
    bundle_id = f"{robot.name}-{source}"
    writer.write_json(f"{base}/meta-information.json", {
        "name": meta["name"], "type": meta["type"], "manufacturer": meta["manufacturer"],
        "urdf-location": urdf_rel, "id": bundle_id,
        "source-url": f"https://example.org/{source}/{bundle}",
        "xacro-generated": xacro_flag})
    visual = sorted({m[0].rsplit(".", 1)[-1] for link, m in robot.meshes.items()
                     if link in robot.links})
    collision = sorted({m[1].rsplit(".", 1)[-1] for link, m in robot.meshes.items()
                        if link in robot.links})
    writer.bundles.append({
        "source": source, "id": bundle_id, "dir": base, "name": meta["name"],
        "manufacturer": meta["manufacturer"], "type": meta["type"],
        "structure": structure, "license": license_id or "Unknown",
        "xacro_flag": xacro_flag, "banner": robot.banner,
        "errors": [defect] if defect else [], "parsed": not defect,
        "visual_exts": [] if defect else visual,
        "collision_exts": [] if defect else collision})


def _robot_row(name: str, meta: dict, members: list[tuple[str, str, RobotSpec, str]]) -> dict:
    """Expected discrepancy row; members are (source, kind, robot, urdf text)."""
    kinds = [kind for _, kind, _, _ in members]
    lines = {text.count("\n") for _, _, _, text in members}
    pair_truth = []
    comparable_pairs = 0
    n = len(members)
    for i in range(n):
        for j in range(i + 1, n):
            a, b = members[i], members[j]
            pair_kinds = {a[1], b[1]}
            if "extra" in pair_kinds:
                pair_truth.append(None)
            else:
                pair_truth.append("moved" in pair_kinds)
            if mechanism(a[2]) == mechanism(b[2]):
                comparable_pairs += 1
    if True in pair_truth:
        fk = "true"
    elif None in pair_truth:
        fk = "incomparable"
    else:
        fk = "false"
    extra = "extra" in kinds
    diff_lines = len(lines) > 1
    flags = {"joints": extra, "links": extra, "cad": False, "lines": diff_lines}
    any_excl = extra or fk == "true"
    row = {"robot": meta["name"], "manufacturer": meta["manufacturer"], "type": meta["type"],
           "sources": ";".join(sorted(s for s, _, _, _ in members)),
           **{k: "true" if v else "false" for k, v in flags.items()}, "fk": fk,
           "any": "true" if any_excl or diff_lines else "false",
           "any_excl_lines": "true" if any_excl else "false"}
    return {"key": name, "copies": kinds, "row": row, "pairs": len(pair_truth),
            "comparable_pairs": comparable_pairs}


def _copy_kinds(rng: random.Random, extra_counts: list[int], shares: dict[str, int]) -> list[list[str]]:
    """Kinds of the extra copies per robot: at most one 'moved' and one
    'extra' per robot, with exactly ``shares`` of each kind overall."""
    pool = [kind for kind, n in shares.items() for _ in range(n)]
    assert len(pool) == sum(extra_counts)
    for _ in range(1000):
        rng.shuffle(pool)
        out, at = [], 0
        for count in extra_counts:
            out.append(pool[at: at + count])
            at += count
        if all(k.count("moved") <= 1 and k.count("extra") <= 1 for k in out):
            return out
    raise RuntimeError("no valid copy assignment")


def _derive(rng: random.Random, robot: RobotSpec, kind: str) -> RobotSpec:
    if kind == "reordered":
        return reordered(robot)
    if kind == "moved":
        return moved(robot, rng)
    if kind == "extra":
        return extended(robot, rng)
    return robot


# --------------------------------------------------------------------------
# Workloads.
# --------------------------------------------------------------------------

# The published dataset (322 bundles): bundles per source and folder
# structures, as tests/test_acceptance.py records them.  drake's 16
# bundles join the oems source, so that the corpus has five sources.
PUBLISHED_SOURCES = {"ros-industrial": 108, "matlab": 52, "robotics-toolbox": 44,
                     "oems": 16 + 35, "random": 67}
PUBLISHED_STRUCTURES = {"A": 42, "B": 60, "C": 6, "D": 8, "Other": 322 - 42 - 60 - 6 - 8}
# (robot type, joint kind weights: revolute, continuous, prismatic, fixed)
ROBOT_TYPES = (("arm", (0.7, 0.1, 0.0, 0.2)), ("mobile", (0.2, 0.3, 0.2, 0.3)),
               ("gantry", (0.3, 0.0, 0.4, 0.3)), ("humanoid", (0.6, 0.1, 0.05, 0.25)))


def scaled(shares: dict[str, int], total: int) -> dict[str, int]:
    """``shares`` scaled to sum to ``total``, by largest remainder."""
    whole = sum(shares.values())
    out = {k: v * total // whole for k, v in shares.items()}
    by_remainder = sorted(shares, key=lambda k: (-(shares[k] * total % whole), k))
    for k in by_remainder[: total - sum(out.values())]:
        out[k] += 1
    return out


def _place(rng: random.Random, copies: list[int], capacity: dict[str, int]) -> list[list[str]]:
    """Distinct sources for each robot's copies, filling every source to
    exactly its capacity: robots with most copies first, each into the
    sources with most room left."""
    left = dict(capacity)
    out: list[list[str]] = [[] for _ in copies]
    for i in sorted(range(len(copies)), key=lambda i: -copies[i]):
        chosen = sorted(left, key=lambda s: (-left[s], rng.random()))[: copies[i]]
        for source in chosen:
            left[source] -= 1
        rng.shuffle(chosen)
        out[i] = chosen
    assert not any(left.values())
    return out


def _scan_mixed(rng: random.Random, nrng: np.random.Generator, writer: CorpusWriter) -> list[dict]:
    """320 bundles of 272 robots in 5 sources sized and structured like
    the published dataset; 40 robots (14.7%) have 48 extra copies, 12 of
    each kind; 6 single-source files carry each of the error codes A-F."""
    n_robots = 272
    extra_counts = [1] * 32 + [2] * 8
    n_bundles = n_robots + sum(extra_counts)
    plan = random.Random("scan_mixed plan")
    sizes = _spread(n_robots, 2, 60)
    plan.shuffle(sizes)
    # Multiply defined robots are spread evenly over the sizes.
    by_size = sorted(range(n_robots), key=lambda i: (sizes[i], i))
    multi = sorted(by_size[k * n_robots // len(extra_counts) + 3] for k in range(len(extra_counts)))
    single = [i for i in range(n_robots) if i not in set(multi)]
    defect_of = dict(zip(single, _balanced(plan, len(single), {c: 6 for c in "ABCDEF"})))
    copy_kinds = dict(zip(multi, _copy_kinds(plan, extra_counts, {
        "equal": 12, "reordered": 12, "moved": 12, "extra": 12})))
    structures = _balanced(rng, n_bundles, scaled(PUBLISHED_STRUCTURES, n_bundles))
    # Licenses, xacro flags and banners have no published shares; these are stated choices.
    licenses = _balanced(rng, n_bundles, {"Apache-2.0": 80, "BSD-3-Clause": 64,
                                          "BSD-2-Clause": 32, "MIT": 48})
    xacro_flags = _balanced(rng, n_bundles, {"x": 64})
    banners = _balanced(rng, n_robots, {"b": 82})
    placement = _place(rng, [1 + len(copy_kinds.get(i, [])) for i in range(n_robots)],
                       scaled(PUBLISHED_SOURCES, n_bundles))
    # Collision meshes that unrelated robots in different sources share.
    shared = [binary_stl(nrng, 400 + k) for k in range(10)]

    for source in PUBLISHED_SOURCES:
        writer.source(source)
    robots_out = []
    for i in range(n_robots):
        rtype, weights = ROBOT_TYPES[i % len(ROBOT_TYPES)]
        name = f"r{i:03d}"
        robot = random_robot(rng, name, sizes[i], weights)
        robot.banner = bool(banners[i])
        defect = defect_of.get(i, "")
        if defect == "A" and robot.joints[0].kind not in ("revolute", "prismatic"):
            robot.joints[0] = replace(robot.joints[0], kind="revolute", lower=-1.0, upper=1.0)
        meta = {"name": f"Robot {i:03d}", "type": rtype, "manufacturer": f"maker{i % 23:02d}"}
        vis_ext = rng.choice(("stl", "dae", "obj"))
        meshes: dict[str, bytes] = {}
        for k, link in enumerate(robot.links[: 3 + len(robot.links) // 10]):
            vis, col = f"{link}_visual.{vis_ext}", f"{link}_collision.stl"
            robot.meshes[link] = (vis, col)
            meshes[vis] = mesh_bytes(nrng, vis_ext, vis, rng.randrange(600, 4000))
            if k == 0 and i % 5 == 0:
                meshes[col] = shared[(i // 5) % len(shared)]
            else:
                meshes[col] = binary_stl(nrng, rng.randrange(4, 120))
        kinds = ["base"] + copy_kinds.get(i, [])
        members = []
        for source, kind in zip(placement[i], kinds):
            variant = _derive(rng, robot, kind)
            slot = len(writer.bundles)
            bundle_defect = defect if kind == "base" else ""
            text = render_urdf(variant, f"{name}_description", bundle_defect)
            write_bundle(writer, source, variant, meta, structure=structures[slot] or "Other",
                         license_id=licenses[slot], xacro_flag=bool(xacro_flags[slot]),
                         defect=bundle_defect, meshes=meshes, text=text)
            members.append((source, kind, variant, text))
        if len(members) > 1:
            robots_out.append(_robot_row(name, meta, members))
    return robots_out


def _compare_fk(rng: random.Random, nrng: np.random.Generator, writer: CorpusWriter) -> list[dict]:
    """14 robots of 30-60 links, each in 3 or 4 of 4 sources, no meshes."""
    sources = ("fk-alpha", "fk-beta", "fk-gamma", "fk-delta")
    n_robots = 14
    extra_counts = [3] * 7 + [2] * 7  # 35 extra copies
    plan = random.Random("compare_fk plan")
    sizes = _spread(n_robots, 30, 60)
    plan.shuffle(sizes)
    copy_kinds = _copy_kinds(plan, extra_counts, {
        "equal": 17, "reordered": 8, "moved": 5, "extra": 5})
    for source in sources:
        writer.source(source)
    robots_out = []
    for i in range(n_robots):
        name = f"m{i:02d}"
        robot = random_robot(rng, name, sizes[i], (0.45, 0.15, 0.15, 0.25))
        pattern = motion_pattern(robot)
        if pattern == pattern[::-1]:
            # Keep reversed copies structurally distinct from the original
            # in declaration order, so FK work per seed stays the same.
            first = next(k for k, j in enumerate(robot.joints) if j.kind != "fixed")
            robot.joints[first] = replace(robot.joints[first], kind="prismatic",
                                          lower=-0.2, upper=0.2)
        meta = {"name": f"Mechanism {i:02d}", "type": "arm", "manufacturer": f"fab{i % 5}"}
        kinds = ["base"] + copy_kinds[i]
        members = []
        for source, kind in zip(rng.sample(sources, len(kinds)), kinds):
            variant = _derive(rng, robot, kind)
            text = render_urdf(variant, f"{name}_description")
            write_bundle(writer, source, variant, meta, structure="A", license_id="",
                         xacro_flag=False, text=text)
            members.append((source, kind, variant, text))
        robots_out.append(_robot_row(name, meta, members))
    return robots_out


def _dupes_meshes(rng: random.Random, nrng: np.random.Generator, writer: CorpusWriter) -> list[dict]:
    """24 tiny URDF bundles in 4 sources carrying about 240 MB of meshes."""
    sources = ("mesh-north", "mesh-east", "mesh-south", "mesh-west")
    bundles = [(s, f"part{s[5]}{k}") for s in sources for k in range(6)]
    placed: dict[int, dict[str, bytes]] = {b: {} for b in range(len(bundles))}

    def place(name: str, content: bytes, where: int | None = None) -> None:
        where = rng.randrange(len(bundles)) if where is None else where
        while name in placed[where]:
            name = "x" + name
        placed[where][name] = content

    # Multi-MB text meshes copied into six bundles each, in CRLF and
    # whitespace variants that normalize to the same bytes.
    variants = (lambda c: c, crlf_variant, whitespace_variant)
    for k, (ext, size) in enumerate((("dae", 4_000_000), ("stl", 3_000_000), ("dae", 2_000_000))):
        content = mesh_bytes(nrng, ext, f"hull{k}", size)
        for copy, where in enumerate(rng.sample(range(len(bundles)), 6)):
            place(f"hull{k}.{ext}", variants[copy % 3](content), where)
    # Small text meshes copied three times.
    for k in range(8):
        ext = ("dae", "obj", "stl")[k % 3]
        content = mesh_bytes(nrng, ext, f"bracket{k}", 20_000 + 8_000 * k)
        for copy in range(3):
            place(f"bracket{k}.{ext}", variants[copy](content))
    # Unique text meshes.
    for k, size in enumerate(_spread(36, 200_000, 900_000)):
        ext = ("dae", "obj", "stl")[k % 3]
        place(f"panel{k}.{ext}", mesh_bytes(nrng, ext, f"panel{k}", size))
    # Binary STL: 110 files of distinct sizes, 5 same-size pairs with
    # different content, and 3 meshes copied three times each.
    counts = _spread(110 + 3, 6_000, 50_000)
    random.Random("dupes_meshes plan").shuffle(counts)
    for k, triangles in enumerate(sorted(counts[:110])):
        place(f"casting{k}.stl", binary_stl(nrng, triangles))
    for k, triangles in enumerate(_spread(5, 10_000, 14_000)):
        place(f"twin{k}a.stl", binary_stl(nrng, triangles + 50_000))
        place(f"twin{k}b.stl", binary_stl(nrng, triangles + 50_000))
    for k, triangles in enumerate(counts[110:]):
        content = binary_stl(nrng, triangles)
        for copy in range(3):
            place(f"gear{k}.stl", content)

    for source in sources:
        writer.source(source)
    for b, (source, name) in enumerate(bundles):
        robot = random_robot(rng, name, 3, (0.5, 0.0, 0.0, 0.5))
        mesh_names = sorted(placed[b])
        for link, mesh in zip(robot.links, mesh_names[:2]):
            robot.meshes[link] = (mesh, mesh)
        meta = {"name": f"Part {name}", "type": "part", "manufacturer": source}
        write_bundle(writer, source, robot, meta, structure="A", license_id="",
                     xacro_flag=False, meshes=placed[b])
    return []


_WORKLOAD_CORPORA = {"scan_mixed": _scan_mixed, "compare_fk": _compare_fk, "dupes_meshes": _dupes_meshes}


def make_corpus(workload: str, seed: int, root: Path | str) -> dict:
    """Write the corpus of ``workload`` for ``seed`` under ``root`` (which
    must not exist yet) and return its manifest."""
    root = Path(root)
    root.mkdir(parents=True)
    rng = random.Random(f"{workload}:{seed}")
    nrng = np.random.default_rng([WORKLOADS.index(workload), seed])
    writer = CorpusWriter(root)
    robots = _WORKLOAD_CORPORA[workload](rng, nrng, writer)
    return writer.manifest(workload, seed, robots)


def main(argv: list[str]) -> int:
    if len(argv) != 3 or argv[0] not in WORKLOADS:
        print(f"usage: corpus.py {{{'|'.join(WORKLOADS)}}} SEED DIR", file=sys.stderr)
        return 2
    out = Path(argv[2])
    manifest = make_corpus(argv[0], int(argv[1]), out / "corpus")
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
