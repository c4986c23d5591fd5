"""Shared fixtures: reference URDF texts and corpus tree builders."""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

# The worked 2 DoF planar robot: 3 links, 2 continuous joints about y,
# each joint offset 0.5 m up from its parent.
LISTING1 = """\
<?xml version="1.0" encoding="utf-8"?>
<robot name="2 DOF planar robot">
 <link name="base link">
  <visual>
   <origin xyz="0 0 0.25"/>
   <geometry>
    <box size="0.5 0.5 0.5"/>
   </geometry>
  </visual>
 </link>
 <link name="link 1">
  <visual>
   <origin xyz="0 0 0.25"/>
   <geometry>
    <cylinder radius="0.1" length="0.5"/>
   </geometry>
  </visual>
 </link>
 <link name="link 2">
  <visual>
   <origin xyz="0 0 0.25"/>
   <geometry>
    <cylinder radius="0.1" length="0.5"/>
   </geometry>
  </visual>
 </link>
 <joint name="joint 1" type="continuous">
  <parent link="base link" />
  <child link="link 1" />
  <axis xyz="0 1 0" />
  <origin xyz="0 0 0.5"/>
 </joint>
 <joint name="joint 2" type="continuous">
  <parent link="link 1" />
  <child link="link 2" />
  <axis xyz="0 1 0" />
  <origin xyz="0 0 0.5"/>
 </joint>
</robot>
"""

# Header the xacro preprocessor stamps on generated URDF output.
XACRO_BANNER = """\
<?xml version="1.0" ?>
<!-- =================================================================================== -->
<!-- |    This document was autogenerated by xacro from model.urdf.xacro               | -->
<!-- |    EDITING THIS FILE BY HAND IS NOT RECOMMENDED                                  | -->
<!-- =================================================================================== -->
"""


def simple_urdf(name: str = "robot", joint_type: str = "fixed",
                visual_mesh: str | None = None, collision_mesh: str | None = None,
                extra: str = "") -> str:
    """Two-link single-joint robot, optionally with mesh geometries."""
    visual = f'<visual><geometry><mesh filename="{visual_mesh}"/></geometry></visual>' \
        if visual_mesh else ""
    collision = f'<collision><geometry><mesh filename="{collision_mesh}"/></geometry></collision>' \
        if collision_mesh else ""
    limit = '<limit lower="-1" upper="1" effort="10" velocity="1"/>' \
        if joint_type in ("revolute", "prismatic") else ""
    return f"""<robot name="{name}">
  <link name="base">{visual}{collision}</link>
  <link name="tip"/>
  <joint name="j1" type="{joint_type}">
    <parent link="base"/>
    <child link="tip"/>
    {limit}
  </joint>
  {extra}
</robot>
"""


def write_bundle(source_dir: Path, dirname: str, urdf_text: str, *,
                 robot_name: str = "robot", robot_type: str = "robotic arm",
                 manufacturer: str = "Acme", bundle_id: str | None = None,
                 xacro: bool = False, urdf_folder: str = "urdf",
                 meshes: dict[str, bytes] | None = None,
                 license_text: str | None = None) -> Path:
    """Create one structure-A-style bundle directory with metadata."""
    bundle = source_dir / dirname
    (bundle / urdf_folder).mkdir(parents=True)
    (bundle / "meshes").mkdir()
    urdf_rel = f"{urdf_folder}/{robot_name}.urdf"
    (bundle / urdf_rel).write_text(urdf_text, encoding="utf-8")
    for rel, data in (meshes or {}).items():
        path = bundle / "meshes" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    if license_text is not None:
        (bundle / "LICENSE").write_text(license_text, encoding="utf-8")
    meta = {
        "name": robot_name,
        "type": robot_type,
        "manufacturer": manufacturer,
        "urdf-location": urdf_rel,
        "id": bundle_id or dirname,
        "source-url": "https://example.org/" + dirname,
        "xacro-generated": xacro,
    }
    (bundle / "meta-information.json").write_text(json.dumps(meta), encoding="utf-8")
    return bundle


def symlink(target: str, path: Path) -> None:
    """Make ``path`` a symbolic link to ``target``, or skip the test where
    the platform or its permissions allow no symbolic links."""
    try:
        os.symlink(target, path)
    except (AttributeError, NotImplementedError, OSError):
        pytest.skip("needs symbolic links")


def write_source(root: Path, name: str) -> Path:
    source = root / name
    source.mkdir(parents=True)
    (source / "source-information.json").write_text(
        json.dumps({"name": name, "url": f"https://example.org/{name}"}), encoding="utf-8")
    return source


@pytest.fixture
def listing1() -> str:
    return LISTING1


@pytest.fixture
def small_corpus(tmp_path: Path) -> Path:
    """Two sources, two bundles each; one robot defined in both sources."""
    root = tmp_path / "corpus"
    alpha = write_source(root, "alpha")
    beta = write_source(root, "beta")
    write_bundle(alpha, "planar_description", LISTING1,
                 robot_name="planar", manufacturer="Acme")
    write_bundle(alpha, "gripper_description", simple_urdf("gripper", visual_mesh="claw.STL"),
                 robot_name="gripper", robot_type="end effector", manufacturer="Acme")
    write_bundle(beta, "planar_description", LISTING1 + "\n\n",
                 robot_name="planar", manufacturer="Acme", xacro=True)
    write_bundle(beta, "rover_description", simple_urdf("rover", collision_mesh="hull.stl"),
                 robot_name="rover", robot_type="mobile robot", manufacturer="Bolt")
    return root
