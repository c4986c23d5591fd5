"""URDF parsing, validation and corpus-analysis toolkit."""

from .bundles import (
    BundleRecord,
    ContactMarkers,
    LicenseId,
    MeshInventory,
    StructureClass,
    classify_structure,
    contact_markers,
    detect_license,
    detect_xacro_generated,
    mesh_inventory,
    model_stats,
    name_substring_stats,
    scan_corpus,
)
from .compare import DiscrepancyReport, compare_group, find_multiply_defined, robot_key
from .dedup import DuplicateGroup, find_duplicates, normalize
from .kinematics import (
    FkComparison,
    Incomparable,
    JointConfig,
    KinematicTree,
    Transform,
    TreeError,
    UnsupportedJoint,
    build_tree,
    fk_equivalent,
    forward_kinematics,
)
from .model import (
    Box,
    Collision,
    Cylinder,
    Geometry,
    Inertial,
    Joint,
    JointKind,
    JointLimit,
    Link,
    Material,
    Mesh,
    ParseFailure,
    ParseNotice,
    Pose,
    RobotModel,
    Sphere,
    Visual,
    line_count,
    parse_urdf,
)
from .report import ReportTable, emit
from .validator import Diagnostic, ValidationResult, kinematic_sanity, validate

__version__ = "0.1.0"
