"""Vanishing calibrations for transverse plane pairs, with numeric verification."""

__version__ = "0.1.0"

from .exterior import (
    AlternatingTensor,
    FormField,
    comass,
    comass_oracle,
    evaluate,
    finite_difference_exterior_derivative,
    interior_product,
    wedge,
)
from .cutoff import (
    CutoffParams,
    angle_threshold,
    choose_a_for_angle,
    make_params,
    quartic_expansion,
    verify_inequality_one,
)
from .subspaces import (
    OrientedSubspace,
    PlanePair,
    intersect_and_split,
    principal_angles,
)
from .coords import WedgeCoordinates
from .retraction import RetractionMap, verify_area_nonincreasing
from .calibration import (
    VanishingCalibration,
    build_vanishing_calibration,
    coordinate_plane_sum,
    psi_bar,
    scaled_calibration,
    sum_pair_calibration,
    verify_calibration,
    verify_pair_calibration,
)
from .fermi import SurfacePatch, fermi_volume_ratio, verify_first_order
from .currents import (
    TriangulatedCurrent,
    boundary,
    calibration_inequality_check,
    integrate_form,
    mass,
    read_mesh,
    write_mesh,
)
from .reports import Check, VerificationReport
