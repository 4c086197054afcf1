"""vectorlight: structured vector light fields and the atomic transitions they drive.

Evaluates focused Laguerre-Gauss / Hermite-Gauss / radial / azimuthal vector
beams beyond the paraxial approximation (field values, gradients, second
derivatives), maps them to relative electric-dipole and electric-quadrupole
transition strengths of a localized atom (arbitrary quantization-axis
orientation, wavefunction averaging), and computes first-order motional
sideband strengths for a harmonically trapped atom.  A scan engine and CLI
produce normalized focal-plane map datasets.
"""

__version__ = "0.1.0"

from .constants import ATOMIC_MASS, HBAR
from .errors import ConfigurationError, NumericalError
from .special import (
    HalfInt,
    clebsch_gordan,
    halfint,
    hermite,
    laguerre,
    rotation_matrix,
)
from .beams import (
    BeamSpec,
    FieldSample,
    HGMode,
    LGMode,
    ModeTerm,
    field_components,
    field_sample_upto,
    make_radial_azimuthal,
)
from .coupling import (
    CouplingCoefficients,
    Geometry,
    Multipole,
    TransitionSpec,
    averaged_strength,
    averaged_strength_rms,
    coefficients_for,
    relative_strength,
    rotate_coefficients,
    strength_gradient,
)
from .motion import (
    SidebandRequest,
    TrapSpec,
    lamb_dicke,
    mu_derivative,
    sideband_strength,
    sideband_strength_at,
    zero_point_length,
)
from .scan import (
    FieldComponentObservable,
    MapDataset,
    ScanConfig,
    SidebandObservable,
    TransitionObservable,
    compare_maps,
    run_scan,
    run_scans,
)
