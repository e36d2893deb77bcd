"""loxokit: numerics for spectra and dynamics around closed hyperbolic orbits.

Subpackages cover symplectic linear algebra and normal forms, Hamiltonian
flows with closed-orbit and control diagnostics, radial model spectra on a
hyperbolic cylinder, complex-absorbed model resolvents, and the damped wave
equation on a warped product.

Importing loxokit runs numpy's and scipy's bundled OpenBLAS on one thread
for the rest of the process (see _blas).
"""

from ._blas import pin_single_thread

pin_single_thread()

from .symplectic import (
    HAMILTON_MATRIX,
    POINCARE_MAP,
    ComplexHyperbolicQuad,
    DefectiveBeyondTolerance,
    EllipticEigenvaluePresent,
    EllipticGroup,
    GroupingFailed,
    HamiltonMatrix,
    NegativeRealEigenvalue,
    NotPositiveDefinite,
    NotSymplectic,
    QuadraticHamiltonian,
    RealHyperbolicPair,
    SpectrumClassification,
    SymplecticError,
    SymplecticTransform,
    classify,
    hamilton_matrix,
    hamilton_residual,
    standard_symplectic_matrix,
    symplectic_log,
    symplectic_pairing,
    symplectic_residual,
)
from .normal_form import (
    BirkhoffNormalForm,
    EscapeRateForm,
    WilliamsonDecomposition,
    birkhoff_normal_form,
    escape_rate_form,
    williamson,
)
from .flows import (
    ClosedOrbit,
    ControlReport,
    FlowError,
    HamiltonianSystem,
    MonodromyData,
    check_geometric_control,
    find_closed_orbit,
    flow,
    linearized_poincare_map,
    surface_of_revolution,
    surface_state,
    system_from_config,
    trajectory_average,
)
from .spectra import (
    ConcentrationReport,
    RadialOperator,
    build_radial_operator,
    mass_outside,
    neck_mode,
    nonconcentration_scan,
    solve_eigenpairs,
)
from .resolvent import (
    AbsorbingProfile,
    DiscretizedOperator,
    ResolventScan,
    global_absorption_check,
    harm_osc_lower_bound,
    quantize_model,
    sigma_min_point,
    sigma_min_scan,
)
from .dampedwave import (
    DampedWaveProblem,
    DecayReport,
    EigenfrequencySet,
    EnergyTrace,
    assemble_pencil,
    decay_report,
    eigenfrequencies,
    eigenfrequency_scan,
    evolve,
    mode_frame,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
