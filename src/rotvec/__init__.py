"""Numerical laboratory for rotation vectors of Hamiltonian flows on tori.

The package simulates Hamiltonian and locally Hamiltonian flows on symplectic
tori (and T*T^n), detects invariant measures with large rotation vectors by
Birkhoff averaging over seed grids, certifies minimax Poisson-bracket bounds
between distinguished regions, finds flow chords, and carries the whole story
over to time-periodic Hamiltonians through the autonomous suspension.
"""

from .errors import (BlowUp, ConfigError, DimensionError, EmptyTrajectory,
                     InfeasibleFamily, InfeasiblePins, InvalidPoint,
                     QuadratureWarning, RotvecError, StiffStep)
from .trig import TrigPoly
from .geometry import (DEFAULT_GAMMA, ClosedOneForm, CohomologyClass, PhaseSpace,
                       RegionSpec, RotationVector, SymplecticStructure,
                       cotangent_of_torus, flux_of_translation, momentum_level_torus,
                       one_form, product_of_levels, standard_structure, torus,
                       twisted_structure, wrap)
from .fields import (fourier_hamiltonian, make_pinned_profile, parse_family,
                     profile_hamiltonian)
from .dynamics import (Trajectory, VectorFieldSpec, hamiltonian_field, integrate,
                       locally_hamiltonian_field)
from .measures import (ConvergenceReport, EmpiricalMeasure, empirical_measure,
                       exact_boundary_term, extremal_orbit_search, full_seed_grid,
                       invariance_defect, invariance_defect_bound, loop_integral,
                       momentum_seed_grid, rotation_pairing, rotation_vector)
from .pbracket import (Chord, PbProblem, PbResult, averaged_bracket, bracket_poly,
                       chord_search, pb_upper_bound, sup_norm)
from .suspension import (CylinderMeasure, SuspendedHamiltonian,
                         cylinder_measure_from_suspension,
                         extend_space, extended_point, map_orbit_search,
                         rotation_pairing_time_one, shift_equivariance_check, stab,
                         step7_correspondence_check, suspended_field, suspension_flow,
                         time_one_orbit)
from .experiments import (Report, builtin_config, list_experiments, run,
                          validate_config)

__version__ = "0.1.0"
