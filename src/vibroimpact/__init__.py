"""Event-driven simulation and analysis of a periodically forced particle
bouncing elastically between rigid walls with dry friction."""

from .model import (ContractViolation, ForceLaw, ParameterError, Params,
                    PhaseState, StickingBand, applied_force, make_params,
                    params_from_dict, params_to_dict, sticking_band)
from .simulator import (ResolvedEvent, ResolvedKind, SimulationError,
                        StickInterval, Trajectory, resolve_impact,
                        resolve_velocity_zero, simulate, stick_release_time)
from .strobemap import (MapClass, MapResult, SaltationFactor,
                        finite_difference_jacobian, period_map,
                        period_map_jacobian)
from .oracle import OracleError, OracleTrajectory, oracle_simulate
from .orbits import (BranchPoint, ConjugacyReport, ContinuationResult,
                     FoldReport, Nonexistence, OrbitError, OrbitRecord,
                     OrbitType, SymmetricOrbitFormula, continue_in_friction,
                     find_periodic, lift_conjugacy_check,
                     symmetric_fold_friction, symmetric_orbit,
                     symmetric_orbit_formula, symmetric_orbit_state)
from .portrait import (AttractorRegistry, CellVerdict, CloudResult, GridError,
                       GridSpec, InvarianceReport, IslandAreaResult,
                       IslandSeedError, RegionGrid, Verdict, classify_cell,
                       classify_cells, classify_regions, invariance_check,
                       island_area, iterate_cloud, tile_from_bytes, verdicts_csv)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
