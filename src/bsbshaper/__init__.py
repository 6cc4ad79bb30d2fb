"""Time differentiation of ultrashort pulses with birefringent compensators."""

from .dispersion import (Contrast, Material, SellmeierModel, contrast, get_material,
                         group_index, load_materials, refractive_index)
from .ftsi import (FtsiWindow, Interferogram, JumpReport, RetrievedPhase,
                   detect_phase_jump, relative_phase, retrieve_phase,
                   subtract_reference, synthesize_interferogram, unwrap,
                   wrap_to_principal)
from .metrology import (DesignSolution, OverlapReport, achromat_design,
                        band_from_field, mode_overlap, objective_overlap,
                        score_compensator, stack_overlap, thickness_for_delay,
                        thickness_for_order)
from .pulsefield import (SpectralField, SpectralGrid, TimeTrace, apply_transfer,
                         default_grid, derivative_field_oracle, gaussian_pulse,
                         read_field_csv, replica_difference, to_frequency,
                         to_time, write_field_csv)
from .shaper import (Compensator, TransferFunction, TransferPair,
                     effective_response, first_order_response, objective_r2,
                     transfer_exact, transfer_exact_segments)

__version__ = "0.1.0"
