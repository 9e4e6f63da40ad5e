"""sindykit: sparse identification of nonlinear dynamics from time series.

Pipeline: simulate or load a sampled trajectory, estimate derivatives if
they were not measured, build a candidate-function library, solve for a
sparse coefficient matrix by sequential thresholded least squares, pick
the threshold on a held-out accuracy/complexity curve, and validate the
identified model by re-simulation.
"""

from .differentiation import (
    NoiseSpec,
    TvDiffConfig,
    add_noise,
    central_difference,
    differentiate_dataset,
    tv_derivative,
)
from .errors import ConfigError, DataError, NumericalError, SindykitError
from .library import LibrarySpec, build_matrix, enumerate_terms
from .model import (
    Mode,
    SparseModel,
    TermDescriptor,
    TimeSeriesDataset,
    model_from_json,
    model_to_json,
    render_table,
    support,
)
from .reduction import compute_basis, reduce_dataset
from .regression import FitReport, StlsqConfig, fit, least_squares, stlsq
from .selection import ParetoPoint, pick_elbow, sweep
from .systems import (
    SystemSpec,
    augment_signal,
    concatenate,
    iterate_map,
    logistic_ensemble,
    simulate,
    system_rhs,
)

__version__ = "0.1.0"
