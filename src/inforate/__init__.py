"""Information loss rates of memoryless systems driven by stationary
stochastic processes: piecewise-bijective function machinery, process
models, estimators, bounds, lumpability checks, and relative loss."""

__version__ = "0.1.0"

from . import errors
from .estimate import (
    QuadratureConfig,
    cond_entropy_W_given_X,
    diff_entropy_hist,
    markov_block_entropy_W,
    mutual_information_hist,
    quad,
    quad_batch,
)
from .lossrate import (
    LossRateReport,
    analyze_loss_rate,
    cascade_loss_rate,
    loss_rate_analytic,
    loss_rate_bounds_mc,
    loss_rv,
)
from .lumpability import LumpabilityReport, check_lumpable, check_tightness
from .pbf import (
    Branch,
    PiecewiseFunction,
    compose,
    constant_branch,
    identity,
    injective_branch,
    magnitude,
    quantizer,
    scale,
    shift_mod,
    square,
)
from .process import (
    MarkovKernel,
    PathSample,
    StationaryProcess,
    make_ar1,
    make_cyclic_walk,
    make_iid,
    make_iid_gaussian,
    make_iid_uniform,
    make_tightness_example,
    pushforward_process,
    sample_path,
)
from .relloss import (
    downsampler_relative_loss,
    empirical_constant_frequency,
    relative_loss_rate_constant_pieces,
)

__all__ = [
    "__version__",
    "errors",
    "QuadratureConfig",
    "quad",
    "quad_batch",
    "diff_entropy_hist",
    "mutual_information_hist",
    "cond_entropy_W_given_X",
    "markov_block_entropy_W",
    "Branch",
    "PiecewiseFunction",
    "injective_branch",
    "constant_branch",
    "identity",
    "magnitude",
    "scale",
    "square",
    "shift_mod",
    "quantizer",
    "compose",
    "MarkovKernel",
    "StationaryProcess",
    "PathSample",
    "make_ar1",
    "make_cyclic_walk",
    "make_tightness_example",
    "make_iid",
    "make_iid_gaussian",
    "make_iid_uniform",
    "sample_path",
    "pushforward_process",
    "LossRateReport",
    "loss_rv",
    "loss_rate_analytic",
    "loss_rate_bounds_mc",
    "cascade_loss_rate",
    "analyze_loss_rate",
    "LumpabilityReport",
    "check_lumpable",
    "check_tightness",
    "relative_loss_rate_constant_pieces",
    "downsampler_relative_loss",
    "empirical_constant_frequency",
]
