"""Information loss rate of a piecewise-bijective system and its bounds.

The per-sample loss of the marginal variable, L = H(X|Y) = h(X) - h(Y)
+ E[log2|g'(X)|], upper-bounds the per-sample loss rate of the process.
Sharper bounds come from the branch-index process W (its entropy rate,
and H(W2|X1) for Markov inputs), and a two-sided bracket follows from
conditioning the output entropy rate on X1 versus Y1.  When the output
process is verifiably Markov the rate itself is the entropy H(X2|Y2,X1)
of the current input's preimage given the current output and the
previous input, one nested quadrature.
"""

from dataclasses import dataclass, field
from itertools import accumulate

from .errors import (
    BadParameterError,
    ConstantBranchError,
    NoConvergenceError,
    NotLumpableError,
    TooFewSamplesError,
)
from .estimate import (
    DEFAULT_QUAD,
    _lagged_labels,
    _mi_from_labels,
    _support_image,
    cond_entropy_W_given_X,
    cond_entropy_X2_given_Y2_X1,
    cond_entropy_input_given_output,
    markov_block_entropy_W,
    resolve_bins,
)
from .lumpability import check_grid_params, check_lumpable
from .process import check_path_args, pushforward_process, sample_path

# the tol of the lumpability gate in front of the exact rate
_GATE_TOL = 1e-6


@dataclass(frozen=True)
class LossRateReport:
    value: float = None
    lower_bound: float = None
    upper_bound_sandwich: float = None
    bound_L: float = None
    bound_HW: float = None
    bound_HW2X1: float = None
    method: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SandwichBounds:
    lower: float
    upper: float
    endpoint_y1: float  # output-conditioned endpoint (lower for exact MI)
    endpoint_x1: float  # input-conditioned endpoint (upper for exact MI)
    loss_rv_value: float
    mi_xx: float
    mi_xy: float
    mi_yy: float
    n_samples: int
    bins: int
    seed: int


@dataclass(frozen=True)
class CascadeResult:
    total: float
    stages: tuple
    additivity_gap: float
    method: str


def _loss_rv_detail(f, process, cfg=DEFAULT_QUAD):
    """L(X -> Y) and the tag of the method that gave it."""
    if f.has_constant:
        raise ConstantBranchError(
            "loss is infinite for functions with constant pieces; "
            "use the relative loss rate instead"
        )
    _support_image(f, process)  # refuses a function that misses the window
    if len(f.branches) == 1:
        # a bijection loses nothing; through a composed inverse the
        # quadrature would leave round-off
        return 0.0, "bijective"
    return cond_entropy_input_given_output(f, process, cfg), "quadrature H(X|Y)"


def loss_rv(f, process, cfg=DEFAULT_QUAD):
    """L(X -> Y) = H(X|Y) = h(X) - h(Y) + E[log2 |g'(X)|], the loss of the
    marginal variable in bits, by quadrature; zero for a bijection."""
    return _loss_rv_detail(f, process, cfg)[0]


def loss_rate_analytic(f, process, cfg=DEFAULT_QUAD, grid=201):
    """Exact loss rate H(X2 | Y2, X1) in bits; 0.0 for one branch.

    When the output process is Markov the rate is H(X2 | Y2, X1), which
    of its preimages the input is given the output and the previous
    input: one nested quadrature, never negative.  A function with one
    injective branch loses nothing and gives 0.0 through ``loss_rv``
    without the lumpability check or quadrature; no output value has two
    preimages, so the grid check could not fail.  For Markov inputs with
    more branches the grid check of ``check_lumpable`` runs first, at its
    default tol, and NotLumpableError refuses the value when it fails; for
    iid inputs the rate is the marginal loss ``loss_rv``.  A bad ``grid``
    raises BadParameterError for every input, before any other work.
    NoConvergenceError means some integral missed ``cfg.abs_tol`` within
    the depth budget of ``cfg``; there is no retry.
    """
    return _loss_rate_detail(f, process, cfg, grid)[0]


def _loss_rate_detail(f, process, cfg, grid, marginal=None):
    """``loss_rate_analytic`` and the tag of the route that gave it;
    ``marginal`` is ``_loss_rv_detail``'s result where the caller has it."""
    check_grid_params(grid, _GATE_TOL)
    if f.has_constant:
        raise ConstantBranchError("rate is infinite with constant pieces")
    if process.kernel is not None and len(f.branches) > 1:
        rep = check_lumpable(f, process, grid=grid, tol=_GATE_TOL)
        if not rep.condition_holds:
            raise NotLumpableError(
                f"lumpability deviation {rep.max_deviation:.3e} exceeds {rep.tol}"
            )
        return cond_entropy_X2_given_Y2_X1(f, process, cfg), "quadrature (lumpable)"
    loss, tag = marginal or _loss_rv_detail(f, process, cfg)
    return loss, tag if tag == "bijective" else f"iid marginal loss, {tag}"


def loss_rate_bounds_mc(
    f, process, n_samples=10**6, seed=42, bins=None, cfg=DEFAULT_QUAD
):
    """Sandwich bracket on the loss rate from one simulated path.

    Both endpoints rewrite the conditional-entropy bounds on the output
    entropy rate through mutual informations: L - I(X1;X2) + I(Y1;Y2)
    conditions on the previous output, L - I(X1;X2) + I(X1;Y2) on the
    previous input.  They are returned ordered numerically; for lumpable
    systems they agree up to estimator noise.  L is computed to ``cfg``.
    Before any work it refuses, with BadParameterError, an ``n_samples``
    that is not an int >= 1, a ``seed`` not an int >= 0 and ``bins`` not
    None or an int in 1..4096, and with TooFewSamplesError fewer than 1001
    samples.
    """
    bins = _path_bins(n_samples, seed, bins)
    loss, _ = _loss_rv_detail(f, process, cfg)
    xs = sample_path(process, n_samples, seed).values
    return _sandwich(f, xs, loss, bins, seed)


def _path_bins(n_samples, seed, bins):
    """The sandwich's bins per axis; refuses bad arguments, < 1e3 pairs."""
    check_path_args(n_samples, seed)
    if n_samples - 1 < 1000:
        raise TooFewSamplesError("need at least 1001 samples: 1e3 sample pairs")
    return resolve_bins(bins, n_samples)


def _sandwich(f, xs, loss, bins, seed):
    """The sandwich bracket around the marginal loss ``loss``, from the
    path ``xs`` drawn with ``seed``, in the ``bins`` from ``_path_bins``;
    one sort per series bins both its lagged halves for the three mutual
    informations."""
    x_head, x_tail = _lagged_labels(xs, bins)
    y_head, y_tail = _lagged_labels(f.eval_array(xs), bins)
    mi_xx = _mi_from_labels(x_head, x_tail, bins)
    mi_xy = _mi_from_labels(x_head, y_tail, bins)
    mi_yy = _mi_from_labels(y_head, y_tail, bins)
    end_y1 = loss - mi_xx + mi_yy
    end_x1 = loss - mi_xx + mi_xy
    return SandwichBounds(
        lower=min(end_y1, end_x1),
        upper=max(end_y1, end_x1),
        endpoint_y1=end_y1,
        endpoint_x1=end_x1,
        loss_rv_value=loss,
        mi_xx=mi_xx,
        mi_xy=mi_xy,
        mi_yy=mi_yy,
        n_samples=xs.size,
        bins=bins,
        seed=seed,
    )


def analyze_loss_rate(
    f,
    process,
    n_samples=10**6,
    seed=42,
    bins=None,
    k=4,
    cfg=DEFAULT_QUAD,
    grid=201,
):
    """Assemble every applicable value and bound into one report.

    A bad ``grid`` raises BadParameterError for every input, before any
    other work."""
    check_grid_params(grid, _GATE_TOL)
    method = {}
    value = None
    bins = _path_bins(n_samples, seed, bins)

    loss, loss_tag = marginal = _loss_rv_detail(f, process, cfg)
    method["bound_L"] = loss_tag

    # one path serves the block entropies and the sandwich: the second
    # call of sample_path returns the path the first one drew
    hw = markov_block_entropy_W(f, process, k, n_samples, seed)
    method["bound_HW"] = f"plug-in order {hw.order} (converged={hw.converged})"

    hw2x1 = cond_entropy_W_given_X(f, process, cfg)
    method["bound_HW2X1"] = "quadrature"

    xs = sample_path(process, n_samples, seed).values
    sandwich = _sandwich(f, xs, loss, bins, seed)
    method["sandwich"] = f"histogram MI, N={sandwich.n_samples}, bins={sandwich.bins}"

    try:
        value, method["value"] = _loss_rate_detail(f, process, cfg, grid, marginal)
    except (NotLumpableError, NoConvergenceError) as exc:
        method["value"] = f"unavailable: {exc}"

    return LossRateReport(
        value=value,
        lower_bound=sandwich.lower,
        upper_bound_sandwich=sandwich.upper,
        bound_L=loss,
        bound_HW=hw.value,
        bound_HW2X1=hw2x1,
        method=method,
    )


# ---------------------------------------------------------------------------
# cascades


def cascade_loss_rate(f_list, process, method="auto", cfg=DEFAULT_QUAD, grid=201):
    """Total and per-stage loss rates of a chain of systems.

    Every stage but the first lossy one is evaluated on its own input: the
    pushforward of ``process`` through the composition of the stages before
    it, or ``process`` for the first stage.  A bijection loses nothing, so
    the one-branch stages in front of the first lossy one each give 0.0
    there, after the refusals that apply to them.  The first lossy stage is
    evaluated as the composition of the chain up to it on ``process``
    itself.  The total is the rate of the full composition on ``process``.
    When a stage follows the first lossy one, the total is computed apart
    from the stages, so ``additivity_gap`` is an independent check; when the
    first lossy stage is the last, that stage already ran the full
    composition on ``process``, so its value is the total and the gap is 0.
    iid inputs use marginal losses (``method="rv"``, the rate equals the
    marginal loss there); Markov inputs use the exact rate (``"analytic"``),
    which requires every lossy stage to pass the lumpability check.
    BadParameterError refuses, before any other work, a bad ``grid`` for
    every input, an empty chain and a ``method`` other than "auto", "rv" or
    "analytic".
    """
    from .pbf import compose

    check_grid_params(grid, _GATE_TOL)
    if not f_list:
        raise BadParameterError("a cascade needs at least one stage")
    if method not in ("auto", "rv", "analytic"):
        raise BadParameterError(
            f'method must be "auto", "rv" or "analytic", got {method!r}'
        )
    if method == "auto":
        method = "rv" if process.kernel is None else "analytic"

    # prefixes[i] is the chain up to stage i; the last one is the total's
    prefixes = list(accumulate(f_list, lambda g, nxt: compose(nxt, g)))

    def loss(g, proc):
        if method == "rv":
            return float(loss_rv(g, proc, cfg))
        return float(loss_rate_analytic(g, proc, cfg, grid=grid))

    # the first lossy stage runs as the chain up to it, on the input
    # itself; every other stage runs on the input pushed through the
    # chain before it
    first = next(
        (i for i, g in enumerate(f_list) if len(g.branches) > 1), len(f_list) - 1
    )
    stages = [
        loss(prefixes[i], process)
        if i == first
        else loss(g, pushforward_process(prefixes[i - 1], process) if i else process)
        for i, g in enumerate(f_list)
    ]
    # prefixes[first] is prefixes[-1] when the first lossy stage is last
    total = stages[-1] if first == len(f_list) - 1 else loss(prefixes[-1], process)
    return CascadeResult(
        total=total,
        stages=tuple(stages),
        additivity_gap=abs(total - sum(stages)),
        method=method,
    )
