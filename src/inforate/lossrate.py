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

from .errors import (
    ConstantBranchError,
    NoConvergenceError,
    NotLumpableError,
    TooFewSamplesError,
)
from .estimate import (
    DEFAULT_QUAD,
    _block_entropy,
    _check_block_order,
    _lagged_labels,
    _mi_from_labels,
    cond_entropy_W_given_X,
    cond_entropy_X2_given_Y2_X1,
    cond_entropy_input_given_output,
    resolve_bins,
)
from .lumpability import check_lumpable
from .process import pushforward_process, sample_path


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
    """Exact loss rate h(X2|X1) - h(Y2|X1) + E[log2|g'(X)|], in bits.

    When the output process is Markov this is H(X2 | Y2, X1), which of
    its preimages the input is given the output and the previous input:
    one nested quadrature, never negative, and 0 for a bijection.  For
    Markov inputs the grid check of ``check_lumpable`` runs first, at its
    default tol, and NotLumpableError refuses the value when it fails; for
    iid inputs the rate is the marginal loss ``loss_rv``.  NoConvergenceError
    means some integral missed ``cfg.abs_tol`` within the depth budget of
    ``cfg``; there is no retry.
    """
    if f.has_constant:
        raise ConstantBranchError("rate is infinite with constant pieces")
    if not process.is_markov:
        return loss_rv(f, process, cfg)
    rep = check_lumpable(f, process, grid=grid)
    if not rep.condition_holds:
        raise NotLumpableError(
            f"lumpability deviation {rep.max_deviation:.3e} exceeds {rep.tol}"
        )
    return cond_entropy_X2_given_Y2_X1(f, process, cfg)


def loss_rate_bounds_mc(
    f, process, n_samples=10**6, seed=42, bins=None, cfg=DEFAULT_QUAD
):
    """Sandwich bracket on the loss rate from one simulated path.

    Both endpoints rewrite the conditional-entropy bounds on the output
    entropy rate through mutual informations: L - I(X1;X2) + I(Y1;Y2)
    conditions on the previous output, L - I(X1;X2) + I(X1;Y2) on the
    previous input.  They are returned ordered numerically; for lumpable
    systems they agree up to estimator noise.  L is computed to ``cfg``.
    Raises BadParameterError unless ``bins`` is None or an int >= 1.
    """
    bins = resolve_bins(bins, n_samples)
    loss, _ = _loss_rv_detail(f, process, cfg)
    xs = sample_path(process, n_samples, seed).values
    return _sandwich(f, xs, loss, bins, seed)


def _sandwich(f, xs, loss, bins, seed):
    """The sandwich bracket around the marginal loss ``loss``, from the
    path ``xs`` drawn with ``seed``, in ``bins`` bins per axis; one sort
    per series bins both its lagged halves for the three mutual
    informations."""
    n_samples = xs.size
    if n_samples - 1 < 1000:
        raise TooFewSamplesError("need at least 1e3 sample pairs")
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
        n_samples=n_samples,
        bins=bins,
        seed=seed,
    )


def bound_index_given_input(f, process, cfg=DEFAULT_QUAD):
    """H(W2|X1), the sharper bound available for Markov inputs."""
    if f.has_constant:
        # H(W2|X1) is still finite, but as a bound on an infinite loss
        # rate it is meaningless; refuse like the rate computations do.
        raise ConstantBranchError("bound refused: loss rate is infinite")
    return cond_entropy_W_given_X(f, process, cfg)


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
    """Assemble every applicable value and bound into one report."""
    method = {}
    value = None
    bins = resolve_bins(bins, n_samples)

    loss, loss_tag = _loss_rv_detail(f, process, cfg)
    method["bound_L"] = loss_tag

    # one stream-0 path serves the block entropies and the sandwich
    _check_block_order(f, k, n_samples)
    xs = sample_path(process, n_samples, seed).values
    hw = _block_entropy(f, xs, k)
    method["bound_HW"] = f"plug-in order {hw.order} (converged={hw.converged})"

    hw2x1 = bound_index_given_input(f, process, cfg)
    method["bound_HW2X1"] = "quadrature"

    sandwich = _sandwich(f, xs, loss, bins, seed)
    method["sandwich"] = f"histogram MI, N={sandwich.n_samples}, bins={sandwich.bins}"

    try:
        value = loss_rate_analytic(f, process, cfg, grid=grid)
        method["value"] = "quadrature (lumpable)"
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

    Stage i is evaluated against the pushforward of the input through
    the earlier stages.  iid inputs use per-stage marginal losses (the
    rate equals the marginal loss there); Markov inputs use the exact
    quadrature, which requires every stage to pass the lumpability
    check.
    """
    from .pbf import compose

    if method == "auto":
        method = "rv" if process.kernel is None else "analytic"

    composed = f_list[0]
    for nxt in f_list[1:]:
        composed = compose(nxt, composed)

    def loss(g, proc):
        if method == "rv":
            return float(loss_rv(g, proc, cfg))
        return float(loss_rate_analytic(g, proc, cfg, grid=grid))

    stages = []
    current = process
    for i, g in enumerate(f_list):
        stages.append(loss(g, current))
        if i + 1 < len(f_list):
            current = pushforward_process(g, current)
    total = loss(composed, process)
    return CascadeResult(
        total=total,
        stages=tuple(stages),
        additivity_gap=abs(total - sum(stages)),
        method=method,
    )
