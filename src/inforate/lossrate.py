"""Information loss rate of a piecewise-bijective system and its bounds.

The per-sample loss of the marginal variable, L = h(X) - h(Y) +
E[log2|g'(X)|], upper-bounds the per-sample loss rate of the process.
Sharper bounds come from the branch-index process W (its entropy rate,
and H(W2|X1) for Markov inputs), and a two-sided bracket follows from
conditioning the output entropy rate on X1 versus Y1.  When the output
process is verifiably Markov the rate itself is a quadrature.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._rng import make_rng
from .errors import ConstantBranchError, NoConvergenceError, NotLumpableError
from .estimate import (
    DEFAULT_QUAD,
    cond_entropy_W_given_X,
    cond_entropy_output_given_input,
    cond_entropy_rate_quad,
    diff_entropy_hist,
    expected_log_abs_derivative,
    markov_block_entropy_W,
    mutual_information_hist,
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


# ---------------------------------------------------------------------------
# closed forms for the marginal loss


def _closed_form_loss_rv(f, process):
    from .pbf import has_identical_ranges, is_even_pair, is_unit_slope

    if len(f.branches) == 1 and f.all_injective:
        return 0.0, "closed-form:bijective"
    qlo, qhi = process.quad_support
    if process.symmetric and is_even_pair(f, min(abs(qlo), abs(qhi))):
        return 1.0, "closed-form:even-pair"
    if (
        process.uniform_marginal
        and f.all_injective
        and len(f.branches) >= 2
        and is_unit_slope(f, qlo, qhi)
        and has_identical_ranges(f)
        and np.allclose(
            [b.domain_hi - b.domain_lo for b in f.branches],
            f.branches[0].domain_hi - f.branches[0].domain_lo,
            rtol=1e-12,
        )
    ):
        return float(math.log2(len(f.branches))), "closed-form:uniform-shift"
    return None


def _loss_rv_detail(f, process, n_samples, seed, bins=None, cfg=DEFAULT_QUAD):
    if f.has_constant:
        raise ConstantBranchError(
            "loss is infinite for functions with constant pieces; "
            "use the relative loss rate instead"
        )
    closed = _closed_form_loss_rv(f, process)
    if closed is not None:
        return closed
    if process.analytic is not None:
        h_x = process.analytic.h_marginal
        tag = "analytic-hX+hist-hY"
    else:
        from .estimate import marginal_entropy_quad

        h_x = marginal_entropy_quad(process, cfg)
        tag = "quad-hX+hist-hY"
    rng = make_rng(seed, stream=7)
    xs = np.asarray(process.marginal_sampler(rng, n_samples), dtype=float)
    h_y = diff_entropy_hist(f.eval_array(xs), bins)
    term = expected_log_abs_derivative(f, process, cfg)
    return h_x - h_y + term, tag


def loss_rv(f, process, n_samples=10**6, seed=42, bins=None, cfg=DEFAULT_QUAD):
    """L(X -> Y) = h(X) - h(Y) + E[log2 |g'(X)|] for the marginal variable.

    Registered closed forms (bijections, even two-branch folds on
    symmetric inputs, uniform shifts) take precedence over estimation.
    """
    return _loss_rv_detail(f, process, n_samples, seed, bins, cfg)[0]


def loss_rate_analytic(
    f,
    process,
    cfg=DEFAULT_QUAD,
    grid=201,
    lump_tol=1e-6,
    skip_lumpability_check=False,
):
    """Exact loss rate h(X2|X1) - h(Y2|X1) + E[log2|g'(X)|], in bits.

    h(X2|X1) is the process's closed form when it carries one, otherwise
    a nested quadrature like h(Y2|X1); the derivative term is a
    quadrature per branch.  The identity is exact when the output
    process is Markov, so for Markov inputs the grid check of
    ``check_lumpable`` runs first and NotLumpableError refuses the value
    when it fails; for iid inputs the identity holds unconditionally.
    NoConvergenceError means some integral missed ``cfg.abs_tol``
    within the depth budget of ``cfg``; there is no retry.
    """
    if f.has_constant:
        raise ConstantBranchError("rate is infinite with constant pieces")
    if process.is_markov and not skip_lumpability_check:
        rep = check_lumpable(f, process, grid=grid, tol=lump_tol)
        if not rep.condition_holds:
            raise NotLumpableError(
                f"lumpability deviation {rep.max_deviation:.3e} exceeds {lump_tol}"
            )
    if process.analytic is not None:
        h_rate = process.analytic.h_rate
    else:
        h_rate = cond_entropy_rate_quad(process, cfg)
    h_out = cond_entropy_output_given_input(f, process, cfg)
    term = expected_log_abs_derivative(f, process, cfg)
    return h_rate - h_out + term


def loss_rate_bounds_mc(f, process, n_samples=10**6, seed=42, bins=None):
    """Sandwich bracket on the loss rate from one simulated path.

    Both endpoints rewrite the conditional-entropy bounds on the output
    entropy rate through mutual informations: L - I(X1;X2) + I(Y1;Y2)
    conditions on the previous output, L - I(X1;X2) + I(X1;Y2) on the
    previous input.  They are returned ordered numerically; for lumpable
    systems they agree up to estimator noise.
    """
    if bins is None:
        from .estimate import default_bins

        bins = default_bins(n_samples)
    loss, _ = _loss_rv_detail(f, process, n_samples, seed)
    path = sample_path(process, n_samples, seed)
    xs = path.values
    ys = f.eval_array(xs)
    mi_xx = mutual_information_hist(xs[:-1], xs[1:], bins)
    mi_xy = mutual_information_hist(xs[:-1], ys[1:], bins)
    mi_yy = mutual_information_hist(ys[:-1], ys[1:], bins)
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
    lump_tol=1e-6,
):
    """Assemble every applicable value and bound into one report."""
    method = {}
    value = None

    loss, loss_tag = _loss_rv_detail(f, process, n_samples, seed, bins, cfg)
    method["bound_L"] = loss_tag

    hw = markov_block_entropy_W(f, process, k=k, n_samples=n_samples, seed=seed)
    method["bound_HW"] = f"plug-in order {hw.order} (converged={hw.converged})"

    hw2x1 = bound_index_given_input(f, process, cfg)
    method["bound_HW2X1"] = "quadrature"

    sandwich = loss_rate_bounds_mc(f, process, n_samples=n_samples, seed=seed, bins=bins)
    method["sandwich"] = f"histogram MI, N={sandwich.n_samples}, bins={sandwich.bins}"

    try:
        value = loss_rate_analytic(
            f, process, cfg, grid=grid, lump_tol=lump_tol
        )
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


def cascade_loss_rate(
    f_list,
    process,
    method="auto",
    n_samples=10**6,
    seed=42,
    bins=None,
    cfg=DEFAULT_QUAD,
    grid=201,
):
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

    def loss(g, proc, seed):
        if method == "rv":
            return float(loss_rv(g, proc, n_samples=n_samples, seed=seed, bins=bins))
        return float(loss_rate_analytic(g, proc, cfg, grid=grid))

    stages = []
    current = process
    for i, g in enumerate(f_list):
        stages.append(loss(g, current, seed + i))
        if i + 1 < len(f_list):
            current = pushforward_process(g, current)
    total = loss(composed, process, seed)
    return CascadeResult(
        total=total,
        stages=tuple(stages),
        additivity_gap=abs(total - sum(stages)),
        method=method,
    )
