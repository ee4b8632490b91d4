"""Reference values computed apart from inforate.

Closed forms are written out here from their derivations, and the AR(1)
quantities are integrated with ``scipy.integrate``; nothing in this file
calls ``inforate`` or copies a value from its CLI or tests.  All values
are in bits.  The benchmark computes them once per run, before timing.
"""

import math

from scipy import integrate, special

_LOG2_2PIE = math.log2(2.0 * math.pi * math.e)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def binary_entropy(p):
    """h_b(p) in bits, with h_b(0) = h_b(1) = 0."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


# -- wrapped random walk on [-M, M) with uniform steps on [-a, a], split at 0


def cyclic_rate(M, a):
    """Loss rate of |.| on the wrapped walk: a/M."""
    return a / M


def cyclic_hw2x1(M, a):
    """H(W2|X1) of the wrapped walk folded at zero, both regimes.

    The sign of X2 is uncertain only while the step window [x-a, x+a]
    straddles 0 or the seam at +-M.  For M > 2a the two straddle zones
    are disjoint, each of width 2a, and the branch probability ramps
    linearly across them, so H = 2 * 2a * (1/(2 ln 2)) / (2M).  For
    M <= 2a the window always straddles one of them and the ramps
    overlap, which adds log2(2a/M).
    """
    if M > 2.0 * a:
        return a / (M * math.log(2.0))
    return (M - a) / (M * math.log(2.0)) + math.log2(2.0 * a / M)


def cyclic_hw2w1(M, a):
    """H(W2|W1) of the walk's sign process, for a <= M.  From X1 uniform on
    [0, M) the sign flips when the step crosses 0 or the seam, each with
    probability a/(4M) on average, so P(flip) = a/(2M)."""
    return binary_entropy(a / (2.0 * M))


# -- Gaussian AR(1) with unit innovation variance, folded by |.|


def _ar1_sd(a):
    return 1.0 / math.sqrt(1.0 - a * a)


def _normal_pdf(x, sd):
    return math.exp(-0.5 * (x / sd) ** 2) / (_SQRT_2PI * sd)


def ar1_hw2x1(a):
    """H(W2|X1) = E[h_b(Phi(a X1))], X1 ~ N(0, 1/(1-a^2)); even integrand."""
    sd = _ar1_sd(a)
    val, _ = integrate.quad(
        lambda x: _normal_pdf(x, sd) * binary_entropy(special.ndtr(a * x)),
        0.0,
        12.0 * sd,
        epsabs=1e-13,
        epsrel=1e-12,
        limit=200,
    )
    return 2.0 * val


def _folded_normal_entropy(m):
    """Differential entropy of |N(m, 1)| in bits."""
    m = abs(m)

    def integrand(y):
        g = (math.exp(-0.5 * (y - m) ** 2) + math.exp(-0.5 * (y + m) ** 2)) / _SQRT_2PI
        return -g * math.log2(g) if g > 0.0 else 0.0

    val, _ = integrate.quad(
        integrand,
        0.0,
        m + 12.0,
        epsabs=1e-13,
        epsrel=1e-12,
        limit=200,
        points=[m] if m > 0.0 else None,
    )
    return val


def ar1_h_out_given_in(a):
    """h(Y2|X1) for Y = |X|: the folded-normal entropy averaged over X1."""
    sd = _ar1_sd(a)
    val, _ = integrate.quad(
        lambda x: _normal_pdf(x, sd) * _folded_normal_entropy(a * x),
        0.0,
        12.0 * sd,
        epsabs=1e-12,
        epsrel=1e-11,
        limit=200,
    )
    return 2.0 * val


def ar1_rate(a):
    """Exact loss rate h(X2|X1) - h(Y2|X1) + E[log2|g'|] with |g'| = 1."""
    return 0.5 * _LOG2_2PIE - ar1_h_out_given_in(a)


def ar1_hw2w1(a):
    """H(W2|W1) of the sign process: the signs agree with probability
    1/2 + arcsin(a)/pi (Sheppard's formula for a bivariate normal)."""
    return binary_entropy(0.5 + math.asin(a) / math.pi)


# -- the remaining closed forms

# block-alternating chain with the period-2 sawtooth: every quantity of the
# bound chain equals the one bit that picks the block inside the half
TIGHTNESS_RATE = 1.0
TIGHTNESS_HW2X1 = 1.0

# |.| on an iid even input: the sign is lost and nothing else
IID_FOLD_RATE = 1.0
IID_FOLD_HW = 1.0

# |.| on iid uniform(-1, 3): half the mass lies in [-1, 1), where the sign
# is a fair coin given |x|; the index entropy is h_b(P(X < 0)) = h_b(1/4)
UNIFORM_FOLD_RATE = 0.5
UNIFORM_FOLD_HW = binary_entropy(0.25)

# constant on [0, 1), identity on [1, 2), driven by iid uniform(0, 2)
HALF_CONSTANT_MASS = 0.5
