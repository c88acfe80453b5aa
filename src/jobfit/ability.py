"""Parametric ability profiles and their noise models.

A profile maps a subskill difficulty s in [0, 1] to a distribution on
[0, 1].  The mean ability E(s) is set by the family (constant, linear,
polynomial, piecewise linear) and the spread by one of two noise models:

* ``uniform``   -- E(s) + min{E(s), 1-E(s)} * sigma * U[-1, 1].  Support
  stays inside [0, 1] by construction and the noise is exactly zero mean.
* ``truncnorm`` -- a normal with location E(s) and scale sigma truncated
  to [0, 1].  E(s) is the location parameter, not the truncated mean.

All operations are vectorised over difficulties and probability levels;
sampling is inverse-transform through :func:`quantile`, which makes draws
reproducible from explicit uniform variates (required for common random
numbers in the simulator).  :func:`quantile` is elementwise in (s, q) and
fills one fresh output array in place, so a caller that mixes variates
(the simulator's status coupling) picks the uniform first and pays for
one transform per draw.

Only truncated-normal noise with sigma > 0 needs ``scipy.special`` (its
``ndtr`` and ``ndtri``, the only scipy functions in this package).  It is
imported when the first such :class:`NoiseModel` is made, not with this
module, so a process that only sees uniform or zero noise never loads it:
on a 2-vCPU x86 host (scipy 1.17.1) that saves about 25 MB of RSS and
0.25 s of start-up.  Making the law, not its first use, loads it so that
the engine's forked peers share the loaded pages instead of each
importing a private copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFitError, ParameterError

UNIFORM = "uniform"
TRUNCNORM = "truncnorm"
NOISE_KINDS = (UNIFORM, TRUNCNORM)

CONSTANT = "constant"
LINEAR = "linear"
POLYNOMIAL = "polynomial"
PIECEWISE = "piecewise"
SELECT = "select"


def _special():
    """``scipy.special``, imported on the first call (see the module docstring)."""
    import scipy.special

    return scipy.special


def ndtr(x, out=None):
    """The standard normal cdf, ``scipy.special.ndtr``."""
    return _special().ndtr(x, out=out)


def ndtri(x, out=None):
    """Its inverse, ``scipy.special.ndtri``."""
    return _special().ndtri(x, out=out)


@dataclass(frozen=True)
class NoiseModel:
    kind: str
    sigma: float

    def __post_init__(self) -> None:
        if self.kind not in NOISE_KINDS:
            raise ParameterError(f"unknown noise kind {self.kind!r}")
        if not 0.0 <= self.sigma < math.inf:
            raise ParameterError(f"sigma must be finite and >= 0, got {self.sigma}")
        if self.kind == UNIFORM and self.sigma > 1.0:
            raise ParameterError(f"uniform noise level must be <= 1, got {self.sigma}")
        if self.kind == TRUNCNORM and self.sigma > 0.0:
            # Load scipy.special with the law that needs it, ahead of any
            # engine call that forks peers, so that peers share its pages.
            _special()


def uniform_noise(sigma: float) -> NoiseModel:
    return NoiseModel(UNIFORM, float(sigma))


def truncnorm_noise(sigma: float) -> NoiseModel:
    return NoiseModel(TRUNCNORM, float(sigma))


def truncnorm_var(variance: float) -> NoiseModel:
    """Truncated-normal noise specified by parent variance rather than std."""
    if variance < 0:
        raise ParameterError(f"variance must be >= 0, got {variance}")
    return NoiseModel(TRUNCNORM, math.sqrt(variance))


@dataclass(frozen=True)
class AbilityProfile:
    """One worker ability level.

    ``params`` by family:
      constant   -- (c,)
      linear     -- (a, c), mean c - (1-a)s, requires a + c >= 1
      polynomial -- (beta,), mean 1 - s**beta
      piecewise  -- flattened knots (s0, e0, s1, e1, ...), abscissae strictly
                    increasing, ordinates non-increasing (mean stays monotone)
      select     -- (scale,); composite built by merging: at each difficulty
                    the profile behaves as source B when scale * E_B(s) >
                    E_A(s), else as source A.  Internal representation for
                    merged workers.
    """

    family: str
    params: tuple[float, ...]
    noise: NoiseModel | None
    sources: tuple["AbilityProfile", "AbilityProfile"] | None = None

    def __post_init__(self) -> None:
        p = self.params
        if self.family == CONSTANT:
            if len(p) != 1 or not 0.0 <= p[0] <= 1.0:
                raise ParameterError(f"constant profile needs c in [0,1], got {p}")
        elif self.family == LINEAR:
            if len(p) != 2:
                raise ParameterError(f"linear profile needs (a, c), got {p}")
            a, c = p
            if not (0.0 <= a <= 1.0 and 0.0 <= c <= 1.0 and a + c >= 1.0 - 1e-12):
                raise ParameterError(
                    f"linear profile requires a, c in [0,1] with a + c >= 1, got a={a}, c={c}"
                )
        elif self.family == POLYNOMIAL:
            if len(p) != 1 or not p[0] >= 0.0:
                raise ParameterError(f"polynomial profile needs beta >= 0, got {p}")
        elif self.family == PIECEWISE:
            if len(p) < 4 or len(p) % 2:
                raise ParameterError("piecewise profile needs >= 2 (s, mean) knots")
            xs, ys = p[0::2], p[1::2]
            if any(not 0.0 <= x <= 1.0 for x in xs) or any(np.diff(xs) <= 0):
                raise ParameterError("piecewise abscissae must be strictly increasing in [0,1]")
            if any(not 0.0 <= y <= 1.0 for y in ys):
                raise ParameterError("piecewise ordinates must lie in [0,1]")
            if any(np.diff(ys) > 1e-12):
                raise ParameterError("piecewise mean must be non-increasing in s")
        elif self.family == SELECT:
            if self.sources is None or len(self.sources) != 2:
                raise ParameterError("select profile needs exactly two sources")
            if len(p) != 1 or not 0.0 <= p[0] < math.inf:
                raise ParameterError(f"select profile needs a finite scale >= 0, got {p}")
        else:
            raise ParameterError(f"unknown profile family {self.family!r}")
        if self.family != SELECT and self.noise is None:
            raise ParameterError("profile needs a noise model")
        if self.family == SELECT and self.noise is not None:
            raise ParameterError("select profiles delegate noise to their sources")


def constant_profile(c: float, noise: NoiseModel) -> AbilityProfile:
    return AbilityProfile(CONSTANT, (float(c),), noise)


def linear_profile(a: float, noise: NoiseModel) -> AbilityProfile:
    """Mean 1 - (1-a)s, the intercept pinned at 1 (as the fitted profiles are)."""
    return AbilityProfile(LINEAR, (float(a), 1.0), noise)


def polynomial_profile(beta: float, noise: NoiseModel) -> AbilityProfile:
    return AbilityProfile(POLYNOMIAL, (float(beta),), noise)


def piecewise_profile(knots, noise: NoiseModel) -> AbilityProfile:
    flat = tuple(float(v) for knot in knots for v in knot)
    return AbilityProfile(PIECEWISE, flat, noise)


def select_profile(a: AbilityProfile, b: AbilityProfile, scale: float = 1.0) -> AbilityProfile:
    return AbilityProfile(SELECT, (float(scale),), None, sources=(a, b))


def _select_mask(profile: AbilityProfile, s: np.ndarray) -> np.ndarray:
    """True where source B is chosen (scaled mean strictly dominates; ties to A)."""
    a, b = profile.sources
    return profile.params[0] * mean_ability(b, s) > mean_ability(a, s)


def mean_ability(profile: AbilityProfile, s):
    """Mean ability E(s), clamped to [0, 1].

    Clamping never triggers for validated scalar families; it guards
    piecewise compositions against rounding at the knots.
    """
    s_arr = np.asarray(s, dtype=float)
    fam, p = profile.family, profile.params
    if fam == CONSTANT:
        e = np.full_like(s_arr, p[0])
    elif fam == LINEAR:
        a, c = p
        e = c - (1.0 - a) * s_arr
    elif fam == POLYNOMIAL:
        e = 1.0 - s_arr ** p[0]
    elif fam == PIECEWISE:
        e = np.interp(s_arr, p[0::2], p[1::2])
    else:  # select
        ea = mean_ability(profile.sources[0], s_arr)
        eb = mean_ability(profile.sources[1], s_arr)
        e = np.where(p[0] * eb > ea, eb, ea)
    e = np.clip(e, 0.0, 1.0)
    return e if e.shape else float(e)


def quantile(profile: AbilityProfile, s, q):
    """Inverse cdf of the ability distribution at difficulty s.

    ``s`` and ``q`` broadcast against each other and are never written to.
    The result is elementwise in (s, q).  For zero noise the distribution
    is a point mass at E(s) and every quantile equals it.  A select
    profile transforms each source only where that source is chosen.
    """
    s_arr = np.asarray(s, dtype=float)
    q_arr = np.asarray(q, dtype=float)
    x = np.empty(np.broadcast_shapes(s_arr.shape, q_arr.shape))
    if profile.family != SELECT:
        _transform(profile, _terms(profile, s_arr), q_arr, x)
        return x if x.shape else float(x)
    # Lay x out as (outer, inner) with s constant along outer, so that each
    # source transforms only the inner columns where it is chosen.
    k = x.ndim - s_arr.ndim + next((i for i, d in enumerate(s_arr.shape) if d != 1), s_arr.ndim)
    shape = (math.prod(x.shape[:k]), math.prod(x.shape[k:]))

    def columns(a):
        """An array of s's shape as one row of the inner columns."""
        return np.broadcast_to(a, (1,) * k + x.shape[k:]).reshape(1, shape[1])

    q2, x2 = np.broadcast_to(q_arr, x.shape).reshape(shape), x.reshape(shape)
    for source, chosen in _select_sources(profile, s_arr, True):
        cols = np.flatnonzero(columns(chosen))
        if cols.size:
            out = q2[:, cols]
            _transform(source, [columns(term)[:, cols] for term in _terms(source, s_arr)], out, out)
            x2[:, cols] = out
    return x if x.shape else float(x)


def _select_sources(profile: AbilityProfile, s_arr, chosen) -> list:
    """(base profile, where it is chosen over s) for every source that a
    select profile, nested or not, may pick within ``chosen``."""
    if profile.family != SELECT:
        return [(profile, chosen)]
    pick_b = _select_mask(profile, s_arr)
    return (_select_sources(profile.sources[0], s_arr, chosen & ~pick_b)
            + _select_sources(profile.sources[1], s_arr, chosen & pick_b))


def _terms(profile: AbilityProfile, s_arr) -> tuple:
    """The per-difficulty terms of the transform, over all of s:
    (e,) without noise, (e, half) for uniform noise, (e, pa, pb - pa)
    for truncated-normal noise."""
    e = np.asarray(mean_ability(profile, s_arr), dtype=float)
    sigma = profile.noise.sigma
    if sigma == 0.0:
        return (e,)
    if profile.noise.kind == UNIFORM:
        return (e, np.minimum(e, 1.0 - e) * sigma)
    with np.errstate(over="ignore"):
        pa = ndtr((0.0 - e) / sigma)
        pb = ndtr((1.0 - e) / sigma)
    return (e, pa, pb - pa)


def _transform(profile: AbilityProfile, terms, q, out) -> None:
    """Write the quantiles at q into ``out`` (which may be q itself).

    One output, transformed in place; each step only swaps the operands of
    a commutative op, so the bits equal the textbook formulas
    e + half*(2q - 1) and e + sigma*ndtri(pa + q*(pb - pa)), whichever
    elements ``terms`` and q are gathered from."""
    if profile.noise.sigma == 0.0:
        out[...] = terms[0]
    elif profile.noise.kind == UNIFORM:
        e, half = terms
        np.multiply(q, 2.0, out=out)
        out -= 1.0
        out *= half
        out += e
    else:
        e, pa, span = terms
        np.multiply(q, span, out=out)
        out += pa
        ndtri(out, out=out)
        out *= profile.noise.sigma
        out += e
    np.clip(out, 0.0, 1.0, out=out)


def cdf(profile: AbilityProfile, s, x):
    """P[X <= x] for X drawn from the profile at difficulty s."""
    s_arr = np.asarray(s, dtype=float)
    x_arr = np.asarray(x, dtype=float)
    if profile.family == SELECT:
        mask = _select_mask(profile, s_arr)
        fa = cdf(profile.sources[0], s_arr, x_arr)
        fb = cdf(profile.sources[1], s_arr, x_arr)
        f = np.where(mask, fb, fa)
        return f if f.shape else float(f)

    e, *terms = _terms(profile, s_arr)
    sigma = profile.noise.sigma
    if sigma == 0.0:
        f = (x_arr >= e).astype(float)
    elif profile.noise.kind == UNIFORM:
        (half,) = terms
        with np.errstate(divide="ignore", invalid="ignore"):
            f = (x_arr - (e - half)) / (2.0 * half)
        f = np.where(half > 0.0, f, (x_arr >= e).astype(float))
        f = np.clip(f, 0.0, 1.0)
    else:
        pa, span = terms
        with np.errstate(over="ignore"):
            f = np.clip((ndtr((x_arr - e) / sigma) - pa) / span, 0.0, 1.0)
        f = np.where(x_arr < 0.0, 0.0, np.where(x_arr >= 1.0, 1.0, f))
    return f if f.shape else float(f)


def survival(profile: AbilityProfile, s, x):
    """P[X >= x]; handles the point-mass case where 1 - cdf would be wrong."""
    s_arr = np.asarray(s, dtype=float)
    x_arr = np.asarray(x, dtype=float)
    if profile.family != SELECT and profile.noise.sigma == 0.0:
        e = np.asarray(mean_ability(profile, s_arr), dtype=float)
        f = (e >= x_arr).astype(float)
        return f if f.shape else float(f)
    f = 1.0 - np.asarray(cdf(profile, s_arr, x_arr))
    return f if f.shape else float(f)


@dataclass(frozen=True)
class DominanceResult:
    dominates: bool
    worst_violation: float


def check_dominance(
    strong: AbilityProfile,
    weak: AbilityProfile,
    s_grid,
    x_grid,
    tol: float = 1e-12,
) -> DominanceResult:
    """Check P[X >= x | strong] >= P[X >= x | weak] on the grid, with exact cdfs."""
    s_col = np.asarray(s_grid, dtype=float)[:, None]
    x_row = np.asarray(x_grid, dtype=float)[None, :]
    gap = np.asarray(survival(weak, s_col, x_row)) - np.asarray(survival(strong, s_col, x_row))
    worst = float(np.max(gap, initial=0.0))
    return DominanceResult(worst <= tol, max(worst, 0.0))


def fit_linear_profile(points) -> tuple[float, float]:
    """Least-squares fit of accuracy ~ 1 - (1-a)s with the intercept pinned at 1.

    Returns (a clamped to [0,1], mean squared residual of the returned line).
    """
    pts = [(float(s), float(acc)) for s, acc in points]
    if len(pts) < 2:
        raise DegenerateFitError("need at least two points to fit a profile")
    s = np.array([p[0] for p in pts])
    acc = np.array([p[1] for p in pts])
    if np.any((acc < 0) | (acc > 1)):
        raise ParameterError("accuracies must lie in [0,1]")
    if np.ptp(s) == 0.0:
        raise DegenerateFitError("all difficulties identical; slope is unidentifiable")
    slope = float(np.dot(1.0 - acc, s) / np.dot(s, s))
    a = min(1.0, max(0.0, 1.0 - slope))
    resid = acc - (1.0 - (1.0 - a) * s)
    return a, float(np.mean(resid**2))
