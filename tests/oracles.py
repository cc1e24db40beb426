"""Independent oracles used to freeze expected values.

The quantization oracle never touches the package's cell-moment or
fixed-point machinery: it evaluates E[min_j (Y - y_j)^2] by numeric
quadrature of ``min`` against a pdf callable (panel-wise Gauss-Legendre
between cell boundaries, so every panel integrand is smooth, plus a
1/y-substituted panel for each infinite tail) and minimizes that objective
directly by coarse grid search with Nelder-Mead refinement.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.optimize import minimize
from scipy.stats import norm as _norm

from funquant import NormalMixtureLaw

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(48)


def _gl_panel(f, a: float, b: float) -> float:
    half = 0.5 * (b - a)
    y = 0.5 * (a + b) + half * _NODES
    return half * float(np.sum(_WEIGHTS * f(y)))


def quantization_objective(
    pdf, points, core_lo: float, core_hi: float, inf_tails: bool = False, max_panel: float = 1.0
) -> float:
    """E[min_j (Y - y_j)^2] by Gauss-Legendre panels split at cell boundaries.

    The core interval is integrated in panels no wider than ``max_panel``;
    with ``inf_tails`` the mass outside the core is captured exactly through
    the substitution u = 1/y (needs core_lo < 0 < core_hi).
    """
    pts = np.sort(np.asarray(points, dtype=float))

    def integrand(y):
        d2 = np.min((y[:, None] - pts[None, :]) ** 2, axis=1)
        return d2 * pdf(y)

    breaks = (pts[1:] + pts[:-1]) / 2.0
    edges = np.concatenate(
        ([core_lo], breaks[(breaks > core_lo) & (breaks < core_hi)], [core_hi])
    )
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        n_sub = max(1, int(np.ceil((b - a) / max_panel)))
        sub = np.linspace(a, b, n_sub + 1)
        for sa, sb in zip(sub[:-1], sub[1:]):
            total += _gl_panel(integrand, sa, sb)
    if inf_tails:
        assert core_lo < 0 < core_hi
        total += _gl_panel(lambda u: integrand(1.0 / u) / u**2, 1e-30, 1.0 / core_hi)
        total += _gl_panel(lambda u: integrand(-1.0 / u) / u**2, 1e-30, -1.0 / core_lo)
    return total


def brute_force_principal_points(
    pdf,
    k: int,
    lo: float,
    hi: float,
    inf_tails: bool = False,
    coarse: int = 25,
    max_panel: float = 1.0,
    search_span: tuple[float, float] | None = None,
) -> tuple[np.ndarray, float]:
    """Grid search over sorted k-tuples, refined locally with Nelder-Mead."""
    span = search_span if search_span is not None else (lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo))
    grid = np.linspace(span[0], span[1], coarse)
    scored = []
    for combo in itertools.combinations(range(coarse), k):
        x = grid[list(combo)]
        val = quantization_objective(pdf, x, lo, hi, inf_tails=inf_tails, max_panel=4 * max_panel)
        scored.append((val, tuple(x)))
    scored.sort()

    def objective(x):
        return quantization_objective(pdf, x, lo, hi, inf_tails=inf_tails, max_panel=max_panel)

    best_x, best_val = None, np.inf
    for _, start in scored[:3]:
        res = minimize(
            objective, np.array(start), method="Nelder-Mead",
            options={"xatol": 1e-11, "fatol": 1e-15, "maxiter": 4000, "maxfev": 6000},
        )
        if res.fun < best_val:
            best_val, best_x = float(res.fun), np.sort(res.x)
    return best_x, best_val


# Reference Lloyd: the distance and domain-mean code of funquant 0.1.0, one
# full (n, k, d) difference tensor per pass and one boolean mask per domain.
# The blocked kernel and bincount means of funquant.quantize must reproduce
# it bit for bit for d >= 2 (for d = 1 numpy's mean sums a domain pairwise,
# bincount sequentially, so the last bit may differ).


def reference_sq_distances(samples, points):
    diff = samples[:, None, :] - points[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def reference_residual(samples, points):
    labels = reference_sq_distances(samples, points).argmin(axis=1)
    worst = 0.0
    for j in range(points.shape[0]):
        mask = labels == j
        if not mask.any():
            return float("inf")
        worst = max(worst, float(np.linalg.norm(samples[mask].mean(axis=0) - points[j])))
    return worst


def reference_lloyd_once(samples, k, tol, max_iter, points):
    """(points, final mse, iterations, converged, mse history) from one start."""
    n = samples.shape[0]
    points = np.array(points, dtype=float)
    mse_history = []
    converged = False
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        d2 = reference_sq_distances(samples, points)
        labels = d2.argmin(axis=1)
        mse_history.append(float(d2[np.arange(n), labels].mean()))
        new_points = points.copy()
        empty = []
        for j in range(k):
            mask = labels == j
            if mask.any():
                new_points[j] = samples[mask].mean(axis=0)
            else:
                empty.append(j)
        for j in empty:
            far = reference_sq_distances(samples, new_points).min(axis=1)
            new_points[j] = samples[int(far.argmax())]
        shift = float(np.linalg.norm(new_points - points, axis=1).max())
        points = new_points
        if shift < tol:
            converged = True
            break
    final_mse = float(reference_sq_distances(samples, points).min(axis=1).mean())
    mse_history.append(final_mse)
    return points, final_mse, iterations, converged, tuple(mse_history)


def reference_kmeanspp_init(samples, k, rng):
    """k-means++ starts, each pick's squared distances summed along the sample rows."""
    n = samples.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = ((samples - samples[chosen[0]]) ** 2).sum(axis=1)
    for _ in range(1, k):
        total = d2.sum()
        # with every distance zero, the lowest row not yet chosen
        idx = int(rng.choice(n, p=d2 / total)) if total > 0.0 else next(i for i in range(n) if i not in chosen)
        chosen.append(idx)
        d2 = np.minimum(d2, ((samples - samples[idx]) ** 2).sum(axis=1))
    return samples[chosen]


def reference_lloyd(samples, k, init=None, tol=1e-8, max_iter=300, restarts=10, seed=0):
    """Best run as (points, final mse, iterations, converged, mse history, residual).

    Restart streams and k-means++ starts are drawn as ``lloyd`` draws them,
    the starts by ``reference_kmeanspp_init``.
    """
    if init is not None:
        starts = [init]
    else:
        streams = np.random.SeedSequence([seed, 1]).spawn(restarts)
        starts = [reference_kmeanspp_init(samples, k, np.random.Generator(np.random.Philox(s))) for s in streams]
    runs = [reference_lloyd_once(samples, k, tol, max_iter, start) for start in starts]
    best = runs[min(range(len(runs)), key=lambda r: (runs[r][1], r))]
    return best + (reference_residual(samples, best[0]),)


def reference_grid_cuts(m0, m1, m2, k):
    """Least-cost cuts of cells into k runs by the plain dynamic program: the whole (m + 1, m + 1)
    cost matrix of runs (inf for runs without mass) and every cut of every layer, ties to the lowest."""
    p0, p1, p2 = (np.concatenate(([0.0], np.cumsum(x))) for x in (m0, m1, m2))
    s0, s1, s2 = (p[None, :] - p[:, None] for p in (p0, p1, p2))
    with np.errstate(divide="ignore", invalid="ignore"):
        cost = np.where(s0 > 0, s2 - s1 * s1 / s0, np.inf)
    best, back = cost[0], []
    for _ in range(k - 1):
        total = best[:, None] + cost
        back.append(total.argmin(axis=0))
        best = total.min(axis=0)
    cuts = [m0.size]
    for layer in back[::-1]:
        cuts.append(int(layer[cuts[-1]]))
    return (0, *cuts[::-1])


def normal_law(sd: float = 1.0) -> NormalMixtureLaw:
    """A single normal component: the law the package builds for a gaussian projection."""
    return NormalMixtureLaw(weights=(1.0,), scales=(sd,))


def normal_pdf(y):
    return _norm.pdf(y)


def student_t_pdf(nu: float):
    from scipy.stats import t as _t

    return lambda y: _t.pdf(y, df=nu)


def uniform_pdf(lo: float, hi: float):
    def pdf(y):
        y = np.asarray(y, dtype=float)
        return np.where((y >= lo) & (y <= hi), 1.0 / (hi - lo), 0.0)

    return pdf


def gauss_hermite_objective(points, mean: float = 0.0, sd: float = 1.0, n_nodes: int = 128) -> float:
    """Gauss-Hermite cross-check of the objective for normal laws."""
    x, w = np.polynomial.hermite.hermgauss(n_nodes)
    y = np.sqrt(2.0) * sd * x + mean
    pts = np.asarray(points, dtype=float)
    d2 = np.min((y[:, None] - pts[None, :]) ** 2, axis=1)
    return float(np.sum(w * d2) / np.sqrt(np.pi))


# Frozen oracle outputs (recomputed in test_quantize.py::test_oracle_reproduces_frozen_values):
#   brute_force_principal_points(normal_pdf, k, -13, 13, search_span=(-4, 4))
#   brute_force_principal_points(uniform_pdf(0, 1), k, 0, 1, max_panel=0.2)
#   brute_force_principal_points(student_t_pdf(5), k, -30, 30, inf_tails=True,
#                                max_panel=2.0, search_span=(-5, 5))
NORMAL_K2 = (-0.797884560803, 0.797884560803)
NORMAL_K2_MSE = 0.363380227632
NORMAL_K3 = (-1.224006361925, 0.0, 1.224006361925)
NORMAL_K3_MSE = 0.190174039248
UNIFORM01_K2 = (0.25, 0.75)
UNIFORM01_K2_MSE = 1.0 / 48.0
UNIFORM01_K3 = (1.0 / 6.0, 0.5, 5.0 / 6.0)
UNIFORM01_K3_MSE = 1.0 / 108.0
T5_K2 = (-0.949016724556, 0.949016724556)
T5_K2_MSE = 0.766033923179
T5_K3 = (-1.640595246371, 0.0, 1.640595246371)
T5_K3_MSE = 0.457163873333
G_GAUSSIAN = 0.363380227632
G_T5 = 0.459620353908

# Distortions E[min_j (Y - y_j)^2] of the 1-d solver's points at k = 2, 3, 5, 10, 20, frozen
# from the solver as it was before its grid start, when it ran Newton from five quantile-spread
# starts and kept the best.  Each is taken on the law less its mean, so that the moment sums do
# not cancel.  Keys name the laws of test_quantize.py's SWEEP_LAWS.
SWEEP_KS = (2, 3, 5, 10, 20)
SWEEP_DISTORTIONS = {
    "normal": (0.3633802276324186, 0.19017403924790158, 0.07994112708827711, 0.02293705290450105, 0.006207789884887568),
    "uniform": (0.02083333333333333, 0.009259259259259276, 0.003333333333333359, 0.0008333333333333253, 0.00020833333333333327),
    "t2.5": (3.545493857956646, 2.759082850288157, 1.849454388526227, 0.9056787811381505, 0.3626983876896043),
    "t3": (1.7841457962919465, 1.2438583619595436, 0.72638115704767, 0.2973465175871287, 0.10241695021209371),
    "t4": (0.9999999999999991, 0.6274169979695177, 0.3236317893907132, 0.1150913510056075, 0.03580346833479662),
    "t5": (0.7660339231792214, 0.4571638733331229, 0.22256978391807714, 0.07440698510708302, 0.02222051525985429),
    "t6.3": (0.6339607017509098, 0.36527753287298814, 0.17082456460626372, 0.05473185562792182, 0.015902601369659815),
    "t10": (0.5023193359374986, 0.2775465683112003, 0.12379989030381594, 0.03774612284696398, 0.010622489143399912),
    "two-point-z1.5-p0.1": (0.37012090757513405, 0.1944373534332445, 0.08186770000185431, 0.02350275935934934, 0.006361451486727622),
    "two-point-z1.5-p0.3": (0.3812055812587106, 0.20252260915119913, 0.0857771285756456, 0.02466999912617571, 0.006679429739463496),
    "two-point-z1.5-p0.5": (0.38786560349271015, 0.2087723697704258, 0.08942653762699802, 0.025827484390025954, 0.006997348564524302),
    "two-point-z1.5-p0.7": (0.3876875280319082, 0.21038310005507344, 0.09151933649482771, 0.026740199048746225, 0.007257841523100154),
    "two-point-z1.5-p0.9": (0.37611262307977017, 0.20170155781067606, 0.0876409867046474, 0.02613750959947641, 0.0071874904672687276),
    "two-point-z2.2-p0.1": (0.3818959193960719, 0.19820155406497691, 0.08335297978629391, 0.023921875461191174, 0.006474450859141175),
    "two-point-z2.2-p0.3": (0.4155802870586539, 0.21737517717167573, 0.09087852425029272, 0.0261295475279994, 0.007073139584317576),
    "two-point-z2.2-p0.5": (0.4418675968284214, 0.24055270397161915, 0.09979264569471212, 0.028778434685594136, 0.007793299582399955),
    "two-point-z2.2-p0.7": (0.4528383220394617, 0.26166481172718187, 0.11121441775033111, 0.03198177807239269, 0.008665803727969908),
    "two-point-z2.2-p0.9": (0.4229943334841807, 0.24786438360029678, 0.11855847691521325, 0.03439059082978758, 0.00937256996034728),
    "two-point-z3-p0.1": (0.39132938837050757, 0.19767822138165325, 0.08398239590859366, 0.024092288014099864, 0.006520703509579875),
    "two-point-z3-p0.3": (0.4444045622973831, 0.2177154988005015, 0.09321054319406578, 0.026699050217090448, 0.0072291443990020535),
    "two-point-z3-p0.5": (0.4907041821059349, 0.24878608076115527, 0.10390689681175981, 0.030014847939350688, 0.008129967296360771),
    "two-point-z3-p0.7": (0.5206627596291151, 0.2979615156831942, 0.11726504825739903, 0.03461646629611088, 0.00939314189610223),
    "two-point-z3-p0.9": (0.49070418210593497, 0.3163756934981481, 0.14202872012369427, 0.04122537034472435, 0.011159819416534789),
    "two-point-z20-p0.1": (0.4147718537986105, 0.19039892843444756, 0.08019662802493673, 0.02373482141226925, 0.006483390518274433),
    "two-point-z20-p0.3": (0.4805930689172589, 0.1910407812679718, 0.08092584939249932, 0.02456020069026596, 0.006837426239098539),
    "two-point-z20-p0.5": (0.5252235043845126, 0.1921935553595023, 0.08223553824267041, 0.02596113144169353, 0.007351487925219976),
    "two-point-z20-p0.7": (0.5597434077317773, 0.1948706272555772, 0.08527701118967043, 0.02817090624026037, 0.008069862923702037),
    "two-point-z20-p0.9": (0.5928058855151132, 0.20799417041359564, 0.10018692135772662, 0.033732981797499166, 0.01001934360041927),
    "two-point-z30-p0.05": (0.3916306045645736, 0.19022139472189403, 0.07999492855444326, 0.023459365521179547, 0.006305149596097082),
    "two-point-z50-p0.05": (0.3916131224126836, 0.19019108785657818, 0.0799604963409859, 0.023422820019687637, 0.006268625378911094),
    "normal-sd0.7": (0.17805631153988505, 0.09318527923147162, 0.039171152273255794, 0.011239155923205556, 0.0030418170435950005),
    "t5-scaled": (3.0641356927168855, 1.8286554933324966, 0.8902791356723081, 0.29762794042833457, 0.08888206103941713),
}
