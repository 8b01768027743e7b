"""Multilevel Monte Carlo orchestration for the whole-field solve.

The estimator telescopes over mesh levels: plain field samples at the
coarsest level plus coupled fine-minus-coarse corrections at each
transition.  A pilot run estimates per-level variances V_l, costs C_l
(walk steps) and mean-correction norms; levels are then chosen so the
squared bias fits eps^2/4 and samples are allocated by the optimal-work
rule

    M_l = ceil(2 eps^-2 sqrt(V_l / C_l) * sum_j sqrt(V_j C_j)),

which by Cauchy-Schwarz minimizes total cost subject to a statistical
error of eps^2/2.  Pilot samples are reused as the first production
samples, and every sample is a pure function of (seed, term, index).  One
loop, `_sample_phase`, streams the samples of a phase (the pilot, or one
extension) through one `field_values` call and adds them to each term's one
set of moments in fixed chunks of samples, so results depend neither on
which samples share a walk call nor on how many chunks one call takes.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .field import (FieldMoments, batch_defects, field_values, mass_norm,
                    norm_mass)
from .mesh import FieldVector, MeshHierarchy, prolong_to
from .problems import Problem
from .sampling import NonFiniteStatisticError, check_count, check_positive
from .streams import derive_key

_KIND_PLAIN = 1
_KIND_PAIR = 2
_VAR_FLOOR = 1e-12
_ROW_BUDGET = 1 << 21  # samples * vertices of one term's moment span
_COUNT_LIMIT = 2.0 ** 63  # sample counts and walk steps are int64
MAX_COST = 2.0 ** 40  # default cap on planned walk steps: ~a week at 2M steps/s
PILOT_FLOOR = 8  # fewest pilot samples per term that give a usable V_l

BIAS_RATE = 2.0   # mean-correction norms decay like 2^(-2 l)


class BudgetExceededError(RuntimeError):
    """The planned sampling cost exceeds the configured cap."""


def _check_budget(max_cost: float) -> None:
    """Reject a NaN or negative walk-step cap, by name; inf means no cap."""
    if np.isnan(max_cost):
        raise ValueError("max_cost must not be NaN")
    if max_cost < 0:
        raise ValueError("max_cost must be non-negative")


@dataclass
class MlmcPlan:
    """Levels, per-term statistics, and sample allocation for one run."""

    eps: float
    coarsest: int
    finest: int
    V: np.ndarray            # index 0: plain coarsest term; then transitions
    C: np.ndarray
    M: np.ndarray
    c1_hat: float

    @property
    def planned_cost(self) -> float:
        return float(np.sum(self.M * self.C))

    @property
    def stat_error_sq(self) -> float:
        return float(np.sum(self.V / self.M))


@dataclass
class MlmcResult:
    solution: FieldVector
    plan: MlmcPlan
    total_cost: int
    samples_used: np.ndarray
    stat_error_est: float


@dataclass
class LevelStatistics:
    """One set of moments per term: `terms(L)` lists the telescope l0..L as
    (kind, level, moments), the plain term at l0 then each transition."""

    l0: int
    plain: FieldMoments                    # plain fields at l0
    trans: dict[int, FieldMoments]         # defect moments, keyed by coarse level

    @property
    def bias_norms(self) -> dict[int, float]:
        return {ell: m.mean_norm for ell, m in self.trans.items()}

    def terms(self, L: int) -> list[tuple[int, int, FieldMoments]]:
        return [(_KIND_PLAIN, self.l0, self.plain)] + [
            (_KIND_PAIR, ell, self.trans[ell]) for ell in range(self.l0, L)]

    @property
    def total_cost(self) -> int:
        return self.plain.cost + sum(m.cost for m in self.trans.values())


# ---------------------------------------------------------------------------
# term sampling

def _sample_phase(hier: MeshHierarchy, problem: Problem, seed: int,
                  terms) -> None:
    """Add samples i0..i1-1 of each term (kind, ell, i0, i1, moments) to
    its moments: the fields at level ell of a plain term, the defects of
    the fine fields at ell+1 of a transition ell -> ell+1.

    _ROW_BUDGET fixes the chunks in which moments are added and their
    order: a term is walked in spans of `span` samples, as many `rows`-
    sample chunks (at most 1024) as fit in _ROW_BUDGET values, added chunk
    by chunk, so the last bits of the sums depend on `rows` but not on the
    span.  A span's walk steps go to its first chunk.  All spans go, lazily
    and in term order, to one `field_values` stream, which alone decides
    which keys share a walk call.  Raises NonFiniteStatisticError at the
    first chunk after which a term's squared norms are not finite.
    """
    def spans():
        for kind, ell, i0, i1, moments in terms:
            level = hier.level(ell if kind == _KIND_PLAIN else ell + 1)
            nv = level.num_vertices
            rows = int(max(8, min(1024, _ROW_BUDGET // nv)))
            span = rows * max(1, _ROW_BUDGET // (rows * nv))
            for first in range(i0, i1, span):
                idx = np.arange(first, min(first + span, i1))
                yield kind, ell, rows, moments, level, derive_key(
                    seed, kind, ell, idx)

    plan, walked = itertools.tee(spans())
    for values, cost in field_values((s[-2:] for s in walked), problem):
        kind, ell, rows, moments, _, _ = next(plan)
        if kind == _KIND_PAIR:
            values = batch_defects(hier, values, ell)
        for j in range(0, values.shape[0], rows):
            moments.add(values[j:j + rows], cost if j == 0 else 0)
            if not np.isfinite(moments.sum_sq):
                raise NonFiniteStatisticError(
                    problem.alpha, _term_name(kind, ell), "V", moments.sum_sq)
        del values  # freed before the stream walks its next call


# ---------------------------------------------------------------------------
# planning operations

def pilot(hier: MeshHierarchy, problem: Problem, samples: int, seed: int,
          l0: int, l_max: int) -> LevelStatistics:
    """Plain moments at l0 and coupled-correction moments per transition up
    to l_max, `samples` of each: the (V_l, C_l) estimates for planning."""
    check_count("pilot samples per level", samples, PILOT_FLOOR)
    _check_levels(hier, l0, l_max)
    stats = LevelStatistics(
        l0=l0, plain=FieldMoments(norm_mass(hier, l0)),
        trans={ell: FieldMoments(norm_mass(hier, ell + 1))
               for ell in range(l0, l_max)})
    _extend(hier, problem, seed, stats, l_max, [samples] * (l_max - l0 + 1))
    return stats


def _check_levels(hier: MeshHierarchy, l0: int, l_max: int) -> None:
    """Reject, by name, an l0 or l_max that is not a level of the hierarchy."""
    for name, ell, lowest in (("l0", l0, hier.coarsest), ("l_max", l_max, l0)):
        if not lowest <= ell <= hier.finest:
            raise ValueError(f"{name} = {ell} lies outside levels "
                             f"{lowest}..{hier.finest}")
        check_count(name, ell, lowest)


def _check_coarsest(hier: MeshHierarchy, l0: int) -> None:
    """Reject an l0 outside the hierarchy, or one whose empty norm mask
    would give V = 0 and miss eps."""
    _check_levels(hier, l0, l0)
    if not hier.norm_mask(l0).any():
        raise ValueError(f"l0 = {l0} has no triangles inside the domain; "
                         "choose a finer l0")


def fit_bias_coefficient(bias_norms: dict[int, float]) -> float:
    """Log-scale least-squares fit of ||mean correction||_l ~ c1 2^(-BIAS_RATE l)."""
    ls = np.array(sorted(bias_norms))
    md = np.array([bias_norms[ell] for ell in ls])
    if np.all(md < 1e-300):
        return 0.0
    md = np.maximum(md, 1e-300)
    return float(2.0 ** np.mean(np.log2(md) + BIAS_RATE * ls))


def fit_slope(pairs) -> float:
    """Least-squares slope of log2 V against log2 h over (h, V) pairs."""
    pairs = list(pairs)
    if len(pairs) < 3:
        raise ValueError("need at least 3 (h, V) pairs")
    h = np.array([p[0] for p in pairs], dtype=float)
    v = np.array([p[1] for p in pairs], dtype=float)
    if np.any(h <= 0) or np.any(v <= 0):
        raise ValueError("slope fit needs positive h and V")
    x, y = np.log2(h), np.log2(v)
    xc = x - x.mean()
    return float((xc @ (y - y.mean())) / (xc @ xc))


def choose_levels(eps: float, bias_norms: dict[int, float], l0: int,
                  l_max: int) -> int:
    """Smallest L with fitted bias c1 2^(-BIAS_RATE*L) at most eps/2.

    Falls back to the maximum available level (with a warning) when the
    bias estimates do not decay or no level satisfies the condition.
    """
    check_positive("eps", eps)
    ls = sorted(bias_norms)
    md = [bias_norms[ell] for ell in ls]
    if len(md) >= 2 and md[-1] >= md[0] and max(md) > 0:
        warnings.warn("bias estimates do not decay; using all levels")
        return l_max
    c1 = fit_bias_coefficient(bias_norms)
    if c1 == 0.0:
        return l0
    for ell in range(l0, l_max + 1):
        if c1 * 2.0 ** (-BIAS_RATE * ell) <= eps / 2.0:
            return ell
    warnings.warn(f"bias target eps/2 unreachable at level {l_max}; "
                  "using the finest available level")
    return l_max


def _term_name(kind: int, ell: int) -> str:
    if kind == _KIND_PLAIN:
        return f"plain term at level {ell}"
    return f"correction term {ell}->{ell + 1}"


def _check_statistics(alpha: float, eps: float, terms, V, C) -> None:
    """Raise NonFiniteStatisticError for a term whose V or C is unusable.

    A finite V can still be so large that the walk steps of the optimal
    allocation, 2 eps^-2 (sum_l sqrt(V_l C_l))^2, overflow int64.
    """
    for (kind, ell, _), v, c in zip(terms, V, C):
        for name, value in (("V", v), ("C", c)):
            if not np.isfinite(value):
                raise NonFiniteStatisticError(alpha, _term_name(kind, ell),
                                              name, float(value))
    cost = 2.0 * eps ** -2 * np.sum(np.sqrt(np.maximum(V, _VAR_FLOOR) * C)) ** 2
    if not cost < _COUNT_LIMIT:
        k = int(np.argmax(V * C))
        raise NonFiniteStatisticError(
            alpha, _term_name(*terms[k][:2]), "V", float(V[k]),
            f"makes the planned cost of {cost:.3g} walk steps overflow int64")


def allocate(eps: float, V, C) -> np.ndarray:
    """Optimal sample counts: M_l = ceil(2 eps^-2 sqrt(V_l/C_l) sum sqrt(V C))."""
    V = np.asarray(V, dtype=np.float64)
    C = np.asarray(C, dtype=np.float64)
    for name, value in (("V", V), ("C", C)):
        if not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite")
    if np.any(C <= 0):
        raise ValueError("costs must be positive")
    check_positive("eps", eps)
    if np.any(V < _VAR_FLOOR):
        if np.all(V < _VAR_FLOOR):
            return np.ones(V.shape, dtype=np.int64)
        warnings.warn("zero variance at some level; clamping to floor")
    V = np.maximum(V, _VAR_FLOOR)
    total = np.sum(np.sqrt(V * C))
    M = np.ceil(2.0 * eps ** -2 * np.sqrt(V / C) * total)
    if not np.all(M < _COUNT_LIMIT):
        raise OverflowError(f"sample allocation {M.max():.3g} overflows int64")
    return np.maximum(M, 1).astype(np.int64)


def _plan(stats: LevelStatistics, eps: float, L: int, alpha: float) -> MlmcPlan:
    """Optimal allocation of the telescope l0..L from the current moments."""
    terms = stats.terms(L)
    V = np.array([m.variance for _, _, m in terms])
    C = np.array([m.mean_cost for _, _, m in terms])
    _check_statistics(alpha, eps, terms, V, C)
    M = allocate(eps, V, C)
    plan = MlmcPlan(eps=eps, coarsest=stats.l0, finest=L, V=V, C=C, M=M,
                    c1_hat=fit_bias_coefficient(stats.bias_norms))
    if not plan.stat_error_sq <= eps ** 2 / 2.0 + 1e-9:
        raise RuntimeError(f"allocation {M.tolist()} misses the statistical "
                           f"error target eps^2/2 = {eps ** 2 / 2.0:.3g}")
    return plan


def _extend(hier: MeshHierarchy, problem: Problem, seed: int,
            stats: LevelStatistics, L: int, M) -> None:
    """Sample each term l0..L from its current count up to its entry of M."""
    _sample_phase(hier, problem, seed, [
        (kind, ell, moments.count, int(m_need), moments)
        for (kind, ell, moments), m_need in zip(stats.terms(L), M)
        if m_need > moments.count])


def run(hier: MeshHierarchy, problem: Problem, eps: float, l0: int, seed: int,
        pilot_M: int = 32, fixed_L: int | None = None, workers: int = 1,
        max_cost: float = MAX_COST) -> MlmcResult:
    """Full multilevel solve: pilot, plan, sample, telescope.

    Parameters
    ----------
    eps : target root-mean-square L2 error (bias^2 + statistical <= eps^2).
    l0 : coarsest level of the telescope, with triangles inside the domain.
    fixed_L : pin the finest level instead of choosing it from the fitted
        bias decay (used when the operator must stay identical across calls).
    max_cost : cap on projected total walk steps, checked after the pilot
        (a NaN or negative cap is rejected before it); inf lifts it.  The
        default, MAX_COST, stops data that break the growth condition on g
        from starting a run that would last weeks.
    workers : kept for old callers; sampling runs in this process, so it
        must be 1.
    """
    if workers != 1:
        raise ValueError("workers must be 1: sampling runs in this process")
    check_positive("eps", eps)
    _check_budget(max_cost)
    _check_coarsest(hier, l0)
    l_max = hier.finest if fixed_L is None else fixed_L
    stats = pilot(hier, problem, pilot_M, seed, l0=l0, l_max=l_max)
    L = fixed_L if fixed_L is not None else choose_levels(
        eps, stats.bias_norms, l0, l_max)
    plan = _plan(stats, eps, L, problem.alpha)

    extra = np.maximum(plan.M - pilot_M, 0)
    projected = stats.total_cost + float(np.sum(extra * plan.C))
    if projected > max_cost:
        raise BudgetExceededError(
            f"projected cost {projected:.3g} exceeds cap {max_cost:.3g}")

    _extend(hier, problem, seed, stats, plan.finest, plan.M)

    solution = prolong_to(hier, stats.plain.mean_field, l0, L)
    for ell in range(l0, L):
        solution += prolong_to(hier, stats.trans[ell].mean_field, ell + 1, L)

    moments = [m for _, _, m in stats.terms(L)]
    used = np.array([m.count for m in moments])
    stat_est = float(np.sum([m.variance / m.count for m in moments]))
    return MlmcResult(solution=FieldVector(L, solution), plan=plan,
                      total_cost=int(stats.total_cost),
                      samples_used=used, stat_error_est=stat_est)


def error_vs_exact(result: MlmcResult, exact, hier: MeshHierarchy):
    """Masked L2 absolute and relative error against a closed-form solution.

    Returns (abs, rel); rel is None when the exact field has zero norm.
    """
    level = hier.level(result.solution.level)
    mass = norm_mass(hier, level.level)
    exact_vals = np.asarray(exact(level.vertices), dtype=np.float64)
    abs_err = mass_norm(mass, result.solution.values - exact_vals)
    exact_norm = mass_norm(mass, exact_vals)
    if exact_norm == 0.0:
        return abs_err, None
    return abs_err, abs_err / exact_norm


def cost_comparison(hier: MeshHierarchy, problem: Problem, eps_list, l0: int,
                    seed: int, pilot_M: int = 32, max_cost: float = 0.0):
    """Projected multilevel vs single-level (vanilla) step costs per tolerance.

    One pilot estimates all level statistics; each eps then gets its finest
    level, its multilevel allocation cost, and the matching vanilla cost
    M C of the plain term at L, with M = ceil(2 eps^-2 V_L): `plain` at l0,
    above it `pilot_M` plain samples at L, walked once after the pilot.  The
    finest level follows the dyadic schedule L = log2(1/eps)/2 (clamped to
    the hierarchy), since pilot mean-correction norms are too noisy to
    resolve bias at these tolerances; the pilot stops at the largest L.  Rows
    whose planned cost fits `max_cost` (inf: every row; the default 0: none)
    are also executed, in eps order, to report realized cost: they reuse the
    pilot and each other's samples, and `executed_cost` is the total walk
    steps that `run` with `fixed_L=L` at the same seed would report
    (tolerances far below that are reported as plans, which is the only
    meaningful scale for costs near 1e16 steps).
    """
    eps_list = list(eps_list)
    for eps in eps_list:
        check_positive("eps", eps)
    _check_budget(max_cost)
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    _check_coarsest(hier, l0)
    levels = [int(np.clip(round(np.log2(1.0 / eps) / 2.0), l0, hier.finest))
              for eps in eps_list]
    stats = pilot(hier, problem, pilot_M, seed, l0=l0,
                  l_max=max(levels, default=l0))
    vanillas = {L: FieldMoments(norm_mass(hier, L))
                for L in sorted(set(levels) - {l0})}
    _sample_phase(hier, problem, seed, [(_KIND_PLAIN, L, 0, pilot_M, m)
                                        for L, m in vanillas.items()])
    vanillas[l0] = stats.plain
    # plan every row from the pilot moments: executing a row extends them,
    # and at L = l0 the vanilla cost reads `plain`, an estimator term
    plans = [_plan(stats, eps, L, problem.alpha)
             for eps, L in zip(eps_list, levels)]
    rows = []
    for plan in plans:
        vanilla = vanillas[plan.finest]
        v_var = max(vanilla.variance, _VAR_FLOOR)
        m_vanilla = max(int(np.ceil(2.0 * plan.eps ** -2 * v_var)), 1)
        rows.append({"eps": plan.eps, "L": plan.finest,
                     "mlmc_cost": plan.planned_cost,
                     "vanilla_cost": float(m_vanilla * vanilla.mean_cost),
                     "M": plan.M.tolist(), "executed_cost": None})
    # along decreasing eps neither L nor any M falls, so each executed row
    # extends the samples of the last one and ends where its own run would
    for row, plan, L in zip(rows, plans, levels):
        if plan.planned_cost <= max_cost:
            _extend(hier, problem, seed, stats, L, plan.M)
            row["executed_cost"] = sum(m.cost for _, _, m in stats.terms(L))
    return rows
