"""Stochastic re-implementation kernels and three compliance semantics.

A kernel is a Monte Carlo sampler: noise of a named shape added to the hub
point, then Euclidean projection back onto the simplex.  Compliance is
judged three ways on the sampled cloud: a safety radius (quantile of
distances, with lattice erosion/dilation), a chance constraint with its
highest-density region from a Gaussian KDE, and a Wasserstein-1 cure cost.
Each check has a verdict and a set; the three-way comparison computes only
the verdicts.

Every "within r" test is the one L2 ball rule, `relations._ball`: erosion
(`erosion_verdict`, `metric_pullback_check`) and the metric transports of
relations, the dilated `metric_pushforward` and its eroded partner
`metric_pullback`.  The transports share one near-matrix product.

Sampling uses the counter-based Philox generator keyed by the seed, so a
cloud is a pure function of (spec, hub, seed); sample i occupies a fixed
position in the counter stream regardless of scheduling.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .geometry import (
    FLOAT_TOL,
    InvalidArgument,
    LatticeSpace,
    LinearConstraint,
    _row_blocks,
    enumerate_simplex,
    expected_simplex_size,
    parse_constraint,
    restrict,
)
from .optimize import Infeasible
from .relations import Relation, _ball, _by_rows

SIMPLEX_SUM_TOL = 1e-12

# Banana-shape constants, calibrated (scripts/kernel_calibration.py) so the
# published radius ordering, the x1 <= 0.4 rejection and the erosion count
# band all reproduce across seeds.  The curvature lives in [3, 6].
BANANA_CURVATURE = 3.5
BANANA_T_SCALE = 1.5
BANANA_ETA_SCALE = 0.5

BIMODAL_OFFSET = 0.05

# Sample distances per kde_density block: two float64 buffers of this many
# entries (1 MB) stay in a 2 MB L2 cache.
KDE_BLOCK = 2**16

# Hard cap on the samples of one cloud, checked before anything is drawn.
MAX_SAMPLES = 1_000_000

# Hard caps on the cells of one scan, checked before it starts.  A lattice-scan
# cure has violating samples x |S| x (n+1) cells, about 10 s at 21 ns a cell;
# an erosion |S| x violators x (n+1), about 11 s at 11 ns a cell.
MAX_CURE_CELLS = 480_000_000
MAX_EROSION_CELLS = 1_000_000_000


@dataclass(frozen=True)
class KernelSpec:
    """Shape and budget of a stochastic re-implementation kernel."""

    shape: str = "gaussian"
    sigma: float = 0.03
    n_samples: int = 4000
    seed: int = 42
    delta1: float = BIMODAL_OFFSET
    curvature: float = BANANA_CURVATURE
    t_scale: float = BANANA_T_SCALE
    eta_scale: float = BANANA_ETA_SCALE

    def __post_init__(self):
        if self.shape not in ("gaussian", "bimodal", "banana"):
            raise InvalidArgument(f"unknown kernel shape {self.shape!r}")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise InvalidArgument("sigma must be a finite positive number")
        if self.n_samples < 100:
            raise InvalidArgument("need at least 100 samples")
        if self.n_samples > MAX_SAMPLES:
            raise InvalidArgument(f"{self.n_samples} samples exceed the supported "
                                  f"{MAX_SAMPLES}")


@dataclass(frozen=True)
class SampleCloud:
    """Monte Carlo realization of a kernel at one hub point."""

    hub: np.ndarray
    samples: np.ndarray
    spec: KernelSpec

    def __post_init__(self):
        s = self.samples
        if not np.all(np.isfinite(s)):
            raise InvalidArgument("samples must be finite")
        if np.any(s < -SIMPLEX_SUM_TOL) or np.max(np.abs(s.sum(axis=1) - 1.0)) > SIMPLEX_SUM_TOL:
            raise InvalidArgument("samples must lie on the simplex")

    def __len__(self):
        return len(self.samples)


@dataclass(frozen=True)
class SafetyRadius:
    r: float
    epsilon: float
    center: np.ndarray


@dataclass(frozen=True)
class HdrResult:
    """Superlevel set of the sample-cloud density at the threshold lambda_eps:
    `region` is a read-only bool mask over the evaluation lattice."""

    lambda_eps: float
    region: np.ndarray
    bandwidth: float
    mass: float          # sample fraction whose density clears the threshold
    point_mass: bool = False


@dataclass(frozen=True)
class CureResult:
    mean_cost: float
    per_sample: np.ndarray
    violation_rate: float

    @property
    def mean_violation_cost(self) -> float:
        """Average cure cost among the violating samples (0 if none violate)."""
        bad = self.per_sample[self.per_sample > 0]
        return float(bad.mean()) if len(bad) else 0.0


def project_to_simplex(V: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row onto the probability simplex.

    The classic sort-and-threshold routine; exact renormalization at the
    end keeps row sums at 1 to machine precision.
    """
    V = np.atleast_2d(np.asarray(V, dtype=np.float64))
    n = V.shape[1]
    U = np.sort(V, axis=1)[:, ::-1]
    css = np.cumsum(U, axis=1) - 1.0
    ks = np.arange(1, n + 1)
    cond = U - css / ks > 0
    rho = n - 1 - np.argmax(cond[:, ::-1], axis=1)
    theta = css[np.arange(len(V)), rho] / (rho + 1)
    W = np.maximum(V - theta[:, None], 0.0)
    W /= W.sum(axis=1, keepdims=True)
    return W


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def sample_kernel(spec: KernelSpec, x: Sequence[float]) -> SampleCloud:
    """Draw the cloud for hub x: shaped noise, then simplex projection."""
    x = np.asarray(x, dtype=np.float64)
    if (not np.all(np.isfinite(x)) or np.any(x < -FLOAT_TOL)
            or abs(float(x.sum()) - 1.0) > FLOAT_TOL):
        raise InvalidArgument(f"hub {x.tolist()} is not on the simplex")
    d = len(x)
    if spec.shape == "bimodal" and d < 2:
        raise InvalidArgument("bimodal kernel needs at least two assets")
    if spec.shape == "banana" and d < 3:
        raise InvalidArgument("banana kernel needs at least three assets")
    # Bimodal offsets sum to zero, so the displacement survives projection
    # and the coordinate-1 mode separation is exactly 2*delta1; banana
    # offsets likewise live in the simplex plane by construction.
    rng = _generator(spec.seed)
    raw = x + _draw_offsets(spec, d, rng)
    return SampleCloud(hub=x, samples=project_to_simplex(raw), spec=spec)


def _draw_offsets(spec: KernelSpec, d: int, rng: np.random.Generator) -> np.ndarray:
    """Raw (pre-projection) noise offsets for one cloud."""
    N = spec.n_samples
    if spec.shape == "gaussian":
        return spec.sigma * rng.standard_normal((N, d))
    if spec.shape == "bimodal":
        offset = np.full(d, -spec.delta1 / (d - 1))
        offset[0] = spec.delta1
        signs = np.where(rng.random(N) < 0.5, -1.0, 1.0)
        return signs[:, None] * offset[None, :] + spec.sigma * rng.standard_normal((N, d))
    t = spec.t_scale * spec.sigma * rng.standard_normal(N)
    eta = spec.eta_scale * spec.sigma * rng.standard_normal(N)
    bend = spec.curvature * t**2 + eta
    out = np.zeros((N, d))
    out[:, 0] = t
    out[:, 1] = bend
    out[:, 2] = -(t + bend)
    return out


def sample_chain(spec_p: KernelSpec, spec_q: KernelSpec,
                 x: Sequence[float]) -> SampleCloud:
    """Two-stage composition: Q-noise applied to each projected P-sample.

    Stage seeds are independent Philox keys, so the chain is reproducible
    and the per-stage marginals match the individual kernels.
    """
    if spec_p.n_samples != spec_q.n_samples:
        raise InvalidArgument("chained kernels must share the sample count")
    first = sample_kernel(spec_p, x)
    rng = _generator(spec_q.seed)
    second = project_to_simplex(first.samples + _draw_offsets(spec_q, first.samples.shape[1], rng))
    return SampleCloud(hub=first.hub, samples=second, spec=spec_q)


def safety_radius(cloud: SampleCloud, center: Sequence[float],
                  epsilon: float) -> SafetyRadius:
    """Nearest-rank (1-eps) quantile of L2 distances from the center."""
    if len(cloud) == 0:
        raise InvalidArgument("empty sample cloud")
    if not 0.0 < epsilon < 1.0:
        raise InvalidArgument("epsilon must lie in (0, 1)")
    center = np.asarray(center, dtype=np.float64)
    dist = np.linalg.norm(cloud.samples - center, axis=1)
    k = math.ceil((1.0 - epsilon) * len(dist))
    r = float(np.partition(dist, k - 1)[k - 1])
    return SafetyRadius(r=r, epsilon=epsilon, center=center)


def gaussian_radius_oracle(sigma: float, epsilon: float) -> float:
    """Analytic (1-eps) quantile of in-plane distance for isotropic noise.

    Projecting isotropic d-dim noise to the simplex plane leaves isotropic
    2-dim noise of the same sigma, so the distance is sigma * chi(2) and
    the quantile is sigma * sqrt(2 ln(1/eps)).
    """
    return sigma * math.sqrt(2.0 * math.log(1.0 / epsilon))


@dataclass(frozen=True)
class ErosionCheck:
    """The eroded set as a read-only (len(S),) bool mask over S, and the hub verdict."""

    eroded: np.ndarray
    accepted: bool
    hub_image: np.ndarray
    r: float


def erosion_verdict(S: LatticeSpace, r: float, img: Sequence[float],
                    ambient: Optional[LatticeSpace] = None) -> tuple[np.ndarray, bool]:
    """Ambient lattice points outside S, and whether img lies farther than r
    from all of them (the hub verdict of the erosion check).

    `ambient` is the full lattice of S's simplex when the caller already
    has it; otherwise it is enumerated.
    """
    if r < 0:
        raise InvalidArgument("radius must be non-negative")
    if ambient is None:
        ambient = enumerate_simplex(S.n, S.N)
    elif (ambient.n, ambient.N, len(ambient)) != (S.n, S.N, expected_simplex_size(S.n, S.N)):
        raise InvalidArgument("ambient must be the full lattice of the constraint space")
    viol = ambient.array[S.index_holdings(ambient.holdings) < 0]
    return viol, not _ball(np.array([img], dtype=np.float64), viol, r * r).any()


def metric_pullback_check(S: LatticeSpace, r: float, hub: Sequence[float],
                          center_map=None,
                          ambient: Optional[LatticeSpace] = None) -> ErosionCheck:
    """Inner parallel set of S on its lattice, and the hub verdict.

    A constraint point survives erosion when every ambient lattice point
    within distance r of it also satisfies the constraints; the hub is
    accepted when its (centered) image would survive the same test.  The
    scan of S against the violators is refused above MAX_EROSION_CELLS.
    """
    hub = np.asarray(hub, dtype=np.float64)
    img = np.asarray(center_map.evaluate(hub) if center_map is not None else hub,
                     dtype=np.float64)
    viol, accepted = erosion_verdict(S, r, img, ambient)
    eroded = np.empty(len(S), dtype=bool)
    for s in _row_blocks(len(S), viol.size, MAX_EROSION_CELLS,
                         f"erosion of {len(S)} points by {len(viol)} violators"):
        eroded[s] = ~_ball(S.array[s], viol, r * r).any(axis=1)
    eroded.flags.writeable = False
    return ErosionCheck(eroded=eroded, accepted=accepted, hub_image=img, r=r)


def _near_hits(A: np.ndarray, B: np.ndarray, bound: float, M: np.ndarray) -> np.ndarray:
    """(|A|, M.shape[1]) bool: entry (i, k) is whether some row j of B in the
    ball of row i, `_ball(A, B, bound)[i, j]`, has M[j, k] set.  The near
    matrix is built in row blocks of A, then multiplied by M once."""
    near = _by_rows(lambda X, Y: _ball(X, Y, bound), A, B)
    # float counts: a sum of non-negative terms is never rounded to 0
    return (near.astype(np.float32) @ M.astype(np.float32)) > 0


def metric_pushforward(f, R: Relation, r: float) -> Relation:
    """Minkowski dilation of the pushforward: (y, z) for the lattice points y
    within r of some f(x) with (x, z) in R.

    Returns an explicit relation on (codomain lattice) x Z.
    """
    if r < 0:
        raise InvalidArgument("radius must be non-negative")
    if not f.domain.same_points(R.domain):
        raise InvalidArgument("metric_pushforward: f must start at R's domain")
    hit = _near_hits(f.codomain.array, f.images, (r + FLOAT_TOL) ** 2, R.mask())
    return Relation.from_mask(f.codomain, R.codomain, hit)


def metric_pullback(f, S: Relation, r: float) -> Relation:
    """Eroded pullback: (x, z) such that every point y of S's domain within r
    of f(x) has (y, z) in S.

    Returns an explicit relation on (domain lattice) x Z.
    """
    if r < 0:
        raise InvalidArgument("radius must be non-negative")
    if not f.codomain.same_points(S.domain):
        raise InvalidArgument("metric_pullback: f must land in S's domain")
    bad = _near_hits(f.images, S.domain.array, r * r, ~S.mask())
    return Relation.from_mask(f.domain, S.codomain, ~bad)


def compose_radius(rP: float, rQ: float, L: float = 1.0,
                   mode: str = "linear") -> float:
    """Composite safety radius: worst-case linear or independent quadratic."""
    if rP < 0 or rQ < 0:
        raise InvalidArgument("radii must be non-negative")
    if L <= 0:
        raise InvalidArgument("Lipschitz constant must be positive")
    if mode == "linear":
        return L * rP + rQ
    if mode == "quadratic":
        return math.hypot(L * rP, rQ)
    raise InvalidArgument("mode must be 'linear' or 'quadratic'")


def kde_density(samples: np.ndarray, queries: np.ndarray,
                bandwidth: float) -> np.ndarray:
    """Gaussian KDE of the cloud evaluated at query points.

    Queries go in blocks of about KDE_BLOCK sample distances.  A block's
    squared distances are built one coordinate at a time (difference,
    square, added in coordinate order) in two reused buffers, then divided
    by -2h^2, exponentiated and summed along each row.  These are the
    operations, in the order, of the plain broadcast formula
    exp(-|q - s|^2 / 2h^2) summed over samples, so the densities are
    bit-for-bit the same while no (queries, M, d) temporary is built.
    """
    if not (math.isfinite(bandwidth) and bandwidth > 0):
        raise InvalidArgument("bandwidth must be a finite positive number")
    norm = 1.0 / (len(samples) * (2.0 * math.pi * bandwidth**2))
    out = np.empty(len(queries))
    h2 = 2.0 * bandwidth * bandwidth
    cols = np.ascontiguousarray(samples.T)
    rows = max(1, KDE_BLOCK // cols.shape[1])
    d2_buf, diff_buf = np.empty((rows, cols.shape[1])), np.empty((rows, cols.shape[1]))
    for start in range(0, len(queries), rows):
        block = queries[start:start + rows]
        d2, diff = d2_buf[:len(block)], diff_buf[:len(block)]
        np.square(np.subtract.outer(block[:, 0], cols[0], out=d2), out=d2)
        for j in range(1, len(cols)):
            d2 += np.square(np.subtract.outer(block[:, j], cols[j], out=diff), out=diff)
        d2 /= -h2
        out[start:start + rows] = np.exp(d2, out=d2).sum(axis=1) * norm
    return out


def hdr_regions(cloud: SampleCloud, bandwidth: float, epsilons: Sequence[float],
                eval_lattice: LatticeSpace) -> list[HdrResult]:
    """Density superlevel regions at the sample-quantile thresholds, one per
    risk budget, from one pair of density evaluations.

    lambda_eps is the nearest-rank (1-eps) quantile of the density at the
    sample points, so shrinking the risk budget keeps only higher-density
    lattice points and regions nest: region(0.05) is inside region(0.20).
    """
    epsilons = tuple(epsilons)
    if not all(0.0 < eps < 1.0 for eps in epsilons):
        raise InvalidArgument("epsilon must lie in (0, 1)")
    spread = float(np.max(np.abs(cloud.samples - cloud.samples[0])))
    if spread <= 1e-12:
        # Degenerate cloud: report the nearest lattice point as a point mass.
        d2 = ((eval_lattice.array - cloud.samples[0]) ** 2).sum(axis=1)
        region = np.arange(len(eval_lattice)) == np.argmin(d2)
        region.flags.writeable = False
        return [HdrResult(lambda_eps=float("inf"), region=region, bandwidth=bandwidth,
                          mass=1.0, point_mass=True) for _ in epsilons]
    dens_at_samples = kde_density(cloud.samples, cloud.samples, bandwidth)
    dens_at_grid = kde_density(cloud.samples, eval_lattice.array, bandwidth)
    out = []
    for eps in epsilons:
        k = math.ceil((1.0 - eps) * len(dens_at_samples))
        lam = float(np.partition(dens_at_samples, k - 1)[k - 1])
        region = dens_at_grid >= lam
        region.flags.writeable = False
        mass = float((dens_at_samples >= lam).mean())
        out.append(HdrResult(lambda_eps=lam, region=region, bandwidth=bandwidth, mass=mass))
    return out


def hdr(cloud: SampleCloud, bandwidth: float, epsilon: float,
        eval_lattice: LatticeSpace) -> HdrResult:
    """Density superlevel region at one risk budget (see hdr_regions)."""
    (result,) = hdr_regions(cloud, bandwidth, (epsilon,), eval_lattice)
    return result


def lattice_components(space: LatticeSpace, mask: np.ndarray) -> list[np.ndarray]:
    """Connected components of the masked points of a space under elementary
    lattice moves (one unit shifted between two coordinates): read-only
    (len(space),) bool masks, ordered by their first True index."""
    mask = np.asarray(mask)
    if mask.dtype != bool or mask.shape != (len(space),):
        raise InvalidArgument(f"a set of the space is a ({len(space)},) bool mask")
    idx = np.flatnonzero(mask)
    E = np.eye(space.n + 1, dtype=np.int64)
    moves = []
    for i, j in itertools.permutations(range(space.n + 1), 2):
        nb = space.index_holdings(space.holdings[idx] - E[i] + E[j])
        hit = (nb >= 0) & mask[nb]
        moves.append((idx[hit], nb[hit]))
    # each masked point takes the smallest index among its masked neighbors
    # until none changes, which leaves a component labelled by its first point
    label, changed = np.arange(len(space)), True
    while changed:
        new = label.copy()
        for x, y in moves:
            np.minimum.at(new, x, label[y])
        label, changed = new, not np.array_equal(new, label)
    comps = mask & (label == np.unique(label[idx])[:, None])
    comps.flags.writeable = False
    return list(comps)


@dataclass(frozen=True)
class HdrCheck:
    mass: float
    verdict: bool
    robust_verdict: bool
    region_size: int


def chance_constraint(cloud: SampleCloud, S: LatticeSpace,
                      epsilon: float) -> tuple[float, bool]:
    """Sample mass inside S, and the verdict P(sample in S) >= 1 - eps."""
    if not 0.0 < epsilon < 1.0:
        raise InvalidArgument("epsilon must lie in (0, 1)")
    mass = float(S.contains_rows(cloud.samples).mean())
    return mass, mass >= 1.0 - epsilon


def hdr_pullback_check(cloud: SampleCloud, S: LatticeSpace, epsilon: float,
                       bandwidth: Optional[float] = None,
                       eval_lattice: Optional[LatticeSpace] = None) -> HdrCheck:
    """Chance-constraint verdict: P(sample in S) >= 1 - eps.

    Also reports the robust (geometric) verdict: the density region is
    non-empty and lies entirely inside S.  An empty region certifies nothing.
    """
    mass, verdict = chance_constraint(cloud, S, epsilon)
    bw = bandwidth if bandwidth is not None else cloud.spec.sigma
    lattice = eval_lattice if eval_lattice is not None else enumerate_simplex(S.n, S.N)
    region = hdr(cloud, bw, epsilon, lattice).region
    robust = bool(region.any() and S.contains_rows(lattice.array[region]).all())
    return HdrCheck(mass=mass, verdict=verdict,
                    robust_verdict=robust, region_size=int(region.sum()))


def _halfspace_cure(samples: np.ndarray, c: LinearConstraint,
                    tau: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """Analytic cure for a single coordinate-cap constraint x_i <= b.

    Excess weight above the cap moves to the cheapest other coordinate:
    cost = (tau_i + min_{j != i} tau_j) * excess (2 * excess unweighted).
    Returns None when the constraint is not of that shape.
    """
    coeffs = c.coeff_array()
    nz = np.nonzero(np.abs(coeffs) > 0)[0]
    if c.sense != "<=" or len(nz) != 1 or abs(coeffs[nz[0]] - 1.0) > 0:
        return None
    i = int(nz[0])
    excess = np.maximum(samples[:, i] - float(c.bound), 0.0)
    if tau is None:
        unit = 2.0
    else:
        others = np.delete(np.asarray(tau, dtype=float), i)
        unit = float(tau[i] + others.min())
    return unit * excess


def _lattice_cure(bad: np.ndarray, S: LatticeSpace, w: np.ndarray) -> np.ndarray:
    """min over the points y of S of sum_i w_i |x_i - y_i|, per row x of bad,
    scanned in row blocks; refused above MAX_CURE_CELLS cells."""
    vals = np.empty(len(bad))
    for s in _row_blocks(len(bad), S.array.size, MAX_CURE_CELLS,
                         f"lattice cure of {len(bad)} violating samples x {len(S)} points"):
        vals[s] = (np.abs(bad[s, None, :] - S.array[None]) * w).sum(axis=2).min(axis=1)
    return vals


def wasserstein_cure(cloud: SampleCloud, S: LatticeSpace,
                     tau: Optional[Sequence[float]] = None) -> CureResult:
    """Per-sample minimal (optionally tau-weighted) L1 transport into S.

    Samples already satisfying the constraints cost exactly zero.  A pure
    coordinate-cap half-space admits the analytic projection fast path;
    anything else scans S's lattice exhaustively.
    """
    if len(S) == 0:
        raise Infeasible("cure target set is empty")
    tau_arr = None if tau is None else np.asarray(tau, dtype=np.float64)
    if tau_arr is not None:
        if tau_arr.shape != (S.n + 1,):
            raise InvalidArgument(f"need one weight per asset ({S.n + 1}), "
                                  f"got {tau_arr.size}")
        if not np.all(np.isfinite(tau_arr)):
            raise InvalidArgument("weights must be finite")
        if np.any(tau_arr < 0):
            raise InvalidArgument("weights must be non-negative")
    costs = np.zeros(len(cloud.samples))
    outside = ~S.contains_rows(cloud.samples)
    if outside.any():
        cost = None
        if not S.explicit and len(S.constraints) == 1:
            cost = _halfspace_cure(cloud.samples[outside], S.constraints[0], tau_arr)
        if cost is None:
            w = tau_arr if tau_arr is not None else np.ones(S.n + 1)
            cost = _lattice_cure(cloud.samples[outside], S, w)
        costs[outside] = cost
    return CureResult(mean_cost=float(costs.mean()), per_sample=costs,
                      violation_rate=float(outside.mean()))


# -- scenarios and the three-way comparison ------------------------------------


@dataclass(frozen=True)
class Scenario:
    """Named kernel-plus-constraint configuration for the comparison table."""

    name: str
    spec: KernelSpec
    hub: tuple[float, ...]
    constraint: str
    epsilon: float = 0.05
    erosion_N: int = 50
    cure_N: int = 100
    cure_budget: float = 0.05

    def constraint_space(self, N: int) -> LatticeSpace:
        amb = enumerate_simplex(len(self.hub) - 1, N)
        return restrict(amb, [parse_constraint(self.constraint, len(self.hub))])

    def to_dict(self) -> dict:
        return {
            "name": self.name, "shape": self.spec.shape, "sigma": self.spec.sigma,
            "n_samples": self.spec.n_samples, "seed": self.spec.seed,
            "hub": list(self.hub), "constraint": self.constraint,
            "epsilon": self.epsilon, "cure_budget": self.cure_budget,
        }


def builtin_scenarios(seed: int = 42, n_samples: int = 4000) -> dict[str, Scenario]:
    """The three reference scenarios behind the comparison table.

    Hubs and constraints are part of the scenario configuration: the
    gaussian hub sits 0.05 inside its cap (the calibrated cure scenario),
    the split peak sits deep inside, and the banana sits close enough to
    x1 <= 0.4 that only the inflated safety ball crosses it.
    """
    return {
        "gaussian": Scenario(
            name="gaussian",
            spec=KernelSpec(shape="gaussian", sigma=0.03, n_samples=n_samples, seed=seed),
            hub=(0.45, 0.30, 0.25), constraint="x1<=0.5"),
        "split_peak": Scenario(
            name="split_peak",
            spec=KernelSpec(shape="bimodal", sigma=0.03, n_samples=n_samples, seed=seed),
            hub=(0.40, 0.32, 0.28), constraint="x1<=0.5"),
        "banana": Scenario(
            name="banana",
            spec=KernelSpec(shape="banana", sigma=0.03, n_samples=n_samples, seed=seed),
            hub=(0.32, 0.34, 0.34), constraint="x1<=0.4"),
    }


@dataclass(frozen=True)
class ComparisonRow:
    scenario: str
    radius: float
    radius_verdict: str
    hdr_mass: float
    hdr_verdict: str
    cure_mean: float
    cure_verdict: str

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "safety_radius": {"r": self.radius, "verdict": self.radius_verdict},
            "hdr": {"mass": self.hdr_mass, "verdict": self.hdr_verdict},
            "wasserstein": {"mean_cost": self.cure_mean, "verdict": self.cure_verdict},
        }


def three_way_compare(scenario: Scenario,
                      constraint: Optional[str] = None,
                      epsilon: Optional[float] = None) -> ComparisonRow:
    """Safety-radius, HDR and Wasserstein verdicts for one scenario.

    Only the verdicts are computed: the radius column is the erosion hub
    verdict without the eroded set, and the HDR column is the
    chance-constraint mass P(sample in S) >= 1 - eps; the density region
    and its robust verdict (hdr_pullback_check) are not computed here.
    """
    if constraint is not None:
        scenario = replace(scenario, constraint=constraint)
    if epsilon is not None:
        scenario = replace(scenario, epsilon=epsilon)
    cloud = sample_kernel(scenario.spec, scenario.hub)
    rad = safety_radius(cloud, scenario.hub, scenario.epsilon)
    ambient = enumerate_simplex(len(scenario.hub) - 1, scenario.erosion_N)
    S_erosion = restrict(ambient, [parse_constraint(scenario.constraint, len(scenario.hub))])
    _, erosion_ok = erosion_verdict(S_erosion, rad.r, scenario.hub, ambient)
    S_cure = scenario.constraint_space(scenario.cure_N)
    mass, hdr_ok = chance_constraint(cloud, S_cure, scenario.epsilon)
    cure = wasserstein_cure(cloud, S_cure)
    return ComparisonRow(
        scenario=scenario.name,
        radius=rad.r,
        radius_verdict="Safe" if erosion_ok else "Rejected",
        hdr_mass=mass,
        hdr_verdict="Safe" if hdr_ok else "Rejected",
        cure_mean=cure.mean_cost,
        cure_verdict="Approved" if cure.mean_cost <= scenario.cure_budget else "Denied",
    )


def comparison_table(seed: int = 42, n_samples: int = 4000) -> list[ComparisonRow]:
    return [three_way_compare(s) for s in builtin_scenarios(seed, n_samples).values()]
