"""Exact and Markov-chain samplers for the determinantal point processes.

Exact sampler.  A projection kernel of rank N is sampled sequentially: after
points x_1..x_i are fixed, the next point has conditional mu-density
g_i(x) / (N - i), where g_i(x) is the squared norm of the feature vector
v(x) = (v_1(x), ..., v_N(x)) projected onto the orthocomplement of
span{v(x_1), ..., v(x_i)}.  That orthocomplement is carried as a matrix W
with orthonormal columns, so g_i(x) = |W^H v(x)|^2 costs one matvec and each
acceptance removes a column by a Householder reflection.  Proposals are
drawn from the exact one-point intensity B(x, x) dmu / N, which is directly
sampleable: each factor draws its radius (propose_radius, spaces module
docstring) with a uniform angle.  On Fubini-Study factors B(x, x) is
constant, so that is the base measure itself; on the Ginibre plane it is a
uniform mixture over j < N of Gamma(j+1) squared radii.

Since g_i <= B pointwise, acceptance g_i(x) / B(x, x) needs no estimated
envelope, and the expected acceptance rate at step i is (N - i) / N.  So a
draw tests N * H_N proposals on average (H_N the N-th harmonic number).  A
stall guard still errors out after MAX_PROPOSALS proposals for one point.

Proposals are pooled.  A block of max(MIN_BLOCK, ceil(2N / (N - i)))
proposals, each with its acceptance uniform, is drawn and its section rows
evaluated once.  Its proposals are tested in order, and the first one that
passes becomes x_{i+1}.  The untested tail of the block carries over to the
next point (Lavancier, Moller and Rubak, JRSS-B 2015, give this rejection
form).  That is exact: the tail's points and uniforms are independent of
every accept/reject decision made so far, so they are as good as fresh
draws.  Their rows P = V conj(W) are updated by the same Householder
reflection as W, at O(c m) cost for c rows and m live columns, so no
section is evaluated twice.  A new block is drawn only when the pool is
empty, and each proposal is tested at most once.  conj(W) lives in one
preallocated Fortran-order buffer: each reflection sends v's component to
the last live column, so dropping that column is a view.  conj(W) itself is
read only when a new block forms P, so its reflections H_j = I - 2 y_j y_j^H
(unit y_j, zero past the live columns) are recorded as the columns of Y and
applied together at the next block boundary, in compact-WY form (Schreiber
and Van Loan, SIAM J. Sci. Stat. Comput. 1989): H_1 ... H_k = I - Y T Y^H
with T^{-1} = I / 2 + strict_upper(Y^H Y).  That is two matrix products and
one k x k inverse per block instead of a rank-1 update per point, with numpy
alone (importing scipy.linalg costs every process about 60 ms and 6 MB).

What one point costs.  With c rows left in the pool and m live columns, an
accepted point takes one row-norm pass over P (c m), one comparison of the
pool against it and an argmax, the reflector (m, written straight into Y as
conj(p) / (|p| sqrt(2 + 2|h|))) and the pool's reflection (a c x m
matrix-vector product and a rank-1 update of its m - 1 kept columns): about
a dozen numpy calls and O(c m) flops.  At small rank the calls take the
time: a fs k=5 draw spends about half of it on its six points, the rest on
its one or two blocks.  At Ginibre N = 300 the points take about a fifth,
and the block flushes, the section rows and P = V conj(W) most of the rest.

Weighted sampler.  The weighted process has density proportional to
|det M|^2 prod_j e^{-w(x_j)} against mu^N, for one Gibbs potential w.  The
caller forms w, for instance psi + k psi' through exprs.weight_sum, so the
sampler evaluates one weight per site and knows nothing of k.  Its
configurations are generated by Metropolis-Hastings with single-site
Gaussian moves in chart coordinates.  The chain targets the chart-Lebesgue
density, so acceptance ratios include the base-density factor at the moved
site along with the determinant and weight terms.  The determinant term is
a Sherman-Morrison ratio against a carried inverse of the section matrix,
refactorised once per sweep.  Coincident points get log-density -inf and
are never accepted.  A sweep moves each site once, so its proposals
depend only on the sweep start: they are drawn, and their sections and
weights evaluated, in one batch per sweep.  That is exact, since the
proposals are functions of the sweep start and the uniforms are
independent of every accept/reject decision.

All randomness derives from one integer seed through counter-based Philox
streams; replicas use disjoint spawn keys, so runs are reproducible and
parallelizable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exprs import weight_values
from .spaces import ModelSpace, _as_points

__all__ = [
    "RejectionStallError",
    "Configuration",
    "McmcConfig",
    "McmcRun",
    "rng_stream",
    "log_density",
    "points_from_json",
    "configuration_from_json",
    "sample_dpp",
    "sample_dpp_many",
    "sample_weighted",
]


class RejectionStallError(RuntimeError):
    """Rejection sampler exhausted its proposal budget."""


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """Philox generator for (seed, stream key); disjoint keys never collide."""
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(seq))


@dataclass(frozen=True)
class Configuration:
    """One sampled N-point configuration on the chart."""

    points: np.ndarray          # (N, dim) complex
    log_density: float          # log |det M|^2 - sum_j w(x_j), wrt mu^N, w the Gibbs potential
    origin: str                 # "exact" | "mcmc"
    mcmc_step: int | None = None

    def to_json_dict(self) -> dict:
        # the (N, 2 * dim) float view holds [re, im] per factor
        pts = np.ascontiguousarray(self.points, dtype=complex).view(float)
        return {
            "points": pts.tolist(),
            "log_density": self.log_density,
            "origin": self.origin,
            "mcmc_step": self.mcmc_step,
        }


def points_from_json(rows, dim: int) -> np.ndarray:
    """(M, dim) complex points from JSON rows of 2 * dim numbers, [re, im] per factor."""
    for i, row in enumerate(rows):
        if len(row) != 2 * dim:
            raise ValueError(
                f"point row {i} has {len(row)} numbers, expected {2 * dim} (re/im per factor)"
            )
    pts = np.array(rows, dtype=float).reshape(len(rows), 2 * dim).view(complex)
    if not np.all(np.isfinite(pts)):
        raise ValueError("point coordinates must be finite numbers")
    return pts


def configuration_from_json(entry: dict, dim: int) -> Configuration:
    """Inverse of Configuration.to_json_dict."""
    return Configuration(
        points=points_from_json(entry["points"], dim),
        log_density=float(entry["log_density"]),
        origin=entry.get("origin", "exact"),
        mcmc_step=entry.get("mcmc_step"),
    )


def log_density(space: ModelSpace, points, weight=None) -> float:
    """Unnormalized Gibbs log-density of a configuration against mu^N.

    log |det M|^2 with M_ij = v_i(x_j), minus sum_j w(x_j) for the Gibbs
    potential w = weight.  Returns -inf for coincident points (singular M).
    """
    Z = _as_points(points, space.dim)
    if Z.shape[0] != space.rank:
        raise ValueError(f"configuration must have {space.rank} points, got {Z.shape[0]}")
    V = space.section_matrix(Z)  # rows v(x_j); det M = det V^T = det V
    sign, logabs = np.linalg.slogdet(V)
    if sign == 0 or not np.isfinite(logabs):
        return float("-inf")
    return float(2.0 * logabs - weight_values(weight, Z).sum())


# ---------------------------------------------------------------------------
# exact projection sampler

# Proposals drawn per block: at least MIN_BLOCK, and twice the expected
# N / (N - i) tests of point i, so that one block usually covers a point.
MIN_BLOCK = 32
# The stall guard: proposals tested for one point before RejectionStallError.
MAX_PROPOSALS = 1_000_000
# The least positive double: U b floored at it makes "U b <= g" false at g = 0.
_LEAST_SUBNORMAL = 5e-324


def _propose_intensity(
    space: ModelSpace, rng: np.random.Generator, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """`size` points from the one-point intensity B(x, x) dmu / N, and their acceptance uniforms.

    All uniforms of the block come from one generator call, proposal by
    proposal: per factor a radial CDF value (Ginibre: a mixture index) and an
    angle, then the acceptance uniform.  Ginibre adds one gamma call per
    factor.  Without Ginibre factors the k-th proposal is therefore the same
    whatever the block sizes, and so is a whole draw.
    """
    u = rng.random((size, 2 * space.dim + 1))
    cols = [
        f.propose_radius(u[:, 2 * i], rng) * np.exp((2j * math.pi) * u[:, 2 * i + 1])
        for i, f in enumerate(space.factors)
    ]
    return np.stack(cols, axis=1), u[:, -1]


def _apply_reflections(Wc: np.ndarray, Y: np.ndarray, m: int) -> None:
    """Apply the pending reflections H_j = I - 2 y_j y_j^H to conj(W), in order.

    Y holds the unit y_j as columns; y_j is zero below its live-column count
    at the time, so the dropped columns of Wc need no update and only
    Wc[:, :m] is written.  In compact-WY form (Schreiber and Van Loan 1989)
    H_1 ... H_k = I - Y T Y^H with T upper triangular and
    T^{-1} = I / 2 + strict_upper(Y^H Y), so the batch costs two N x m0 x k
    matrix products (m0 = rows of Y, the live columns when the batch began)
    and one k x k inverse (numpy's solve against the N right-hand sides
    conj(W) Y takes several times as long as the inverse and a product).
    """
    k = Y.shape[1]
    Tinv = np.triu(Y.conj().T @ Y, 1)
    Tinv.flat[:: k + 1] = 0.5
    Wc[:, :m] -= (Wc[:, : Y.shape[0]] @ Y) @ (np.linalg.inv(Tinv) @ Y[:m].conj().T)


def sample_dpp(
    space: ModelSpace,
    seed: int | None = None,
    rng: np.random.Generator | None = None,
    stream: tuple[int, ...] = (),
) -> Configuration:
    """One exact draw of the rank-N projection process.

    The orthocomplement of the accepted feature vectors is tracked as a
    matrix W with orthonormal columns, so the residual intensity is
    g_i(x) = |W^H v(x)|^2 and each acceptance shrinks W by one Householder
    reflection.  det[B(x_a, x_b)] telescopes as prod_i g_i(x_i), which gives
    the emitted log_density directly.  Proposals are tested in pooled blocks
    (see the module docstring); MAX_PROPOSALS bounds the proposals tested
    for one point.
    """
    if rng is None:
        if seed is None:
            raise ValueError("sample_dpp needs a seed or an explicit generator")
        rng = rng_stream(seed, *stream)
    N = space.rank
    # conj(W) in place: live columns [:m], the last one is dropped per point.
    # Column j < k of Y holds the j-th reflection since the last block, when
    # m + k columns were live; the next block applies them all first and
    # zeroes the columns it used.  Up to min(m + k, block size) points are
    # accepted between blocks.
    Wc = np.eye(N, dtype=complex, order="F")
    Y = np.zeros((N, min(N, max(MIN_BLOCK, math.isqrt(2 * N) + 1))), dtype=complex, order="F")
    k = 0                                        # reflections pending
    pts = np.zeros((N, space.dim), dtype=complex)
    log_det = 0.0
    ub = np.zeros(0)                             # untested pool: Z, ub = U b, b = |v|^2, P = V conj(W)

    for i in range(N):
        m = N - i
        tested = 0
        while True:
            if ub.size == 0:
                if tested >= MAX_PROPOSALS:
                    raise RejectionStallError(
                        f"no acceptance after {tested} proposals at point {i + 1}/{N}; "
                        "the residual intensity envelope looks wrong for this space"
                    )
                if k:
                    _apply_reflections(Wc, Y[: m + k, :k], m)
                    Y[: m + k, :k] = 0.0
                    k = 0
                Z, U = _propose_intensity(space, rng, max(MIN_BLOCK, -(-2 * N // m)))
                V = space.section_matrix(Z)
                b = np.vecdot(V.view(float), V.view(float))
                # A proposal passes when U b <= min(g, b) and g > 0.  U b <= b
                # holds for b > 0; with U b floored at the least subnormal,
                # ub <= g alone asks g > 0, and a row with b = 0 never passes.
                ub = np.maximum(U * b, _LEAST_SUBNORMAL)
                ub[b == 0.0] = np.inf
                P = V @ Wc[:, :m]
                del V, U                             # free them before the next block
            g = np.vecdot(P.view(float), P.view(float))
            ok = ub <= g
            hit = ok.argmax()
            if ok[hit]:
                break
            tested += ub.size
            ub = ub[:0]
        pts[i] = Z[hit]
        norm2 = g[hit]
        log_det += math.log(min(norm2, b[hit]))  # g_i <= B(x, x), up to rounding
        # Householder on coefficients: rotate W so its last live column
        # carries v's component, then drop that column.  With p = W^H v(x)
        # and h its unit last entry, the unit reflector is
        # (p / |p| + phase(h) e_m) / sqrt(2 + 2|h|).
        p = P[hit]
        norm = math.sqrt(norm2)
        h = complex(p[-1]) / norm
        last = abs(h)
        scale = math.sqrt(2.0 + 2.0 * last)
        rc = np.conjugate(p, out=Y[:m, k])       # conj(W) <- conj(W) (I - 2 rc rc^H), deferred
        rc *= 1.0 / (norm * scale)
        rc[-1] = ((h + (h / last if last > 0.0 else 1.0)) / scale).conjugate()
        k += 1
        # the untested tail carries over, its kept columns reflected by the
        # same Householder now: P <- P - 2 (P rc) conj(rc), where conj(rc)
        # on the kept columns is p[:-1] / (|p| sqrt(2 + 2|h|))
        hit += 1
        if hit == ub.size:
            ub = ub[:0]
            continue
        Z, ub, b, P = Z[hit:], ub[hit:], b[hit:], P[hit:]
        x = P @ rc
        x *= 2.0 / (norm * scale)
        P = P[:, :-1] - x[:, None] * p[:-1]

    return Configuration(
        points=pts,
        log_density=log_det,
        origin="exact",
    )


def sample_dpp_many(
    space: ModelSpace,
    reps: int,
    seed: int,
    stream_base: tuple[int, ...] = (),
    workers: int = 1,
) -> list[Configuration]:
    """reps independent exact draws on disjoint Philox streams.

    Draw r uses the stream stream_base + (r,), so the result does not depend
    on workers.  workers > 1 spreads the draws over a process pool; its
    processes are spawned, so each first pays a fresh import of bergdpp.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    streams = [stream_base + (r,) for r in range(reps)]
    if workers == 1:
        return [sample_dpp(space, seed=seed, stream=st) for st in streams]
    # imported here alone: at start-up they would cost every process about 7 ms
    import concurrent.futures
    import multiprocessing

    context = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(workers, mp_context=context) as pool:
        futures = [pool.submit(sample_dpp, space, seed=seed, stream=st) for st in streams]
        return [f.result() for f in futures]


# ---------------------------------------------------------------------------
# weighted sampler (Metropolis-Hastings)


@dataclass(frozen=True)
class McmcConfig:
    """Chain length and proposal parameters for single-site moves."""

    steps: int
    burn_in: int = 0
    thin: int = 1
    proposal_scale: float = 0.5

    def __post_init__(self):
        if self.steps <= 0:
            raise ValueError("steps must be positive")
        if not (0 <= self.burn_in < self.steps):
            raise ValueError("burn_in must lie in [0, steps)")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")
        if not (0 < self.proposal_scale < math.inf):
            raise ValueError(
                f"proposal_scale must be positive and finite, got {self.proposal_scale}"
            )


@dataclass
class McmcRun:
    """Output of the weighted sampler with chain diagnostics."""

    configurations: list[Configuration]
    acceptance_rate: float
    warnings: list[str]


def sample_weighted(
    space: ModelSpace,
    config: McmcConfig,
    weight=None,
    seed: int | None = None,
) -> McmcRun:
    """Metropolis-Hastings chain for the process with Gibbs potential weight.

    Single-site Gaussian proposals in chart coordinates (standard deviation
    proposal_scale per real component), initialized from one exact draw of
    the unweighted process.  Step `step` moves site j = step % N, so a sweep
    visits every site once.

    A sweep of c = min(N, steps - s0) steps reads the stream twice: its
    moves as standard_normal((c, 2, n)), [re, im] per site, then random(c),
    one uniform per step, used or not.  Its proposals depend only on the
    sweep start, so their section rows and their penalty w - log(base
    density) take one call each; every proposal is checked for finiteness.
    One whose coordinates or squared moduli are not finite gets penalty inf,
    so log-ratio -inf, before anything is evaluated at it.

    The chain carries Vinv = V^{-1} next to the section matrix V.  Replacing
    row j by v' multiplies det V by r = v' . Vinv[:, j] (Sherman-Morrison), so
    scoring a proposal costs O(N) and a rejection touches nothing.  An
    accepted move replaces row j of V and applies the rank-1 update
    Vinv -= Vinv[:, j] (v' Vinv - e_j) / r in O(N^2).  Vinv is refactorised
    from V at the start of every sweep, so rounding accumulates over at most
    N steps.  A zero ratio (coincident points) gives log-ratio -inf and is
    rejected.  slogdet runs only at collected configurations, which carry
    the mu^N Gibbs log-density of the current V and their step index.
    """
    if seed is None:
        raise ValueError("sample_weighted needs a seed")
    rng = rng_stream(seed)
    N, n = space.rank, space.dim

    start = sample_dpp(space, rng=rng)
    X = start.points.copy()
    V = space.section_matrix(X)

    def penalty(Z: np.ndarray) -> np.ndarray:
        return weight_values(weight, Z) - np.log(space.base_density(Z))

    def slog(Vm: np.ndarray) -> float:
        sign, la = np.linalg.slogdet(Vm)
        return float(2.0 * la) if sign != 0 and np.isfinite(la) else float("-inf")

    cur_pen = penalty(X)
    accepted = 0
    out: list[Configuration] = []
    sigma = config.proposal_scale

    for s0 in range(0, config.steps, N):
        # the sweep's c proposals depend only on the sweep-start sites
        c = min(N, config.steps - s0)
        Vinv = np.linalg.inv(V)
        xi = rng.standard_normal((c, 2, n))
        log_u = np.log(np.maximum(rng.random(c), 1e-300))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            Z = X[:c] + sigma * (xi[:, 0] + 1j * xi[:, 1])
            off = ~np.isfinite(np.vecdot(Z, Z).real)  # a coordinate or |z_i|^2 is not finite
            if off.any():  # evaluated at the current sites instead, and never accepted
                Z[off] = X[:c][off]
            pen = penalty(Z)  # inf where the base density underflows to 0
        pen[off] = np.inf
        S = space.section_matrix(Z)
        for j in range(c):
            r = S[j] @ Vinv[:, j]
            delta = (2.0 * math.log(abs(r)) if r != 0 else -np.inf) - (pen[j] - cur_pen[j])
            if delta >= 0.0 or log_u[j] < delta:
                w = S[j] @ Vinv
                w[j] -= 1.0
                Vinv -= np.outer(Vinv[:, j] / r, w)
                V[j] = S[j]
                X[j] = Z[j]
                cur_pen[j] = pen[j]
                accepted += 1
            step = s0 + j
            if step >= config.burn_in and (step - config.burn_in) % config.thin == 0:
                mu_pen = cur_pen.sum() + float(np.log(space.base_density(X)).sum())
                out.append(
                    Configuration(
                        points=X.copy(),
                        log_density=slog(V) - mu_pen,
                        origin="mcmc",
                        mcmc_step=step,
                    )
                )

    rate = accepted / config.steps
    warnings = []
    if not (0.05 <= rate <= 0.9):
        warnings.append(
            f"acceptance rate {rate:.3f} outside [0.05, 0.90]; "
            "adjust proposal_scale"
        )
    return McmcRun(configurations=out, acceptance_rate=rate, warnings=warnings)
