"""Exact projection sampler, weighted MCMC, and the discrete oracle.

Dual-route checks: the log-density accumulated during sequential sampling
must reproduce the standalone Gibbs log-density, and empirical radius laws
must match the closed-form spectral mixtures.  Seeds are fixed so all
statistical assertions are deterministic.
"""

import math

import numpy as np
import pytest

from bergdpp.exprs import parse_weight, weight_sum
from bergdpp.sampler import (
    Configuration,
    McmcConfig,
    RejectionStallError,
    configuration_from_json,
    log_density,
    rng_stream,
    sample_dpp,
    sample_dpp_many,
    sample_weighted,
)
from bergdpp.spaces import make_fubini_study, make_ginibre, make_product
from bergdpp.stats import ks_distance
from discrete_oracle import DiscreteProjectionDpp, discrete_projection_from_space


# ---------------------------------------------------------------------------
# exact sampler basics


@pytest.mark.parametrize(
    "space",
    [make_fubini_study(3), make_ginibre(4), make_product((1, 2), 2)],
    ids=["fs3", "gin4", "prod"],
)
def test_sample_size_and_finiteness(space):
    conf = sample_dpp(space, seed=11)
    assert conf.points.shape == (space.rank, space.dim)
    assert np.all(np.isfinite(conf.points))
    assert conf.origin == "exact"
    # all points distinct
    for a in range(space.rank):
        for b in range(a + 1, space.rank):
            assert np.max(np.abs(conf.points[a] - conf.points[b])) > 1e-12


def test_same_seed_same_stream_identical():
    a = sample_dpp(make_fubini_study(5), seed=3, stream=(1,))
    b = sample_dpp(make_fubini_study(5), seed=3, stream=(1,))
    assert a.points.tobytes() == b.points.tobytes()
    assert a.log_density == b.log_density


def test_different_streams_differ():
    a = sample_dpp(make_fubini_study(5), seed=3, stream=(1,))
    b = sample_dpp(make_fubini_study(5), seed=3, stream=(2,))
    assert a.points.tobytes() != b.points.tobytes()


def test_sample_many_uses_disjoint_streams():
    confs = sample_dpp_many(make_ginibre(3), reps=4, seed=9)
    keys = {c.points.tobytes() for c in confs}
    assert len(keys) == 4


def test_draws_do_not_depend_on_workers():
    # the pooled loop carries proposals across points; each draw must still
    # depend on its own stream only
    space = make_ginibre(40)
    serial = sample_dpp_many(space, reps=7, seed=13)
    pooled = sample_dpp_many(space, reps=7, seed=13, workers=2)
    single = [sample_dpp(space, seed=13, stream=(r,)) for r in range(7)]
    for a, b, c in zip(serial, pooled, single):
        assert a.points.tobytes() == b.points.tobytes() == c.points.tobytes()
        assert a.log_density == b.log_density == c.log_density


@pytest.mark.parametrize(
    "space", [make_fubini_study(9), make_product((1, 2), 2)], ids=["fs9", "prod"]
)
def test_block_size_changes_cost_not_draws(space, monkeypatch):
    # without Ginibre factors the proposal sequence does not depend on the
    # block sizes, so rows carried over and reflected must make the same
    # decisions as rows evaluated afresh in other blocks
    import bergdpp.sampler as sampler

    pooled = [sample_dpp(space, seed=7, stream=(r,)) for r in range(5)]
    monkeypatch.setattr(sampler, "MIN_BLOCK", 3)
    small = [sample_dpp(space, seed=7, stream=(r,)) for r in range(5)]
    for a, b in zip(pooled, small):
        assert a.points.tobytes() == b.points.tobytes()
        assert a.log_density == pytest.approx(b.log_density, rel=1e-12)


def _rank1_reference(space, seed, stream, min_block):
    """The pooled HKPV loop with every reflection applied to conj(W) at once.

    A rank-1 update of conj(W) per accepted point, as the sampler did before
    its reflections were deferred to block boundaries; same stream use.  Its
    arithmetic is the older one throughout: einsum row norms, the test
    (U b <= g) & (g > 0) on g clipped to b, and a reflector built by two
    divisions.
    """
    from bergdpp.sampler import _propose_intensity

    rng, N = rng_stream(seed, *stream), space.rank
    Wc, pts, log_det, U = np.eye(N, dtype=complex, order="F"), np.zeros((N, space.dim), complex), 0.0, np.zeros(0)
    for i in range(N):
        m = N - i
        while True:
            if U.size == 0:
                Z, U = _propose_intensity(space, rng, max(min_block, -(-2 * N // m)))
                V = space.section_matrix(Z)
                b, P = np.einsum("ci,ci->c", V.view(float), V.view(float)), V @ Wc[:, :m]
            g = np.clip(np.einsum("cj,cj->c", P.view(float), P.view(float)), 0.0, b)
            ok = (U * b <= g) & (g > 0.0)
            hit = int(np.argmax(ok))
            if ok[hit]:
                break
            U = U[:0]
        pts[i], log_det = Z[hit], log_det + math.log(g[hit])
        r = P[hit] / math.sqrt(np.vdot(P[hit], P[hit]).real)
        last = abs(r[-1])
        r[-1] += r[-1] / last if last > 0.0 else 1.0
        r /= math.sqrt(2.0 + 2.0 * last)
        Wc[:, :m] -= 2.0 * np.outer(Wc[:, :m] @ r.conj(), r)
        Z, U, b, P = Z[hit + 1 :], U[hit + 1 :], b[hit + 1 :], P[hit + 1 :]
        P = (P - 2.0 * np.outer(P @ r.conj(), r))[:, :-1]
    return pts, log_det


_REFLECTION_SPACES = {
    "fs5": make_fubini_study(5),
    "fs20": make_fubini_study(20),
    "prod2": make_product((1, 2), 2),
    "prod3": make_product((1, 2), 3),
    "gin100": make_ginibre(100),
    "gin300": make_ginibre(300),
    "fs50": make_fubini_study(50),
}


@pytest.mark.parametrize("min_block", [None, 3], ids=["default-block", "block3"])
@pytest.mark.parametrize(
    "space,stream",
    [pytest.param(space, (), id=name) for name, space in _REFLECTION_SPACES.items()]
    + [pytest.param(space, (3,), id=f"{name}-stream3") for name, space in _REFLECTION_SPACES.items()],
)
def test_deferred_reflections_match_rank1_updates(space, min_block, stream, monkeypatch):
    # the block-boundary compact-WY product must reproduce the per-point
    # rank-1 reflections: the same points, log-density to rounding; at
    # MIN_BLOCK = 3 nearly every point ends a block and flushes.  The spaces
    # lie on both sides of the phase-block degree of section evaluation
    # (fs5, fs20 and the products below it, ginibre and fs50 above)
    import bergdpp.sampler as sampler

    if min_block is not None:
        monkeypatch.setattr(sampler, "MIN_BLOCK", min_block)
    conf = sample_dpp(space, seed=5, stream=stream)
    pts, log_det = _rank1_reference(space, 5, stream, sampler.MIN_BLOCK)
    assert conf.points.tobytes() == pts.tobytes()
    assert conf.log_density == pytest.approx(log_det, rel=1e-12)


def test_deferred_reflections_match_rank1_updates_at_ginibre_500():
    import bergdpp.sampler as sampler

    conf = sample_dpp(make_ginibre(500), seed=3)
    pts, log_det = _rank1_reference(make_ginibre(500), 3, (), sampler.MIN_BLOCK)
    assert conf.points.tobytes() == pts.tobytes()
    assert conf.log_density == pytest.approx(log_det, rel=1e-12)


def test_section_rows_per_draw_near_n_harmonic(monkeypatch):
    # a draw tests N * H_N proposals on average; each is evaluated once, and
    # only the untested tail of the last block is thrown away
    from bergdpp.spaces import ModelSpace

    rows = []
    section_matrix = ModelSpace.section_matrix

    def counted(self, points):
        V = section_matrix(self, points)
        rows.append(V.shape[0])
        return V

    monkeypatch.setattr(ModelSpace, "section_matrix", counted)
    space, draws = make_ginibre(100), 20
    for r in range(draws):
        sample_dpp(space, seed=23, stream=(r,))
    n_h = space.rank * sum(1.0 / j for j in range(1, space.rank + 1))
    assert sum(rows) / draws <= 1.5 * n_h


def test_stall_guard_stops_a_draw_out_of_proposals(monkeypatch):
    import bergdpp.sampler as sampler

    monkeypatch.setattr(sampler, "MAX_PROPOSALS", 0)
    with pytest.raises(RejectionStallError, match="no acceptance after 0 proposals at point 1/4"):
        sample_dpp(make_fubini_study(3), seed=1)


# ---------------------------------------------------------------------------
# log-density dual route


@pytest.mark.parametrize(
    "space",
    [make_fubini_study(4), make_ginibre(5), make_product((1, 2), 2), make_ginibre(200),
     make_fubini_study(100)],
    ids=["fs4", "gin5", "prod", "gin200", "fs100"],
)
def test_sampler_log_density_matches_gibbs_op(space):
    # telescoped residual-intensity product vs slogdet of the section matrix;
    # the large ranks run hundreds of in-place reflections of W and of the
    # carried proposal rows
    conf = sample_dpp(space, seed=21)
    direct = log_density(space, conf.points)
    assert abs(conf.log_density - direct) < 1e-12 * max(1.0, abs(direct))


def test_log_density_rank_two_manual():
    # N=2: log|det|^2 from the closed-form 2x2 determinant
    space = make_fubini_study(1)
    pts = np.array([[0.3 + 0.4j], [-0.8 + 0.2j]])
    V = space.section_matrix(pts[:, 0])
    det = V[0, 0] * V[1, 1] - V[0, 1] * V[1, 0]
    assert log_density(space, pts) == pytest.approx(2.0 * math.log(abs(det)), rel=1e-12)


def test_log_density_permutation_invariant():
    space = make_ginibre(4)
    conf = sample_dpp(space, seed=5)
    base = log_density(space, conf.points)
    perm = conf.points[[2, 0, 3, 1]]
    assert log_density(space, perm) == pytest.approx(base, rel=1e-12)


def test_log_density_rejects_a_non_finite_weight():
    # log(r2 - 1) is NaN inside the unit disk, where both points lie
    space = make_fubini_study(1)
    pts = np.array([[0.3 + 0.4j], [-0.8 + 0.2j]])
    with pytest.raises(ValueError, match=r"log\(r2-1\).* at point 0, z = "):
        log_density(space, pts, weight=parse_weight("log(r2-1)"))
    with pytest.raises(ValueError, match=r"log\(r2-1\)"):
        total = weight_sum((1.0, parse_weight("r2")), (space.power, parse_weight("log(r2-1)")))
        log_density(space, pts, weight=total)


def test_log_density_minus_inf_at_coincidence():
    space = make_fubini_study(1)
    pts = np.array([[0.5 + 0.5j], [0.5 + 0.5j]])
    assert log_density(space, pts) == float("-inf")


def test_log_density_weight_terms():
    from bergdpp.exprs import parse_weight

    space = make_fubini_study(2)
    conf = sample_dpp(space, seed=13)
    psi = parse_weight("r2/(1+r2)")
    base = log_density(space, conf.points)
    weighted = log_density(space, conf.points, weight=psi)
    pen = float(np.sum(psi.evaluate(conf.points)))
    assert weighted == pytest.approx(base - pen, rel=1e-12)


def test_log_density_wrong_size_raises():
    with pytest.raises(ValueError, match="points"):
        log_density(make_fubini_study(3), np.zeros((2, 1), dtype=complex))


# ---------------------------------------------------------------------------
# marginal law of the radii


def test_fs_radial_law():
    # pooled radii over independent draws vs the closed-form mixture CDF
    space = make_fubini_study(6)
    confs = sample_dpp_many(space, reps=400, seed=17)
    radii = np.abs(np.concatenate([c.points[:, 0] for c in confs]))
    d = ks_distance(radii, space.factors[0].radial_cdf)
    assert d < 0.04  # n = 2800, far above the 1.36/sqrt(n) 5% band


def test_ginibre_radial_law():
    space = make_ginibre(5)
    confs = sample_dpp_many(space, reps=400, seed=19)
    radii = np.abs(np.concatenate([c.points[:, 0] for c in confs]))
    d = ks_distance(radii, space.factors[0].radial_cdf)
    assert d < 0.04


# ---------------------------------------------------------------------------
# random-matrix oracles: eigenvalue sets that share no code with the sections


def _ginibre_eigenvalues(rng, n):
    # iid complex Gaussian entries with E|g|^2 = 1 (Ginibre 1965)
    g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    return np.linalg.eigvals(g)


def _spherical_eigenvalues(rng, n):
    # eigenvalues of A^{-1} B for iid complex Gaussian A, B (their scale
    # cancels): the Fubini-Study process of rank n (Krishnapur 2009)
    a, b = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(2))
    return np.linalg.eigvals(np.linalg.solve(a, b))


def _nearest_neighbour(z):
    d = np.abs(z[:, None] - z[None, :])
    np.fill_diagonal(d, np.inf)
    return d.min(axis=1)


@pytest.mark.parametrize(
    "space, eigenvalues",
    [(make_ginibre(20), _ginibre_eigenvalues), (make_fubini_study(9), _spherical_eigenvalues)],
    ids=["ginibre20", "fs9"],
)
def test_exact_draws_match_random_matrix_eigenvalues(space, eigenvalues):
    from scipy.stats import ks_2samp

    draws = 300
    hkpv = [c.points[:, 0] for c in sample_dpp_many(space, reps=draws, seed=61)]
    rng = np.random.default_rng(62)
    rmt = [eigenvalues(rng, space.rank) for _ in range(draws)]
    for stat in (np.abs, _nearest_neighbour):
        pooled_hkpv = np.concatenate([stat(z) for z in hkpv])
        pooled_rmt = np.concatenate([stat(z) for z in rmt])
        assert ks_2samp(pooled_hkpv, pooled_rmt).pvalue > 1e-3, stat.__name__


# ---------------------------------------------------------------------------
# weighted MCMC


def test_mcmc_config_validation():
    with pytest.raises(ValueError):
        McmcConfig(steps=0)
    with pytest.raises(ValueError):
        McmcConfig(steps=100, thin=0)
    with pytest.raises(ValueError):
        McmcConfig(steps=100, proposal_scale=-1.0)
    for scale in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            McmcConfig(steps=100, proposal_scale=scale)


def test_mcmc_requires_seed():
    with pytest.raises(ValueError, match="seed"):
        sample_weighted(make_fubini_study(2), McmcConfig(steps=10))


def test_mcmc_unweighted_matches_exact_law():
    # psi = 0 leaves the projection process invariant, so the chain's
    # radius law must agree with the closed-form CDF
    space = make_fubini_study(4)
    run = sample_weighted(
        space, McmcConfig(steps=4000, burn_in=500, thin=25, proposal_scale=0.6), seed=29
    )
    assert 0.05 < run.acceptance_rate < 0.9
    assert run.warnings == []
    radii = np.abs(np.concatenate([c.points[:, 0] for c in run.configurations]))
    d = ks_distance(radii, space.factors[0].radial_cdf)
    assert d < 0.08  # thinned chain, n = 140 pooled radii


def test_mcmc_weight_shifts_the_law():
    # a strong confining weight pulls mass toward the origin
    from bergdpp.exprs import parse_weight

    space = make_fubini_study(4)
    cfg = McmcConfig(steps=3000, burn_in=500, thin=20, proposal_scale=0.5)
    flat = sample_weighted(space, cfg, seed=31)
    pulled = sample_weighted(space, cfg, weight=parse_weight("4*r2"), seed=31)
    r_flat = np.mean(np.abs(np.concatenate([c.points[:, 0] for c in flat.configurations])))
    r_pulled = np.mean(np.abs(np.concatenate([c.points[:, 0] for c in pulled.configurations])))
    assert r_pulled < r_flat


@pytest.mark.parametrize(
    "space, psi_text, steps",
    [
        (make_fubini_study(3), "r2/(1+r2)", 200),
        (make_fubini_study(60), "r2/(1+r2)", 2000),
        (make_product((1, 2), 2), "r2_1*r2_2/(1+r2_1)", 200),
    ],
    ids=["fs3", "fs60", "prod"],
)
def test_mcmc_stores_gibbs_log_density(space, psi_text, steps):
    # long chains apply many rank-1 inverse updates between refactorisations;
    # every collected log-density must still be the exact Gibbs value
    psi = parse_weight(psi_text)
    run = sample_weighted(space, McmcConfig(steps=steps, burn_in=50, thin=50), weight=psi, seed=37)
    assert run.configurations
    for conf in run.configurations:
        want = log_density(space, conf.points, weight=psi)
        assert conf.log_density == pytest.approx(want, rel=1e-10)
        assert conf.origin == "mcmc"


def test_mcmc_factorises_once_per_sweep(monkeypatch):
    # O(N^3) work only at sweep starts (inv) and collected configurations
    # (slogdet); every other step costs one determinant ratio
    calls = {"inv": 0, "slogdet": 0}
    for name in calls:
        real = getattr(np.linalg, name)

        def counting(M, _real=real, _name=name):
            calls[_name] += 1
            return _real(M)

        monkeypatch.setattr(np.linalg, name, counting)
    space = make_fubini_study(9)
    run = sample_weighted(
        space, McmcConfig(steps=95, burn_in=10, thin=20), weight=parse_weight("r2/(1+r2)"), seed=3
    )
    assert len(run.configurations) == 5
    assert calls == {"inv": 10, "slogdet": 5}


@pytest.mark.parametrize("k", [2, 9, 30], ids=["N3", "N10", "N31"])
def test_mcmc_evaluates_each_sweep_in_one_batch(monkeypatch, k):
    # the start configuration, then one section_matrix and one weight call
    # per sweep, whatever N is; inv once per sweep, slogdet once per
    # collected configuration
    import bergdpp.sampler as sampler
    from bergdpp.spaces import ModelSpace

    calls = {"section_matrix": 0, "weight": 0, "inv": 0, "slogdet": 0}
    for name in ("inv", "slogdet"):
        real = getattr(np.linalg, name)

        def counting(M, _real=real, _name=name):
            calls[_name] += 1
            return _real(M)

        monkeypatch.setattr(np.linalg, name, counting)
    real_sections = ModelSpace.section_matrix

    def counting_sections(self, points):
        calls["section_matrix"] += 1
        return real_sections(self, points)

    def exact_start(*args, **kwargs):
        # the exact draw's own section evaluations and inverses are not the chain's
        before = dict(calls)
        conf = real_sample_dpp(*args, **kwargs)
        calls.update(section_matrix=before["section_matrix"], inv=before["inv"])
        return conf

    real_sample_dpp = sampler.sample_dpp
    monkeypatch.setattr(ModelSpace, "section_matrix", counting_sections)
    monkeypatch.setattr(sampler, "sample_dpp", exact_start)
    psi = parse_weight("r2/(1+r2)")

    def weight(points):
        calls["weight"] += 1
        return psi(points)

    space = make_fubini_study(k)
    run = sample_weighted(space, McmcConfig(steps=95, burn_in=10, thin=20), weight=weight, seed=3)
    sweeps = -(-95 // space.rank)
    assert calls == {
        "section_matrix": 1 + sweeps,
        "weight": 1 + sweeps,
        "inv": sweeps,
        "slogdet": len(run.configurations),
    }


def _reference_chain(space, config, psi, seed):
    """The same Metropolis chain with a full slogdet of the section matrix per step.

    It reads the random stream as the sampler does, one (c, 2, n) normal block
    and one block of c uniforms per sweep of c steps, but evaluates every
    proposal on its own.
    """
    rng = rng_stream(seed)
    X = sample_dpp(space, rng=rng, seed=seed).points.copy()
    V = space.section_matrix(X)
    N, n = space.rank, space.dim

    def logdet2(M):
        sign, la = np.linalg.slogdet(M)
        return 2.0 * la if sign != 0 else -np.inf

    def pen(z):
        row = z[None, :]
        return float(psi(row)[0] - np.log(space.base_density(row)[0]))

    cur, cur_pen, out = logdet2(V), np.array([pen(x) for x in X]), []
    for step in range(config.steps):
        j = step % N
        if j == 0:
            c = min(N, config.steps - step)
            xi, u = rng.standard_normal((c, 2, n)), rng.random(c)
        z = X[j] + config.proposal_scale * (xi[j, 0] + 1j * xi[j, 1])
        trial = V.copy()
        trial[j] = space.section_matrix(z[None, :])[0]
        new, new_pen = logdet2(trial), pen(z)
        delta = (new - cur) - (new_pen - cur_pen[j])
        if delta >= 0.0 or math.log(max(u[j], 1e-300)) < delta:
            X[j], V, cur, cur_pen[j] = z, trial, new, new_pen
        if step >= config.burn_in and (step - config.burn_in) % config.thin == 0:
            mu_pen = cur_pen.sum() + float(np.log(space.base_density(X)).sum())
            out.append((X.copy(), cur - mu_pen))
    return out


@pytest.mark.parametrize(
    "space, psi_text, psi_k_text, steps, burn_in, thin",
    [
        (make_fubini_study(30), "re_1/(1+r2)", None, 4 * 31 + 7, 31, 7),
        (make_product((1, 2), 2), "r2_1*r2_2/(1+r2_1)", None, 4 * 18 + 7, 18, 7),
        (make_fubini_study(30), "re_1/(1+r2)", None, 10, 0, 1),
        (make_fubini_study(5), "r2/(1+r2)", "re_1/(1+r2)", 4 * 6 + 5, 6, 3),
    ],
    ids=["fs30", "prod", "fs30-short", "fs5-two-term"],
)
def test_mcmc_matches_a_full_determinant_reference_chain(
    space, psi_text, psi_k_text, steps, burn_in, thin
):
    # an independent oracle for the determinant-ratio updates: over four
    # sweeps and more, each opening with a refactorisation, the chain must
    # make the same moves; a chain shorter than one sweep reads a short block,
    # and the Gibbs potential psi + k psi' is one weight to the sampler
    psi = weight_sum(
        (1.0, parse_weight(psi_text)),
        (float(space.power), psi_k_text and parse_weight(psi_k_text)),
    )
    config = McmcConfig(steps=steps, burn_in=burn_in, thin=thin)
    run = sample_weighted(space, config, weight=psi, seed=41)
    want = _reference_chain(space, config, psi, seed=41)
    assert 0.1 < run.acceptance_rate < 0.9
    assert len(run.configurations) == len(want) >= min(4, steps)
    for conf, (points, logd) in zip(run.configurations, want):
        assert np.array_equal(conf.points, points)
        assert conf.log_density == logd


# ---------------------------------------------------------------------------
# discrete oracle


def test_discrete_kernel_is_projection():
    space = make_fubini_study(3)
    nodes, K = discrete_projection_from_space(space, radial=10, angular=6)
    assert nodes.shape[0] == 60
    dpp = DiscreteProjectionDpp(K)
    assert dpp.rank == space.rank
    # trace equals rank for a projection
    assert np.trace(K).real == pytest.approx(space.rank, abs=1e-8)


def test_discrete_rejects_non_hermitian():
    K = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
    with pytest.raises(ValueError, match="Hermitian"):
        DiscreteProjectionDpp(K)


def test_discrete_rejects_non_projection():
    K = np.diag([0.5, 0.5]).astype(complex)
    with pytest.raises(ValueError, match="projection"):
        DiscreteProjectionDpp(K)


def test_discrete_inclusion_probabilities():
    K = np.diag([1.0, 0.0, 1.0]).astype(complex)
    dpp = DiscreteProjectionDpp(K)
    assert dpp.inclusion_probability([0]) == pytest.approx(1.0)
    assert dpp.inclusion_probability([1]) == pytest.approx(0.0)
    assert dpp.inclusion_probability([0, 2]) == pytest.approx(1.0)
    assert dpp.inclusion_probability([]) == 1.0
    for _ in range(5):
        assert dpp.sample(rng_stream(1)) == (0, 2)


def test_discrete_sample_matches_det_marginals():
    # small grid, fixed seed: singleton frequencies vs det K_S at 4 sigma
    space = make_fubini_study(1)
    nodes, K = discrete_projection_from_space(space, radial=5, angular=2)
    dpp = DiscreteProjectionDpp(K)
    rng = rng_stream(43)
    draws = 4000
    hits = np.zeros(dpp.size)
    for _ in range(draws):
        for idx in dpp.sample(rng):
            hits[idx] += 1
    for i in range(dpp.size):
        p = dpp.inclusion_probability([i])
        sig = math.sqrt(max(p * (1.0 - p), 1e-12) / draws)
        assert abs(hits[i] / draws - p) < 4.0 * sig


# ---------------------------------------------------------------------------
# configuration serialization


def test_configuration_json_round_trip():
    space = make_product((1, 2), 2)
    conf = sample_dpp(space, seed=51)
    rows = conf.to_json_dict()["points"]
    # [re, im] per factor, as plain floats
    assert rows == [[float(x) for z in row for x in (z.real, z.imag)] for row in conf.points]
    assert all(type(x) is float for row in rows for x in row)
    back = configuration_from_json(conf.to_json_dict(), dim=space.dim)
    assert np.allclose(back.points, conf.points, rtol=0, atol=0)
    assert back.log_density == conf.log_density
    assert back.origin == conf.origin
