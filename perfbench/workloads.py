"""Job lists of the three benchmark workloads, as pure functions of (workload, seed).

A job is one `bergdpp` command line, run in-process through `bergdpp.cli.run`.
Every workload has a fixed composition and order: the seed only draws the
`--seed` values handed to the stochastic commands (and the samples file of
gram-check).  The work in one pass therefore does not change with the seed,
so runs at different seeds are comparable.

Every pass has 35 jobs.  The pooled job times of a run hold one block of
samples per job (one sample per pass).  With an odd count the median falls
in the middle of the 18th job's block, and 0.9 * 35 = 31.5 puts p90 in the
middle of the fourth-slowest job's block.  Each mix is arranged so that
these two jobs sit apart from, or in the middle of, jobs of similar cost.

The package never sees the benchmark seed, only the generated argv.  Argv
entries equal to SAMPLES_FILE are replaced by the path of the samples file
the worker writes during set-up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

SAMPLES_FILE = "@samples"

# Weights of the mixes.  The radial ones keep the Gram diagonal in the monomial
# basis; the `re_1` ones break rotation invariance and need the dense path.
RADIAL_1 = "r2/(1+r2)"
RADIAL_2 = "r2_1*r2_2/(1+r2_1)"
DENSE_1 = "re_1/(1+r2)"
DENSE_2 = "re_1/(1+r2_1)"  # bare r2 is rejected on a two-factor chart

# MCMC chain shape: 20 collected configurations per chain.
MCMC_STEPS, MCMC_BURN_IN, MCMC_THIN = 1000, 500, 25

# Regions of the `stats counts` jobs, two per job so that pair counts run.
# The two regions of a job are disjoint: for overlapping regions the pair
# prediction leaves out the points that fall in both, and the z-score of
# #A * #B sits near +4 at 60 reps.
REGION_PAIRS = (
    ("disk:1.0", "annulus:1.0:2.0"),
    ("disk:0.5", "annulus:0.5:1.5"),
    ("annulus:0.25:1.0", "annulus:1.0:4.0"),
    ("disk:0.75", "annulus:0.75:1.5"),
    ("disk:1.5", "annulus:1.5:3.0"),
    ("annulus:0.5:1.0", "annulus:1.0:3.0"),
    ("disk:0.6", "annulus:1.2:3.0"),
    ("annulus:1.0:2.0", "annulus:2.0:5.0"),
)


@dataclass(frozen=True)
class Job:
    """One CLI invocation.

    kind:  job type, the unit of warm-up (command, space and weighting).
    check: how the worker verifies the output (see checks.py).
    """

    kind: str
    argv: tuple[str, ...]
    check: str


@dataclass(frozen=True)
class Workload:
    jobs: tuple[Job, ...]      # one timed pass, in run order
    warmups: tuple[Job, ...]   # one small untimed job per job type
    inputs: tuple[Job, ...]    # set-up commands that write SAMPLES_FILE


def _space(space: str, size: int) -> list[str]:
    if space == "fs":
        return ["--space", "fs", "--k", str(size)]
    if space == "ginibre":
        return ["--space", "ginibre", "--n", str(size)]
    return ["--space", "product", "--mults", "1,2", "--k", str(size)]


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(1, 2**31))


def _sample(space: str, size: int, reps: int, rng: random.Random) -> Job:
    argv = ["sample", *_space(space, size), "--reps", str(reps), "--seed", _seed(rng), "--workers", "1"]
    return Job(f"sample-{space}", tuple(argv), "samples")


def _mcmc(space: str, size: int, weight: str, rng: random.Random, steps: int = MCMC_STEPS) -> Job:
    burn_in = min(MCMC_BURN_IN, steps // 2)
    argv = [
        "sample", *_space(space, size), "--weight-expr", weight,
        "--mcmc-steps", str(steps), "--burn-in", str(burn_in), "--thin", str(MCMC_THIN),
        "--seed", _seed(rng), "--workers", "1",
    ]
    return Job(f"mcmc-{space}", tuple(argv), "mcmc")


def _check(command: str, space: str, size: int, weight: str | None = None) -> Job:
    argv = ["check", command, *_space(space, size)]
    if weight is None:
        return Job(f"check-{command}-{space}", tuple(argv), "identity")
    return Job(f"check-{command}-{space}-weighted", (*argv, "--weight-expr", weight), "reference")


def _converge(ks: str, rng: random.Random, reps: int | None = None) -> Job:
    argv = ["converge", "--space", "fs", "--ks", ks, "--seed", _seed(rng), "--workers", "1"]
    if reps is not None:
        argv += ["--reps", str(reps)]
    return Job("converge", tuple(argv), "json")


def _circular(n: int, reps: int, rng: random.Random) -> Job:
    argv = ["stats", "circular", *_space("ginibre", n), "--reps", str(reps), "--seed", _seed(rng), "--workers", "1"]
    return Job("stats-circular", tuple(argv), "json")


def _counts(regions: tuple[str, str]) -> Job:
    argv = ["stats", "counts", "--space", "fs", "--samples", SAMPLES_FILE]
    for region in regions:
        argv += ["--region", region]
    return Job("stats-counts", tuple(argv), "zscores")


def _lambda_k(ks: str) -> Job:
    argv = ["energy", "lambda-k", "--space", "fs", "--ks", ks, "--f-expr", "0.2/(1+r2)"]
    return Job("energy-lambda-k", tuple(argv), "reference")


def _cgf(k: int) -> Job:
    argv = ["energy", "cgf", *_space("fs", k), "--weight-expr", DENSE_1, "--t", "0,0.5,1"]
    return Job("energy-cgf", tuple(argv), "reference")


def _scaling(ks: str) -> Job:
    return Job("scaling", ("scaling", "--space", "fs", "--ks", ks), "reference")


def _exact_sample(rng: random.Random) -> Workload:
    jobs = [_sample("ginibre", n, reps, rng) for n in (100, 200, 300) for reps in (1, 2)]
    jobs += [_sample("fs", 5, reps, rng) for reps in (10, 15, 20, 25, 30, 35, 40, 45, 50, 60)]
    jobs += [_sample("fs", k, reps, rng) for k in (20, 50) for reps in (10, 20, 30, 40)]
    jobs += [_sample("product", 2, reps, rng) for reps in (10, 12, 14, 16, 18, 20)]
    jobs += [_sample("product", 3, reps, rng) for reps in (10, 15, 20)]
    jobs += [_converge("5,10,20", rng, reps=100), _circular(100, 5, rng)]
    warmups = [
        _sample("ginibre", 10, 1, rng),
        _sample("fs", 2, 2, rng),
        _sample("product", 1, 2, rng),
        _converge("2,3", rng, reps=5),
        _circular(10, 2, rng),
    ]
    return Workload(tuple(jobs), tuple(warmups), ())


# (space, size, [(check command, weight or None)]): every family and size
# of the mix appears, with the commands spread so that one pass stays near
# 8 s.  The fourth-slowest job (ginibre 100 trace) is about twice as fast as
# the third and twice as slow as the fifth, so p90 does not fall where two
# jobs of different cost overlap; fs 150 gram is there to be that third job.
_GRAM_PLAN = (
    ("fs", 50, [("partition", None), ("gram", None), ("trace", None), ("partition", RADIAL_1), ("gram", RADIAL_1)]),
    ("fs", 100, [("partition", None), ("trace", None), ("gram", RADIAL_1)]),
    ("fs", 150, [("gram", None)]),
    ("fs", 200, [("trace", None)]),
    ("ginibre", 50, [("partition", None), ("gram", None), ("trace", None), ("partition", RADIAL_1)]),
    ("ginibre", 100, [("trace", None)]),
    ("ginibre", 150, [("trace", None)]),
    ("product", 2, [("partition", None), ("gram", None), ("trace", None), ("partition", RADIAL_2), ("gram", RADIAL_2)]),
    ("product", 3, [("partition", None), ("trace", None), ("gram", RADIAL_2)]),
    ("product", 4, [("trace", None)]),
)


def _gram_check(rng: random.Random) -> Workload:
    jobs = [
        _check(command, space, size, weight)
        for space, size, commands in _GRAM_PLAN
        for command, weight in commands
    ]
    jobs += [_lambda_k("10,20,40"), _scaling("25,100")]
    jobs += [_counts(pair) for pair in REGION_PAIRS]
    tiny = {"fs": 3, "ginibre": 3, "product": 1}
    seen: dict[str, Job] = {}
    for space, _, commands in _GRAM_PLAN:
        for command, weight in commands:
            job = _check(command, space, tiny[space], weight)
            seen.setdefault(job.kind, job)
    warmups = [*seen.values(), _lambda_k("2,3"), _scaling("2,3"), _counts(REGION_PAIRS[0])]
    samples = ("sample", *_space("fs", 5), "--reps", "240", "--seed", _seed(rng), "--workers", "1", "--out", SAMPLES_FILE)
    return Workload(tuple(jobs), tuple(warmups), (Job("sample-fs", samples, "none"),))


def _weighted(rng: random.Random) -> Workload:
    jobs = [
        _mcmc("fs", k, weight, rng)
        for k in (10, 30, 60)
        for weight in (RADIAL_1, DENSE_1)
        for _ in range(3)
    ]
    jobs += [_mcmc("product", 2, RADIAL_2, rng) for _ in range(3)]
    jobs += [_cgf(k) for k in (5, 10, 20, 30, 50)]
    jobs += [_check("partition", "fs", k, DENSE_1) for k in (10, 20, 30, 45, 60, 100)]
    jobs += [_check("partition", "product", k, DENSE_2) for k in (1, 2, 3)]
    warmups = [
        _mcmc("fs", 3, DENSE_1, rng, steps=100),
        _mcmc("product", 1, RADIAL_2, rng, steps=100),
        _cgf(3),
        _check("partition", "fs", 3, DENSE_1),
        _check("partition", "product", 1, DENSE_2),
    ]
    return Workload(tuple(jobs), tuple(warmups), ())


WORKLOADS = {
    "exact-sample": _exact_sample,
    "gram-check": _gram_check,
    "weighted": _weighted,
}


def build(workload: str, seed: int) -> Workload:
    """The workload's jobs, warm-ups and set-up inputs for this seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"))
