"""Command-line interface: reproducible JSON/CSV reports over the library.

Subcommands: sample, stats, scaling, converge, energy, check.  Every report
embeds a "schema" tag, the tool version, and the fully resolved configuration,
and contains no timestamps, so a fixed seed with a single worker reproduces
output files byte for byte.  The samples file that `sample` writes and
`stats --samples` reads as one (reps, N, dim) point array is this module's
format alone (_samples_json).  Exit codes: 0 success, 2 validation error
(bad flags, bad expressions, bad config), 3 numerical failure (degenerate
Gram, under-resolved grid, sampler stall, loss of positivity) or out of
memory.

The seed for stochastic subcommands comes from --seed or, failing that, the
BERGDPP_SEED environment variable.  --workers is handed to
sample_dpp_many, which keys every replicate's RNG stream by its index, so
worker count does not change the output; a chain takes --workers 1 alone.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .energy import MIN_S_NODES, GramPath, lambda_report, partition_function
from .exprs import WeightExpr, parse_weight, weight_sum
from .kernel import scaling_errors
from .quadrature import build_grid, gram, gram_to_csv, gram_trace, region_grid, weighted_gram_matrix
from .sampler import (
    McmcConfig,
    McmcConfigError,
    RejectionStallError,
    rng_stream,
    sample_dpp_many,
    sample_weighted,
)
from .spaces import SPACE_KEYS, ModelSpace, space_from_config, space_to_config
from .stats import (
    INTENSITY_COLUMNS,
    circular_law_distance,
    estimate_intensity,
    measure_convergence,
    pair_count_stats,
    parse_region,
    region_count_stats,
)

SCHEMA_TAG = "bergdpp"


class CliError(ValueError):
    """Configuration problem reported with exit code 2."""


# ---------------------------------------------------------------------------
# helpers


def _parse_list(text: str, flag: str, kind: type) -> list:
    """A comma-separated list of int or float values (kind) for a flag."""
    try:
        vals = [kind(part) for part in text.split(",") if part != ""]
    except ValueError:
        noun = "integer" if kind is int else "number"
        raise CliError(f"{flag} expects a comma-separated {noun} list, got {text!r}")
    if not vals:
        raise CliError(f"{flag} is empty")
    if not all(map(math.isfinite, vals)):
        raise CliError(f"{flag} expects finite numbers, got {text!r}")
    return vals


def _given_space(args, k: int | None = None) -> dict:
    """The space block of the space flags given; a --ks power k takes the place of --k."""
    mults = None if args.mults is None else _parse_list(args.mults, "--mults", int)
    given = {"kind": args.space, "k": args.k if k is None else k, "N": args.n, "multiplicities": mults}
    return {key: value for key, value in given.items() if value is not None}


def _space_from_args(args, k: int | None = None) -> ModelSpace:
    """The space of the space flags, built from their block as a samples file's space is."""
    if args.space is None:
        raise CliError("--space is required unless --samples gives the space")
    block, keys = _given_space(args, k), SPACE_KEYS[args.space]
    flag = {"k": "--k", "N": "--n", "multiplicities": "--mults"}
    missing = [flag[key] for key in keys if key not in block]
    if missing:
        raise CliError(f"{', '.join(missing)} is required for --space {args.space}")
    unread = [flag[key] for key in block if key not in ("kind", *keys)]
    if unread:
        raise CliError(f"--space {args.space} does not read {', '.join(unread)}")
    return space_from_config(block)


def _family(args, what: str) -> list[tuple[int, ModelSpace]]:
    """The (k, space) pair of each power in --ks: the fs and product families."""
    if args.space == "ginibre":
        raise CliError(f"{what} covers the fs and product families: the ginibre rank has no power k")
    if args.k is not None:
        raise CliError("--k does not apply beside --ks (each power in --ks sets k)")
    return [(k, _space_from_args(args, k=k)) for k in _parse_list(args.ks, "--ks", int)]


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return int(args.seed)
    env = os.environ.get("BERGDPP_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise CliError(f"BERGDPP_SEED must be an integer, got {env!r}")
    raise CliError("a seed is required: pass --seed or set BERGDPP_SEED")


def _at_least(args, dest: str, least: int, default: int | None = None) -> int:
    """An integer flag's value, default if it was not given; below `least` it is refused, named."""
    value = default if vars(args)[dest] is None else vars(args)[dest]
    if value < least:
        raise CliError(f"--{dest.replace('_', '-')} must be at least {least}, got {value}")
    return value


# the flag of each McmcConfig field; a sample report keys a field's value by its flag's name
_CHAIN_FLAGS = {
    "steps": "--mcmc-steps",
    "burn_in": "--burn-in",
    "thin": "--thin",
    "proposal_scale": "--proposal-scale",
}


def _chain_config(chain: dict) -> McmcConfig:
    """The chain of the chain flags given, by field; a refusal of McmcConfig names its flag."""
    try:
        return McmcConfig(**chain)
    except McmcConfigError as e:
        raise CliError(f"{_CHAIN_FLAGS[e.field]} {e.rule}") from None


def _maybe_weight(text: str | None, dim: int) -> WeightExpr | None:
    """The weight flag's expression, parsed and checked against the chart dimension."""
    if text is None:
        return None
    expr = parse_weight(text)
    expr.validate_for_dim(dim)
    return expr


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {out}: {exc.strerror}") from None


def _emit_json(payload: dict, out: str | None) -> None:
    _emit(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n", out)


@functools.cache
def _configuration_template(rows: int, width: int) -> str:
    """A configuration as json.dumps(indent=2) writes it in a report's top-level list.

    Its slots are log_density, mcmc_step and origin, already encoded, then
    the rows x width floats of the point view in row order.
    """
    row = "[\n          " + ",\n          ".join(["%r"] * width) + "\n        ]"
    points = "[\n        " + ",\n        ".join([row] * rows) + "\n      ]"
    return (
        '    {\n      "log_density": %s,\n      "mcmc_step": %s,\n      "origin": %s,\n'
        '      "points": ' + points + "\n    }"
    )


def _samples_json(payload: dict, points, log_density, steps=None) -> str:
    """The samples report payload + {"configurations": [...]} as JSON text.

    Configuration r has keys log_density, mcmc_step, origin and points:
    log_density[r]; mcmc_step null and origin "exact" for exact draws
    (steps None), or steps[r] and "mcmc" for a chain; the rows of the
    (N, 2 dim) float view of points[r], [re, im] per factor.  The text is
    byte for byte json.dumps(report, sort_keys=True, indent=2,
    allow_nan=False).  The rest of the report goes through that call; each
    configuration is one % on a template of its shape, filled with
    float.__repr__ of its float view, which is how json writes a float.  A
    value that is not finite raises json's ValueError for it: the payload's
    first, then the first in report order.
    """
    text = json.dumps({**payload, "configurations": []}, sort_keys=True, indent=2, allow_nan=False)
    view = np.ascontiguousarray(points, dtype=complex).view(float)
    values = view.reshape(len(view), math.prod(view.shape[1:]))
    logd = np.asarray(log_density, dtype=float)
    bad = ~(np.isfinite(logd) & np.isfinite(values).all(axis=1))
    if bad.any():  # json.dumps raises its own ValueError on the first one
        r = int(bad.argmax())
        first = logd[r] if not math.isfinite(logd[r]) else values[r][~np.isfinite(values[r])][0]
        json.dumps(float(first), indent=2, allow_nan=False)
    if steps is None:
        origin, step_texts = '"exact"', ["null"] * len(values)
    else:
        origin, step_texts = '"mcmc"', map(int.__repr__, np.asarray(steps).tolist())
    template = _configuration_template(*view.shape[1:])
    rows = zip(logd.tolist(), step_texts, values.tolist())
    parts = [template % (float.__repr__(ld), step, origin, *row) for ld, step, row in rows]
    if not parts:
        return text
    # the top-level key sits at indent 2; no string holds a raw newline
    key = '\n  "configurations": ['
    return text.replace(key + "]", key + "\n" + ",\n".join(parts) + "\n  ]", 1)


def _report(schema: str, config: dict, body: dict) -> dict:
    payload = {
        "schema": f"{SCHEMA_TAG}.{schema}/1",
        "version": __version__,
        "config": config,
    }
    payload.update(body)
    return payload


def _csv_text(schema: str, config: dict, header: list[str], rows: list[list]) -> str:
    import io

    buf = io.StringIO()
    cfg = json.dumps(config, sort_keys=True, separators=(",", ":"))
    buf.write(f"# schema={SCHEMA_TAG}.{schema}/1 version={__version__} config={cfg}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _read_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise CliError(f"{path} is not valid JSON: {exc}") from None


# the types json.load gives a JSON number: a bool is an int to Python, but not a number
_NUMBER = {int, float}


def _points_from_json(rows, dim: int) -> np.ndarray:
    """(M, dim) complex points from JSON rows of 2 * dim finite numbers, [re, im] per factor."""
    try:  # all rows at once; rows that fail are walked one by one for the first at fault
        coords = list(itertools.chain.from_iterable(rows))
        # strings and bools convert to floats, but are not JSON numbers
        ok = set(map(len, rows)) <= {2 * dim} and set(map(type, coords)) <= _NUMBER
    except TypeError:
        ok = False
    for i, row in enumerate(() if ok else rows):
        if len(row) != 2 * dim:
            raise ValueError(f"point row {i} has {len(row)} numbers, expected {2 * dim} (re/im per factor)")
        if not set(map(type, row)) <= _NUMBER:
            bad = next(x for x in row if type(x) not in _NUMBER)
            raise ValueError(f"point row {i} holds {json.dumps(bad)}, which is not a number")
    pts = np.array(coords, dtype=float).reshape(len(rows), 2 * dim)
    if not np.isfinite(pts).all():
        row = int(np.isfinite(pts).all(axis=1).argmin())
        raise ValueError(f"point row {row} holds a coordinate that is not finite")
    return pts.view(complex)


def _configuration_fault(path: str, entries: list, space: ModelSpace) -> CliError:
    """The error that names the first malformed configuration of a samples file."""
    for i, entry in enumerate(entries):
        try:
            if len(entry["points"]) != space.rank:
                raise ValueError(f"{len(entry['points'])} points, but the space has rank {space.rank}")
            value = entry["log_density"]
            if type(value) not in _NUMBER or not math.isfinite(value):
                raise ValueError(f"log_density {json.dumps(value)} is not a finite number")
            _points_from_json(entry["points"], space.dim)
        except KeyError as exc:
            return CliError(f"{path}: configuration {i} lacks the key {exc}")
        except (TypeError, ValueError, OverflowError) as exc:
            return CliError(f"{path}: configuration {i}: {exc}")
    return CliError(f"{path}: the configurations' points do not form one array")


def _load_samples(path: str) -> tuple[ModelSpace, np.ndarray]:
    """The space of a samples file and its draws as a (reps, N, dim) complex array."""
    data = _read_json(path)
    entries = data.get("configurations") if isinstance(data, dict) else None
    if not isinstance(entries, list) or "space" not in data:
        raise CliError(f"{path} is not a samples file (missing configurations/space)")
    try:
        space = space_from_config(data["space"])
    except (AttributeError, TypeError, ValueError) as exc:
        raise CliError(f"{path} has a malformed space block: {exc}") from None
    if not entries:
        raise CliError(f"{path} holds no configurations")
    config = data.get("config") if isinstance(data.get("config"), dict) else {}
    keys = ("weight_expr", "weight_k_expr")
    weights = [f"{key}={config[key]!r}" for key in keys if config.get(key) is not None]
    if weights:  # every prediction of stats is one of the unweighted process
        raise CliError(f"{path} holds draws of a weighted process ({', '.join(weights)}); "
                       "stats predicts only the unweighted process")
    try:  # stats reads no log density, but every configuration has a finite one
        log_densities = [entry["log_density"] for entry in entries]
        rows = [entry["points"] for entry in entries]
        finite = set(map(type, log_densities)) <= _NUMBER and all(map(math.isfinite, log_densities))
        if set(map(len, rows)) != {space.rank} or not finite:
            raise ValueError
        points = _points_from_json(list(itertools.chain.from_iterable(rows)), space.dim)
    except (KeyError, TypeError, ValueError, OverflowError):
        raise _configuration_fault(path, entries, space) from None
    return space, points.reshape(len(entries), space.rank, space.dim)


def _check_space_flags(args, space: ModelSpace) -> None:
    """Space flags given beside --samples must agree with the file's space."""
    cfg = space_to_config(space)
    wrong = [f"{key}={v}" for key, v in _given_space(args).items() if cfg.get(key) != v]
    if wrong:
        raise CliError(f"space flags {', '.join(wrong)} contradict --samples {args.samples}: {cfg}")


def _points_from_file(path: str, dim: int) -> np.ndarray:
    data = _read_json(path)
    rows = data.get("points") if isinstance(data, dict) else data
    if rows is None:
        raise CliError(f"{path} has no \"points\" list")
    try:
        pts = _points_from_json(rows, dim)
    except (TypeError, ValueError, OverflowError) as exc:
        raise CliError(f"{path}: {exc}") from None
    with np.errstate(over="ignore"):  # the Fubini-Study density squares 1 + |u_i|^2
        huge = ~np.isfinite((1.0 + np.abs(pts) ** 2) ** 2).all(axis=1)
    if huge.any():
        raise CliError(f"{path}: point row {int(huge.argmax())} has a coordinate u with "
                       "(1 + |u|^2)^2 beyond the float range")
    return pts


# ---------------------------------------------------------------------------
# subcommands


def _cmd_sample(args) -> int:
    space = _space_from_args(args)
    seed = _resolve_seed(args)
    config = {
        "command": "sample",
        "space": space_to_config(space),
        "seed": seed,
    }
    # each field's flag name (its argparse dest), and the flags given; McmcConfig has the defaults
    names = {field: flag[2:].replace("-", "_") for field, flag in _CHAIN_FLAGS.items()}
    chain = {field: vars(args)[name] for field, name in names.items() if vars(args)[name] is not None}
    if args.mcmc_steps is not None:
        if args.reps is not None:
            raise CliError("--reps needs the exact sampler (--mcmc-steps runs one chain)")
        if _at_least(args, "workers", 1, default=1) != 1:
            raise CliError(f"--workers {args.workers} needs the exact sampler (a chain runs in one process)")
        mcmc = _chain_config(chain)
        # the Gibbs potential psi + k psi' of the weighted process
        weight = weight_sum(
            (1.0, _maybe_weight(args.weight_expr, space.dim)),
            (float(space.power), _maybe_weight(args.weight_k_expr, space.dim)),
        )
        config.update({name: getattr(mcmc, field) for field, name in names.items()})
        config.update(weight_expr=args.weight_expr, weight_k_expr=args.weight_k_expr)
        run = sample_weighted(space, mcmc, weight, rng_stream(seed))
        body = {
            "space": space_to_config(space),
            "seed": seed,
            "acceptance_rate": run.acceptance_rate,
            "warnings": run.warnings,
        }
        text = _samples_json(_report("samples", config, body), run.points, run.log_density, run.steps)
        _emit(text + "\n", args.out)
        return 0

    if args.weight_expr is not None or args.weight_k_expr is not None:
        raise CliError(
            "weighted processes are sampled by MCMC; add --mcmc-steps "
            "(the exact sampler covers only the unweighted projection process)"
        )
    if chain:
        given = ", ".join(_CHAIN_FLAGS[key] for key in chain)
        raise CliError(f"chain flags {given} need --mcmc-steps (the exact sampler runs no chain)")
    config["reps"] = reps = _at_least(args, "reps", 1, default=1)
    points, logd = sample_dpp_many(space, reps, seed, workers=_at_least(args, "workers", 1, default=1))
    body = {"space": space_to_config(space), "seed": seed}
    _emit(_samples_json(_report("samples", config, body), points, logd) + "\n", args.out)
    return 0


def _stats_inputs(args) -> tuple[ModelSpace, np.ndarray, dict]:
    """The space, the (reps, N, dim) draws and the report's source block."""
    if args.samples is not None:
        fresh = [flag for flag in ("reps", "seed", "workers") if vars(args)[flag] is not None]
        if fresh:
            given = ", ".join("--" + flag for flag in fresh)
            raise CliError(f"fresh-draw flags {given} do not apply beside --samples "
                           "(the file holds the draws)")
        space, points = _load_samples(args.samples)
        _check_space_flags(args, space)
        return space, points, {"samples": args.samples}
    space = _space_from_args(args)
    seed = _resolve_seed(args)
    reps = _at_least(args, "reps", 1, default=200)
    points, _ = sample_dpp_many(space, reps, seed, workers=_at_least(args, "workers", 1, default=1))
    return space, points, {"space": space_to_config(space), "seed": seed, "reps": reps}


def _cmd_stats(args) -> int:
    space, points, src = _stats_inputs(args)
    if args.stats_command == "intensity":
        table = estimate_intensity(space, points, bins=args.bins, extent=args.extent)
        config = {
            "command": "stats intensity",
            "bins": args.bins,
            "extent": args.extent,
            **src,
        }
        text = _csv_text("intensity", config, list(INTENSITY_COLUMNS), table.tolist())
        _emit(text, args.out)
        return 0

    if args.stats_command == "counts":
        regions = [parse_region(r, space.dim) for r in args.region]
        if not regions:
            raise CliError("at least one --region is required")
        config = {"command": "stats counts", "regions": args.region, **src}
        grid = region_grid(space, *regions)
        grams = [weighted_gram_matrix(space, grid, mask=reg) for reg in regions]
        counts = [
            asdict(region_count_stats(space, points, reg, grid, G))
            for reg, G in zip(regions, grams)
        ]
        pairs = (
            [asdict(p) for p in pair_count_stats(space, points, regions, grid, grams)]
            if len(regions) > 1
            else []
        )
        body = {"counts": counts, "pairs": pairs}
        _emit_json(_report("counts", config, body), args.out)
        return 0

    # circular
    report = circular_law_distance(space, points)
    config = {"command": "stats circular", **src}
    _emit_json(_report("circular", config, asdict(report)), args.out)
    return 0


def _cmd_scaling(args) -> int:
    spaces_by_k = _family(args, "scaling")
    points = None if args.points is None else _points_from_file(args.points, spaces_by_k[0][1].dim)
    rows = scaling_errors(spaces_by_k, points=points)
    config = {
        "command": "scaling",
        "space": args.space,
        "mults": args.mults,
        "ks": [k for k, _ in spaces_by_k],
        "points": args.points,
    }
    _emit_json(_report("scaling", config, {"rows": rows}), args.out)
    return 0


def _cmd_converge(args) -> int:
    spaces_by_k = _family(args, "converge")
    seed = _resolve_seed(args)
    region = parse_region(args.region, spaces_by_k[0][1].dim)
    reps, workers = _at_least(args, "reps", 1), _at_least(args, "workers", 1)
    report = measure_convergence(spaces_by_k, region, reps, seed, workers=workers)
    config = {
        "command": "converge",
        "space": args.space,
        "mults": args.mults,
        "ks": [k for k, _ in spaces_by_k],
        "region": args.region,
        "reps": args.reps,
        "seed": seed,
    }
    _emit_json(_report("converge", config, asdict(report)), args.out)
    return 0


def _cmd_energy(args) -> int:
    if args.energy_command == "cgf":
        space = _space_from_args(args)
        psi = _maybe_weight(args.weight_expr, space.dim)
        ts = _parse_list(args.t, "--t", float)
        path = GramPath(space, psi)
        rows = []
        for t in ts:
            chk = path.derivative_check(t)
            chk["cgf"] = path.cgf(t)
            rows.append(chk)
        config = {
            "command": "energy cgf",
            "space": space_to_config(space),
            "weight_expr": args.weight_expr,
            "t": ts,
        }
        _emit_json(_report("energy-cgf", config, {"rows": rows}), args.out)
        return 0

    # lambda-k
    spaces_by_k = _family(args, "lambda-k")
    _at_least(args, "s_nodes", MIN_S_NODES)
    dim = spaces_by_k[0][1].dim
    report = lambda_report(
        spaces_by_k,
        _maybe_weight(args.f_expr, dim),
        psi=_maybe_weight(args.psi_expr, dim),
        psi_prime=_maybe_weight(args.psi_k_expr, dim),
        s_nodes=args.s_nodes,
    )
    config = {
        "command": "energy lambda-k",
        "space": args.space,
        "mults": args.mults,
        "ks": [k for k, _ in spaces_by_k],
        "f_expr": args.f_expr,
        "psi_expr": args.psi_expr,
        "psi_k_expr": args.psi_k_expr,
        "s_nodes": args.s_nodes,
    }
    _emit_json(_report("energy-lambda", config, asdict(report)), args.out)
    return 0


def _cmd_check(args) -> int:
    if args.check_command == "trace" and args.weight_expr is not None:
        raise CliError(
            "check trace has no weighted variant: int B(x,x) dmu = N is an identity "
            "of the unweighted kernel; use check partition or check gram with --weight-expr"
        )
    space = _space_from_args(args)
    psi = _maybe_weight(args.weight_expr, space.dim)
    grid = build_grid(space, radial=args.radial, angular=args.angular, psi=psi)
    if grid.under_resolved:
        # exit 3 like the degenerate Gram that the coarsest such grids give
        raise ArithmeticError(f"under-resolved grid: {grid.under_resolved}")

    if args.check_command == "partition":
        pv = partition_function(space, psi=psi, grid=grid)
        # beyond rank 170 Z and N! overflow a float, so their logs are printed
        overflow = math.isinf(pv.value)
        print(f"log Z = {pv.log_value:.10g}" if overflow else f"Z = {pv.value:.10g}")
        if psi is None:
            log_factorial = math.lgamma(space.rank + 1)
            rel = abs(math.expm1(pv.log_value - log_factorial))
            exact = (
                f"log N! = {log_factorial:.10g}" if overflow
                else f"N! = {math.factorial(space.rank)}"
            )
            print(f"{exact} (relative error {rel:.3e})")
            _identity_holds("Z = N!", rel)
        return 0

    if args.check_command == "gram":
        g = gram(space, grid, psi=psi)
        err = float(np.max(np.abs(g.matrix - np.eye(space.rank))))
        print(f"max |G - I| = {err:.3e}")
        if args.gram_csv is not None:
            try:
                gram_to_csv(g, args.gram_csv)
            except OSError as exc:
                raise CliError(f"cannot write {args.gram_csv}: {exc.strerror}") from None
            print(f"gram written to {args.gram_csv}")
        if psi is None:
            _identity_holds("G = I", err)
        return 0

    # trace: int B(x,x) dmu = sum_i int |v_i|^2 dmu, the trace of the Gram
    tr = gram_trace(weighted_gram_matrix(space, grid))
    err = abs(tr - space.rank)
    print(f"trace = {tr:.12g} (rank {space.rank}, error {err:.3e})")
    _identity_holds("int B(x,x) dmu = N", err)
    return 0


def _identity_holds(identity: str, err: float) -> None:
    """Exit 3 with a numerical-failure line when a check's error exceeds 1e-8."""
    if not err <= 1e-8:
        raise ArithmeticError(f"{identity} fails: error {err:.3e} exceeds 1e-08")


# ---------------------------------------------------------------------------
# parser


def _add_space_flags(p: argparse.ArgumentParser, required: bool = True) -> None:
    p.add_argument("--space", required=required, choices=["fs", "ginibre", "product"])
    p.add_argument("--k", type=int, default=None, help="power for fs/product spaces")
    p.add_argument("--n", "--N", dest="n", type=int, default=None, help="ginibre rank")
    p.add_argument("--mults", default=None, help="product multiplicities, e.g. 1,2")


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--radial", type=int, default=None, help="radial nodes per panel")
    p.add_argument("--angular", type=int, default=None, help="angular nodes per factor")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bergdpp",
        description="Determinantal point processes from finite-rank reproducing kernels",
    )
    parser.add_argument("--version", action="version", version=f"bergdpp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw exact DPP or weighted MCMC samples")
    _add_space_flags(p)
    p.add_argument("--reps", type=int, default=None, help="exact draws (default 1)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--workers", type=int, default=None, help="exact-draw processes (default 1)")
    p.add_argument("--out", default=None)
    p.add_argument("--weight-expr", default=None, help="extra weight psi")
    p.add_argument("--weight-k-expr", default=None, help="k-scaled weight psi'")
    p.add_argument("--mcmc-steps", type=int, default=None)
    p.add_argument("--burn-in", type=int, default=None)
    p.add_argument("--thin", type=int, default=None)
    p.add_argument("--proposal-scale", type=float, default=None)
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("stats", help="statistics of sampled configurations")
    stats_sub = p.add_subparsers(dest="stats_command", required=True)
    for name in ("intensity", "counts", "circular"):
        q = stats_sub.add_parser(name)
        _add_space_flags(q, required=False)  # a --samples file names its space
        q.add_argument("--samples", default=None, help="samples JSON from `bergdpp sample`")
        q.add_argument("--reps", type=int, default=None, help="fresh draws (default 200)")
        q.add_argument("--seed", type=int, default=None)
        q.add_argument("--workers", type=int, default=None, help="fresh-draw processes (default 1)")
        q.add_argument("--out", default=None)
        if name == "intensity":
            q.add_argument("--bins", type=int, default=40)
            q.add_argument("--extent", type=float, default=None)
        if name == "counts":
            q.add_argument("--region", action="append", default=[])
        q.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("scaling", help="rescaled correlations against the limit kernel")
    _add_space_flags(p)
    p.add_argument("--ks", required=True, help="comma-separated powers")
    p.add_argument("--points", default=None, help="JSON test points file")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_scaling)

    p = sub.add_parser("converge", help="empirical-measure convergence report")
    _add_space_flags(p)
    p.add_argument("--ks", required=True)
    p.add_argument("--region", default="disk:1.0")
    p.add_argument("--reps", type=int, default=200)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_converge)

    p = sub.add_parser("energy", help="partition/CGF/Mabuchi functionals")
    energy_sub = p.add_subparsers(dest="energy_command", required=True)
    q = energy_sub.add_parser("cgf")
    _add_space_flags(q)
    q.add_argument("--weight-expr", required=True)
    q.add_argument("--t", default="0,0.5",
                   help="comma-separated t values; a list that starts with a minus sign is "
                        "written --t=-0.5,0.5")
    q.add_argument("--out", default=None)
    q.set_defaults(fn=_cmd_energy)
    q = energy_sub.add_parser("lambda-k")
    _add_space_flags(q)
    q.add_argument("--ks", required=True)
    q.add_argument("--f-expr", required=True)
    q.add_argument("--psi-expr", default=None)
    q.add_argument("--psi-k-expr", default=None)
    q.add_argument("--s-nodes", type=int, default=24)
    q.add_argument("--out", default=None)
    q.set_defaults(fn=_cmd_energy)

    p = sub.add_parser("check", help="deterministic identity checks")
    check_sub = p.add_subparsers(dest="check_command", required=True)
    for name in ("partition", "gram", "trace"):
        q = check_sub.add_parser(name)
        _add_space_flags(q)
        _add_grid_flags(q)
        q.add_argument("--weight-expr", default=None)
        if name == "gram":
            q.add_argument("--gram-csv", default=None)
        q.set_defaults(fn=_cmd_check)

    return parser


# one parser per process; parse_args leaves it unchanged (an append action
# copies its default list before extending it)
_parser = functools.cache(build_parser)


def run(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except ValueError as exc:  # CliError and ParseError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, RejectionStallError) as exc:  # GramDegenerateError, PositivityError
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # numpy's names the array it could not allocate
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
