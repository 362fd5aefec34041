"""Output checks for benchmark jobs.

A job fails when it exits non-zero, when a JSON report is not strict JSON
(`NaN` and `Infinity` are rejected), or when its values fail the check its
Job.check names:

  identity   `check` commands without a weight: the CLI's own bound, 1e-8 on
             |Z/N! - 1|, max |G - I| and |trace - N|, re-read from its output.
  reference  deterministic values (weighted Z and Gram, CGF, Lambda_k, scaling
             errors) against references.json, at the tolerance observe() gives.
  samples    exact draws: one configuration per rep, all of the same size.
  mcmc       chains: no acceptance warning and the expected number of
             collected configurations.
  zscores    count and pair z-scores finite and within Z_BOUND.
  json       strict JSON only.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

IDENTITY_BOUND = 1e-8
REL_TOL = 1e-8            # values the CLI writes with full precision
REL_TOL_PRINTED = 2e-3    # `max |G - I|`, which the CLI prints with 4 digits
ABS_FLOOR = 1e-12         # absolute slack for reference values that are 0
CGF_GAP_BOUND = 1e-6      # finite-difference CGF derivative vs Bergman integral
Z_BOUND = 6.0             # |z| of a count statistic under the model

REFERENCES = Path(__file__).with_name("references.json")

_NUMBER = r"([-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|inf|nan))"


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def reference_key(argv) -> str:
    return " ".join(argv)


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text: str) -> dict:
    return json.loads(text, parse_constant=_reject_constant)


def _flag(argv, name: str) -> str | None:
    argv = list(argv)
    return argv[argv.index(name) + 1] if name in argv else None


def _printed(text: str, label: str) -> float:
    match = re.search(re.escape(label) + r"\s*=?\s*" + _NUMBER, text)
    if match is None:
        raise ValueError(f"no {label!r} value in output {text!r}")
    return float(match.group(1))


def observe(argv, text: str) -> dict[str, tuple[float, float]]:
    """Deterministic values of a job's output as {name: (value, rel_tol)}."""
    if argv[0] == "check":
        if argv[1] == "partition":
            return {"Z": (_printed(text, "Z"), REL_TOL)}
        return {"max_abs_G_minus_I": (_printed(text, "max |G - I|"), REL_TOL_PRINTED)}
    report = strict_json(text)
    out: dict[str, tuple[float, float]] = {}
    if argv[0] == "energy" and argv[1] == "cgf":
        for row in report["rows"]:
            out[f"cgf@t={row['t']}"] = (row["cgf"], REL_TOL)
            out[f"bergman_integral@t={row['t']}"] = (row["bergman_integral"], REL_TOL)
    elif argv[0] == "energy":
        for row in report["rows"]:
            out[f"lambda@k={row['k']}"] = (row["lambda_value"], REL_TOL)
        out["target"] = (report["target"], REL_TOL)
    elif argv[0] == "scaling":
        for row in report["rows"]:
            out[f"sup_error@k={row['k']}"] = (row["sup_error"], REL_TOL)
    else:
        raise ValueError(f"no reference values for {argv[0]!r}")
    return out


def _check_identity(argv, text: str) -> str | None:
    if argv[1] == "partition":
        err = _printed(text, "relative error")
    elif argv[1] == "gram":
        err = _printed(text, "max |G - I|")
    else:
        err = _printed(text, "error")
    if not err <= IDENTITY_BOUND:
        return f"{argv[1]} identity error {err:.3e} above {IDENTITY_BOUND:g}"
    return None


def _check_reference(argv, text: str, references: dict) -> str | None:
    expected = references.get(reference_key(argv))
    if expected is None:
        return "no reference values stored for this job"
    got = observe(argv, text)
    if set(got) != set(expected):
        return f"reference names differ: got {sorted(got)}, stored {sorted(expected)}"
    for name, (value, rel_tol) in got.items():
        want = expected[name]
        if not abs(value - want) <= rel_tol * abs(want) + ABS_FLOOR:
            return f"{name} = {value!r}, reference {want!r} (rel tol {rel_tol:g})"
    if argv[:2] == ("energy", "cgf"):
        for row in strict_json(text)["rows"]:
            if row["t"] != 0.0 and not row["rel_gap"] <= CGF_GAP_BOUND:
                return f"CGF derivative gap {row['rel_gap']:.3e} at t={row['t']}"
    return None


def _check_samples(argv, report: dict) -> str | None:
    confs = report["configurations"]
    reps = int(_flag(argv, "--reps"))
    if len(confs) != reps:
        return f"{len(confs)} configurations for {reps} reps"
    sizes = {len(c["points"]) for c in confs}
    if len(sizes) != 1 or 0 in sizes:
        return f"configuration sizes {sorted(sizes)}"
    return None


def _check_mcmc(argv, report: dict) -> str | None:
    if report["warnings"]:
        return f"MCMC warnings: {report['warnings']}"
    steps, burn_in, thin = (int(_flag(argv, f)) for f in ("--mcmc-steps", "--burn-in", "--thin"))
    expected = len(range(burn_in, steps, thin))
    if len(report["configurations"]) != expected:
        return f"{len(report['configurations'])} configurations collected, expected {expected}"
    return None


def _check_zscores(argv, report: dict) -> str | None:
    zs = [c[name] for c in report["counts"] for name in ("mean_z", "variance_z")]
    zs += [p["z"] for p in report["pairs"]]
    if not zs or not all(math.isfinite(z) and abs(z) <= Z_BOUND for z in zs):
        return f"z-scores {zs} not all finite and within {Z_BOUND:g}"
    return None


_JSON_CHECKS = {
    "samples": _check_samples,
    "mcmc": _check_mcmc,
    "zscores": _check_zscores,
    "json": lambda argv, report: None,
}


def verify(job, rc: int, text: str, references: dict) -> str | None:
    """None when the job's output passes, else the reason it failed."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        if job.check == "identity":
            return _check_identity(job.argv, text)
        if job.check == "reference":
            return _check_reference(job.argv, text, references)
        if job.check == "none":
            return None
        return _JSON_CHECKS[job.check](job.argv, strict_json(text))
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc}"
