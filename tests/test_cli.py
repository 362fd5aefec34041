"""Command-line surface: schemas, determinism, exit codes, seed resolution.

Exit convention: 0 success, 2 usage or input errors, 3 numerical failures
(degenerate Gram, loss of positivity, sampler stalls, failed checks).
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bergdpp
from bergdpp.cli import _load_samples, _samples_json, run
from bergdpp.energy import lambda_report
from bergdpp.exprs import parse_weight, weight_sum
from bergdpp.sampler import rng_stream, sample_dpp
from bergdpp.spaces import make_fubini_study, make_product, space_to_config
from law_oracles import log_density


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# sample


def test_sample_writes_report(tmp_path):
    out = tmp_path / "s.json"
    code = run(["sample", "--space", "fs", "--k", "3", "--reps", "2", "--seed", "5",
                "--out", str(out)])
    assert code == 0
    doc = read_json(out)
    assert doc["schema"] == "bergdpp.samples/1"
    assert doc["config"]["space"]["kind"] == "fs"
    assert doc["config"]["seed"] == 5
    assert len(doc["configurations"]) == 2
    # each point is one [re, im] row; fs k=3 draws rank = 4 points
    pts = doc["configurations"][0]["points"]
    assert len(pts) == 4
    assert all(len(row) == 2 for row in pts)
    assert "log_density" in doc["configurations"][0]
    # independent exact draws: origin "exact" and no chain step
    assert [(c["origin"], c["mcmc_step"]) for c in doc["configurations"]] == [("exact", None)] * 2


# finite floats, with the edges of the float range among them
_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308]),
)


@st.composite
def _samples_reports(draw, min_confs=0):
    """(payload, points, log_density, steps) of a samples report: dim 1 or 2, N from 1 to 7."""
    dim, n, reps = draw(st.sampled_from([1, 2])), draw(st.integers(1, 7)), draw(st.integers(min_confs, 4))
    flat = draw(st.lists(_FINITE, min_size=2 * reps * n * dim, max_size=2 * reps * n * dim))
    points = np.array(flat, dtype=float).view(complex).reshape(reps, n, dim)
    logd = np.array(draw(st.lists(_FINITE, min_size=reps, max_size=reps)), dtype=float)
    # None: exact draws; otherwise a chain's step indices
    steps = draw(st.none() | st.lists(st.integers(0, 10**9), min_size=reps, max_size=reps))
    payload = {
        "schema": "bergdpp.samples/1",
        "version": bergdpp.__version__,
        "config": {"command": "sample", "seed": 7, "weight_expr": draw(st.none() | st.text(max_size=8))},
        "space": {"kind": "product", "k": 2, "mults": [1] * dim},
        "seed": 7,
    }
    if steps is not None:  # a chain's report
        payload.update(acceptance_rate=draw(_FINITE), warnings=draw(st.lists(st.text(max_size=8), max_size=2)))
        steps = np.array(steps, dtype=np.int64)
    return payload, points, logd, steps


def _dumps_report(payload, points, logd, steps):
    """A reference serialiser of a samples report, independent of the writer."""
    confs = [
        {
            # the (N, 2 * dim) float view holds [re, im] per factor
            "points": np.ascontiguousarray(points[r]).view(float).tolist(),
            "log_density": float(logd[r]),
            "origin": "exact" if steps is None else "mcmc",
            "mcmc_step": None if steps is None else int(steps[r]),
        }
        for r in range(len(points))
    ]
    report = {**payload, "configurations": confs}
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(_samples_reports())
def test_bulk_samples_writer_writes_the_bytes_of_json_dumps(report):
    assert _samples_json(*report) == _dumps_report(*report)


@settings(max_examples=40, deadline=None)
@given(_samples_reports(min_confs=1), st.sampled_from([math.nan, math.inf, -math.inf]), st.data())
def test_bulk_samples_writer_raises_the_json_error_on_a_value_that_is_not_finite(report, bad, data):
    payload, points, logd, steps = report
    points, logd = points.copy(), logd.copy()
    i = data.draw(st.integers(0, len(points) - 1))
    slot = data.draw(st.integers(-1, points[i].size * 2 - 1))  # -1: log_density
    if slot < 0:
        logd[i] = bad
    else:
        points[i].view(float).flat[slot] = bad
    with pytest.raises(ValueError) as want:
        _dumps_report(payload, points, logd, steps)
    with pytest.raises(ValueError) as got:
        _samples_json(payload, points, logd, steps)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize(
    "log_densities,point_values,want",
    [
        ({1: math.nan}, {(0, 1): math.inf}, "inf"),
        ({1: -math.inf}, {(1, 0): math.nan}, "-inf"),
        ({2: -math.inf}, {(1, 3): math.inf, (1, 2): math.nan}, "nan"),
    ],
    ids=["earlier-configuration", "log-density-before-points", "points-in-row-order"],
)
def test_bulk_samples_writer_names_the_first_bad_value_in_report_order(log_densities, point_values, want):
    # json writes configuration by configuration, log_density before points;
    # the writer checks whole arrays at once and must still name that value
    points, logd = np.zeros((3, 2, 1), dtype=complex), np.zeros(3)
    for r, value in log_densities.items():
        logd[r] = value
    for (r, slot), value in point_values.items():
        points[r].view(float).flat[slot] = value
    with pytest.raises(ValueError) as got:
        _samples_json({"schema": "s"}, points, logd)
    assert str(got.value).endswith(f": {want}")


def test_configuration_json_round_trip(tmp_path):
    space = make_product((1, 2), 2)
    conf = sample_dpp(space, rng_stream(51))
    text = _samples_json({"space": space_to_config(space)}, conf.points[None], [conf.log_density])
    entry = json.loads(text)["configurations"][0]
    rows = entry["points"]
    # [re, im] per factor, as plain floats
    assert rows == [[float(x) for z in row for x in (z.real, z.imag)] for row in conf.points]
    assert all(type(x) is float for row in rows for x in row)
    path = tmp_path / "s.json"
    path.write_text(text)
    back_space, back = _load_samples(str(path))
    assert back_space == space
    assert np.allclose(back[0], conf.points, rtol=0, atol=0)
    assert entry["log_density"] == conf.log_density


def test_sample_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["sample", "--space", "ginibre", "--n", "4", "--reps", "3", "--seed", "9"]
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sample_worker_count_does_not_change_output(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    base = ["sample", "--space", "fs", "--k", "4", "--reps", "4", "--seed", "2"]
    assert run(base + ["--workers", "1", "--out", str(a)]) == 0
    assert run(base + ["--workers", "3", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sample_env_seed_fallback(tmp_path, monkeypatch):
    out1, out2 = tmp_path / "e.json", tmp_path / "f.json"
    monkeypatch.setenv("BERGDPP_SEED", "41")
    assert run(["sample", "--space", "fs", "--k", "3", "--out", str(out1)]) == 0
    monkeypatch.delenv("BERGDPP_SEED")
    assert run(["sample", "--space", "fs", "--k", "3", "--seed", "41", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sample_requires_seed(capsys):
    assert run(["sample", "--space", "fs", "--k", "3"]) == 2
    assert "seed" in capsys.readouterr().err.lower()


def test_sample_mcmc_branch(tmp_path):
    out = tmp_path / "m.json"
    code = run(["sample", "--space", "fs", "--k", "2", "--seed", "7",
                "--weight-expr", "r2/(1+r2)", "--mcmc-steps", "300",
                "--burn-in", "50", "--thin", "50", "--out", str(out)])
    assert code == 0
    doc = read_json(out)
    assert doc["config"]["mcmc_steps"] == 300
    assert 0.0 < doc["acceptance_rate"] <= 1.0
    assert all(c["origin"] == "mcmc" for c in doc["configurations"])
    # the chain's state after steps range(burn_in, steps, thin)
    assert [c["mcmc_step"] for c in doc["configurations"]] == [50, 100, 150, 200, 250]


def test_k_scaled_weight_enters_with_one_factor_of_k(tmp_path):
    # at k = 4, psi' = 0.5 r2/(1+r2) is the same Gibbs potential as psi = 4 psi'
    chain = ["sample", "--space", "fs", "--k", "4", "--mcmc-steps", "300", "--burn-in", "50",
             "--thin", "25", "--seed", "5"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(chain + ["--weight-k-expr", "0.5*r2/(1+r2)", "--out", str(a)]) == 0
    assert run(chain + ["--weight-expr", "4*(0.5*r2/(1+r2))", "--out", str(b)]) == 0
    doc_a, doc_b = read_json(a), read_json(b)
    assert doc_a["configurations"] == doc_b["configurations"]
    assert doc_a["acceptance_rate"] == doc_b["acceptance_rate"]


def test_product_chain_takes_both_weights(tmp_path):
    out = tmp_path / "p.json"
    psi, psi_k = "r2_1/(1+r2_1)", "0.1*log(1+r2_1*r2_2)"
    assert run(["sample", "--space", "product", "--mults", "1,2", "--k", "2", "--seed", "3",
                "--weight-expr", psi, "--weight-k-expr", psi_k, "--mcmc-steps", "120",
                "--burn-in", "20", "--thin", "50", "--out", str(out)]) == 0
    space = make_product((1, 2), 2)
    weight = weight_sum((1.0, parse_weight(psi)), (2.0, parse_weight(psi_k)))
    for conf in read_json(out)["configurations"]:
        pts = np.array([[row[0] + 1j * row[1], row[2] + 1j * row[3]] for row in conf["points"]])
        assert conf["log_density"] == pytest.approx(log_density(space, pts, weight), rel=1e-10)


def test_sample_bad_weight_expression(capsys):
    assert run(["sample", "--space", "fs", "--k", "2", "--seed", "1",
                "--weight-expr", "r2 * * 2", "--mcmc-steps", "50"]) == 2
    err = capsys.readouterr().err
    assert "column" in err


def test_sample_weight_without_mcmc_rejected(capsys):
    assert run(["sample", "--space", "fs", "--k", "2", "--seed", "1",
                "--weight-expr", "r2"]) == 2
    assert "--mcmc-steps" in capsys.readouterr().err


CHAIN_FLAGS = [("--burn-in", "5"), ("--thin", "0"), ("--proposal-scale", "inf"),
               ("--burn-in", "0"), ("--thin", "1"), ("--proposal-scale", "0.5")]


@pytest.mark.parametrize("flag,value", CHAIN_FLAGS, ids=[f"{f[2:]}={v}" for f, v in CHAIN_FLAGS])
def test_chain_flag_without_mcmc_steps_rejected(flag, value, capsys):
    # a chain flag, even at McmcConfig's default, means a chain was wanted
    assert run(["sample", "--space", "fs", "--k", "2", "--seed", "1", flag, value]) == 2
    err = capsys.readouterr().err
    assert f"chain flags {flag} need --mcmc-steps" in err


@pytest.mark.parametrize("reps", ["5", "1"])
def test_reps_with_mcmc_steps_rejected(reps, capsys):
    # a chain run is one chain, so any --reps is refused, even 1
    assert run(["sample", "--space", "fs", "--k", "3", "--mcmc-steps", "40", "--reps", reps,
                "--workers", "3", "--seed", "1"]) == 2
    assert "--reps needs the exact sampler" in capsys.readouterr().err


def test_chain_defaults_come_from_mcmc_config(tmp_path):
    out = tmp_path / "m.json"
    assert run(["sample", "--space", "fs", "--k", "2", "--seed", "1", "--mcmc-steps", "20",
                "--out", str(out)]) == 0
    config = read_json(out)["config"]
    assert (config["burn_in"], config["thin"], config["proposal_scale"]) == (0, 1, 0.5)


def test_counts_without_region_rejected(capsys):
    assert run(["stats", "counts", "--space", "fs", "--k", "2", "--reps", "2", "--seed", "1"]) == 2
    assert capsys.readouterr().err == "error: at least one --region is required\n"


@pytest.mark.parametrize("reps", ["0", "-3"])
@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--space", "fs", "--k", "2"],
        ["stats", "counts", "--space", "fs", "--k", "2", "--region", "disk:1"],
        ["converge", "--space", "fs", "--ks", "2"],
    ],
    ids=["sample", "stats", "converge"],
)
def test_reps_below_one_names_the_flag(argv, reps, capsys):
    assert run([*argv, "--reps", reps, "--seed", "1"]) == 2
    assert capsys.readouterr().err == f"error: --reps must be at least 1, got {reps}\n"


def test_product_space_flags(tmp_path):
    out = tmp_path / "p.json"
    code = run(["sample", "--space", "product", "--mults", "1,2", "--k", "2",
                "--reps", "1", "--seed", "3", "--out", str(out)])
    assert code == 0
    doc = read_json(out)
    assert doc["config"]["space"]["multiplicities"] == [1, 2]
    assert len(doc["configurations"][0]["points"][0]) == 4  # two complex coordinates


def test_space_flag_validation():
    assert run(["sample", "--space", "fs", "--seed", "1"]) == 2          # missing --k
    assert run(["sample", "--space", "ginibre", "--seed", "1"]) == 2     # missing --n
    assert run(["sample", "--space", "product", "--k", "2", "--seed", "1"]) == 2


# ---------------------------------------------------------------------------
# check


def test_check_partition_prints_factorial(tmp_path, capsys):
    assert run(["check", "partition", "--space", "fs", "--k", "3"]) == 0
    out = capsys.readouterr().out
    assert "Z = 24" in out
    assert "relative error" in out


def test_check_partition_beyond_float_factorial(capsys):
    # rank 201: Z and N! overflow a float, the relative error must not
    assert run(["check", "partition", "--space", "fs", "--k", "200"]) == 0
    assert "relative error" in capsys.readouterr().out


def test_check_partition_prints_logs_when_z_overflows(capsys):
    # rank 201: Z and N! exceed a float, so their logs stand in for N!'s 377 digits
    assert run(["check", "partition", "--space", "ginibre", "--n", "201"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("log Z = ")
    assert "log N! = " in out and "relative error" in out
    assert max(len(line) for line in out.splitlines()) < 100


def test_check_partition_truncation_beyond_tail_edge_changes_nothing(capsys):
    # the grid ends at its tail edge at N = 50 (t_max ~ 132), where the
    # weighted Z is resolved
    assert run(["check", "partition", "--space", "ginibre", "--n", "50",
                "--weight-expr", "r2/(1+r2)"]) == 0
    assert capsys.readouterr().out.startswith("Z = 3.156487809e+44")


def test_check_grid_cannot_be_cut_short(capsys):
    # a Ginibre grid always ends at its tail edge; an outer radius inside it
    # gave Z = 4.78e29 for the 3.156e44 above, with exit 0
    assert run(["check", "partition", "--space", "ginibre", "--n", "50",
                "--weight-expr", "r2/(1+r2)", "--truncation", "6"]) == 2
    assert "unrecognized arguments: --truncation 6" in capsys.readouterr().err


def test_check_partition_ginibre_weight_growing_at_the_edge(capsys):
    # e^{-psi} = e^{(r^2 - 1)/2}: Z = N! prod_a 2^(a+1) e^{-1/2}, and the
    # grid reaches past the unweighted edge to hold the weighted tail
    argv = ["check", "partition", "--space", "ginibre", "--n", "20",
            "--weight-expr", "(1 - r2)/2"]
    assert run(argv) == 0
    want = math.exp(math.lgamma(21) + 210 * math.log(2.0) - 10.0)
    assert capsys.readouterr().out == f"Z = {want:.10g}\n"


@pytest.mark.parametrize("n", [40, 50])
def test_check_partition_ginibre_closed_form_across_a_wide_diagonal(n, capsys):
    # the Gram diagonal 2^(a+1) e^{-1/2} spans a factor 2^(N-1): judged and
    # factored after scaling by its diagonal, N = 50 is not degenerate and
    # Z = N! 2^(N(N+1)/2) e^{-N/2} holds to the printed digits
    argv = ["check", "partition", "--space", "ginibre", "--n", str(n),
            "--weight-expr", "(1 - r2)/2"]
    assert run(argv) == 0
    log_z = math.lgamma(n + 1) + n * (n + 1) / 2 * math.log(2.0) - n / 2
    label, value = capsys.readouterr().out.strip().split(" = ")
    if label == "Z":
        assert float(value) == pytest.approx(math.exp(log_z), rel=1e-9)
    else:
        assert (n, label) == (50, "log Z")   # Z overflows a float
        assert float(value) == pytest.approx(log_z, abs=1e-6)


@pytest.mark.parametrize("n", [40, 50])
def test_energy_cgf_ginibre_closed_form_across_a_wide_diagonal(n, tmp_path):
    # the same Grams as above: log det G(t psi) = const - t N/2 - sum_a (a + 1) log(1 - t/2),
    # so K'(t) = N(N + 1) / (4 (1 - t/2)) - N/2; the orthonormalising map must
    # come from the scaled Gram too, or N = 50 is gram-degenerate
    out = tmp_path / "cgf.json"
    assert run(["energy", "cgf", "--space", "ginibre", "--n", str(n),
                "--weight-expr", "(1 - r2)/2", "--t", "0,1", "--out", str(out)]) == 0
    rows = read_json(out)["rows"]
    assert [row["t"] for row in rows] == [0.0, 1.0]
    for row in rows:
        want = n * (n + 1) / (4.0 * (1.0 - row["t"] / 2.0)) - n / 2.0
        assert row["bergman_integral"] == pytest.approx(want, rel=1e-12)


def test_check_partition_ginibre_diverging_weight_exits_2(capsys):
    argv = ["check", "partition", "--space", "ginibre", "--n", "5", "--weight-expr", "0 - r2"]
    assert run(argv) == 2
    assert "may diverge" in capsys.readouterr().err


def test_check_gram_csv(tmp_path):
    csv_path = tmp_path / "g.csv"
    assert run(["check", "gram", "--space", "fs", "--k", "3",
                "--gram-csv", str(csv_path)]) == 0
    lines = csv_path.read_text().strip().split("\n")
    assert len(lines) == 4


def _csv_matrix(path):
    rows = path.read_text().strip().split("\n")
    return np.array([[complex(*map(float, cell.split(","))) for cell in row[1:-1].split('","')]
                     for row in rows])


@pytest.mark.parametrize(
    "source", ["re_1/(1+r2_1)", "re_1/(1+r2_1)+im_2*im_2/(1+r2_2)", "2 + re_1/(1+r2_1)"]
)
@pytest.mark.parametrize("mults", ["1,2", "1,1,1"])
def test_check_gram_csv_of_a_factored_gram_is_the_dense_matrix(mults, source, tmp_path):
    # --gram-csv writes the Kronecker product of the factor Grams, formed on
    # demand; it matches the dense assembly on the product grid to 1e-12
    from bergdpp.quadrature import build_grid, weighted_gram_matrix

    csv_path = tmp_path / "g.csv"
    assert run(["check", "gram", "--space", "product", "--mults", mults, "--k", "1",
                "--weight-expr", source, "--radial", "8", "--gram-csv", str(csv_path)]) == 0
    space = make_product([int(m) for m in mults.split(",")], 1)
    psi = parse_weight(source)
    want = weighted_gram_matrix(space, build_grid(space, radial=8, psi=psi), psi)
    got = _csv_matrix(csv_path)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


# printed by the dense route before products factored; the factored route and
# the dense route that non-separable weights keep print the same digits
_PARTITION_LINES = {
    ("1", "re_1/(1+r2_1)"): "Z = 850.1854378",
    ("2", "re_1/(1+r2_1)"): "Z = 1.78667843e+12",
    ("3", "re_1/(1+r2_1)"): "Z = 4.86044437e+29",
    ("2", "2 + re_1/(1+r2_1)"): "Z = 0.1671906311",
    ("2", "re_1*re_2/(1+r2_1+r2_2)"): "Z = 1.424360258e+12",
    ("2", "im_1/(1+r2_2)"): "Z = 2.816025985e+47",
}


@pytest.mark.parametrize("k,source", sorted(_PARTITION_LINES))
def test_weighted_product_partition_digits(k, source, capsys):
    argv = ["check", "partition", "--space", "product", "--mults", "1,2", "--k", k,
            "--weight-expr", source]
    assert run(argv) == 0
    assert capsys.readouterr().out == _PARTITION_LINES[k, source] + "\n"


def test_check_trace(capsys):
    assert run(["check", "trace", "--space", "ginibre", "--n", "4"]) == 0
    assert "4" in capsys.readouterr().out


def test_check_trace_fs_400_is_accurate(capsys):
    # log norms from exact binomials: the factorial form left 7.2e-11 here
    assert run(["check", "trace", "--space", "fs", "--k", "400"]) == 0
    out = capsys.readouterr().out
    err = float(out.rsplit("error ", 1)[1].rstrip(")\n"))
    assert err <= 5e-12


def test_check_trace_rejects_weight(capsys):
    # the trace identity int B(x,x) dmu = N has no weighted variant
    assert run(["check", "trace", "--space", "fs", "--k", "3", "--weight-expr", "r2"]) == 2
    assert "no weighted variant" in capsys.readouterr().err


def test_check_gram_product_rank_231(capsys):
    # 882k grid nodes x rank 231: an M x N section matrix would not fit in memory
    assert run(["check", "gram", "--space", "product", "--mults", "1,2", "--k", "10"]) == 0
    assert "max |G - I|" in capsys.readouterr().out


def test_check_gram_weighted_does_not_require_identity(capsys):
    # a weighted Gram is not the identity; the check reports instead of failing
    code = run(["check", "gram", "--space", "fs", "--k", "3",
                "--weight-expr", "r2/(1+r2)"])
    assert code == 0


@pytest.mark.parametrize(
    "argv,code,bound",
    [
        # Z = 153668.54 against 176079.81 on a resolved grid
        (["partition", "--space", "fs", "--k", "10", "--radial", "3", "--angular", "21",
          "--weight-expr", "r2/(1+r2)"], 3, "2*radial - 1 >= degree, got 3"),
        (["partition", "--space", "fs", "--k", "10", "--radial", "5", "--angular", "11"],
         3, "2*radial - 1 >= degree, got 5"),
        (["gram", "--space", "product", "--mults", "1,2", "--k", "2", "--angular", "4"],
         3, "degree 4 needs angular >= degree + 1, got 4"),
        (["trace", "--space", "ginibre", "--n", "6", "--angular", "5"],
         3, "degree 5 needs angular >= degree + 1, got 5"),
        # no grid at all is a bad flag, not a numerical failure
        (["trace", "--space", "fs", "--k", "3", "--angular", "0"], 2, "at least one"),
    ],
    ids=["weighted-radial", "radial-edge", "product-angular", "ginibre-angular", "zero"],
)
def test_check_rejects_under_resolved_grid(argv, code, bound, capsys):
    assert run(["check", *argv]) == code
    assert bound in capsys.readouterr().err


def test_check_accepts_grid_at_the_exactness_bound(capsys):
    # 2 * 6 - 1 = 11 >= 10 radial and 11 >= 10 + 1 angular nodes integrate exactly
    assert run(["check", "partition", "--space", "fs", "--k", "10",
                "--radial", "6", "--angular", "11"]) == 0
    assert "Z = 39916800" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# stats


def test_stats_counts_from_samples_file(tmp_path):
    samples = tmp_path / "s.json"
    out = tmp_path / "c.json"
    assert run(["sample", "--space", "fs", "--k", "4", "--reps", "50", "--seed", "11",
                "--out", str(samples)]) == 0
    code = run(["stats", "counts", "--space", "fs", "--k", "4",
                "--samples", str(samples), "--region", "disk:1.0",
                "--region", "annulus:1.0:2.0", "--out", str(out)])
    assert code == 0
    doc = read_json(out)
    assert doc["schema"] == "bergdpp.counts/1"
    assert len(doc["counts"]) == 2
    assert len(doc["pairs"]) == 3  # unordered pairs with the diagonal
    disk_row = doc["counts"][0]
    assert disk_row["predicted_mean"] == pytest.approx(2.5, abs=1e-9)


def test_stats_counts_takes_space_from_samples_file(tmp_path, capsys):
    samples = tmp_path / "s.json"
    assert run(["sample", "--space", "fs", "--k", "4", "--reps", "20", "--seed", "11",
                "--out", str(samples)]) == 0
    base = ["stats", "counts", "--samples", str(samples), "--region", "disk:1"]
    out = tmp_path / "c.json"
    assert run(base + ["--out", str(out)]) == 0
    assert read_json(out)["counts"][0]["predicted_mean"] == pytest.approx(2.5, abs=1e-9)
    assert run(base + ["--space", "fs"]) == 0
    capsys.readouterr()
    for flags in (["--space", "product", "--mults", "1,2", "--k", "2"],
                  ["--space", "fs", "--k", "5"],
                  ["--n", "5"]):
        assert run(base + flags) == 2
        assert "contradict --samples" in capsys.readouterr().err


@pytest.mark.parametrize(
    "space",
    [
        {"kind": "fs"},
        {"kind": "product", "k": 2, "multiplicities": 3},
        "fs",
        {"kind": "torus"},
        # fs k=true used to read as rank 2, and the multiplicities "12" as (1, 2)
        {"kind": "fs", "k": True},
        {"kind": "ginibre", "N": True},
        {"kind": "product", "k": True, "multiplicities": [1, 2]},
        {"kind": "product", "k": 2, "multiplicities": [True, 2]},
        {"kind": "product", "k": 2, "multiplicities": "12"},
    ],
    ids=["missing-key", "bad-value", "not-an-object", "unknown-kind", "fs-k-true",
         "ginibre-n-true", "product-k-true", "mult-true", "mult-string"],
)
def test_stats_rejects_malformed_space_block(tmp_path, space, capsys):
    samples = tmp_path / "s.json"
    samples.write_text(json.dumps({"space": space, "configurations": []}))
    assert run(["stats", "counts", "--samples", str(samples), "--region", "disk:1"]) == 2
    assert "malformed space block" in capsys.readouterr().err


def test_samples_space_block_spells_the_ginibre_rank_as_the_writer_does(tmp_path, capsys):
    # space_to_config writes the rank as "N"; a block that spells it "n" was
    # not written by sample, and is refused naming the key it lacks
    samples = tmp_path / "s.json"
    assert run(["sample", "--space", "ginibre", "--n", "5", "--reps", "2", "--seed", "1",
                "--out", str(samples)]) == 0
    doc = read_json(samples)
    assert doc["space"] == {"kind": "ginibre", "N": 5}
    doc["space"] = {"kind": "ginibre", "n": 5}
    samples.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["stats", "counts", "--samples", str(samples), "--region", "disk:1"]) == 2
    err = capsys.readouterr().err
    assert "malformed space block" in err and "lacks N" in err


def test_samples_space_block_with_a_key_its_kind_does_not_read_exits_2(tmp_path, capsys):
    # an fs space reads k alone: an N beside it was not written by sample
    samples = tmp_path / "s.json"
    assert run(["sample", "--space", "fs", "--k", "2", "--reps", "2", "--seed", "1",
                "--out", str(samples)]) == 0
    doc = read_json(samples)
    doc["space"] = {"kind": "fs", "k": 2, "N": 4}
    samples.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["stats", "counts", "--samples", str(samples), "--region", "disk:1"]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert "malformed space block" in line and "does not read N" in line


# each space flag its kind does not read, each one it needs and lacks, and
# --k beside --ks exits 2 naming the flag (converge on ginibre names the family)
@pytest.mark.parametrize(
    "argv, named",
    [
        ("sample --space fs --k 3 --n 10 --seed 1", "--n"),
        ("sample --space fs --k 3 --mults 1,2 --seed 1", "--mults"),
        ("sample --space ginibre --n 3 --k 7 --seed 1", "--k"),
        ("sample --space product --mults 1,2 --k 1 --n 9 --seed 1", "--n"),
        ("stats circular --space ginibre --n 4 --k 5 --reps 2 --seed 1", "--k"),
        ("scaling --space fs --k 7 --ks 2", "--k"),
        ("converge --space fs --k 9 --ks 2 --reps 3 --seed 1", "--k"),
        ("energy lambda-k --space fs --k 9 --ks 2 --f-expr 0.2/(1+r2)", "--k"),
        ("converge --space ginibre --n 4 --ks 2,3 --reps 3 --seed 1", "fs and product families"),
        ("sample --space fs --seed 1", "--k"),
        ("sample --space product --k 2 --seed 1", "--mults"),
    ],
)
def test_space_flag_its_kind_does_not_read_or_lacks_exits_2(argv, named, capsys):
    assert run(argv.split()) == 2
    (line,) = capsys.readouterr().err.splitlines()
    # a flag is a word of the line, so --k is not found in --ks
    assert line.startswith("error: ") and named in (line.split() if named[:2] == "--" else line)


def test_stats_rejects_samples_file_without_configurations(tmp_path, capsys):
    samples = tmp_path / "s.json"
    samples.write_text(json.dumps({"space": {"kind": "fs", "k": 2}, "configurations": []}))
    assert run(["stats", "counts", "--samples", str(samples), "--region", "disk:1"]) == 2
    assert f"{samples} holds no configurations" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["counts", "intensity", "circular"])
def test_stats_rejects_samples_of_a_weighted_chain(tmp_path, command, capsys):
    # the predictions are those of the unweighted process: on fs k=4 under
    # 4*r2 they read a disk:0.5 mean of 1.00 against an observed 2.2
    weighted = tmp_path / "w.json"
    assert run(["sample", "--space", "fs", "--k", "4", "--weight-expr", "4*r2",
                "--mcmc-steps", "200", "--thin", "25", "--seed", "1",
                "--out", str(weighted)]) == 0
    capsys.readouterr()
    extra = ["--region", "disk:0.5"] if command == "counts" else []
    assert run(["stats", command, "--samples", str(weighted), *extra]) == 2
    err = capsys.readouterr().err
    assert str(weighted) in err and "weight_expr='4*r2'" in err


def test_stats_loads_samples_of_an_unweighted_chain(tmp_path):
    plain = tmp_path / "p.json"
    assert run(["sample", "--space", "fs", "--k", "3", "--mcmc-steps", "200", "--thin", "25",
                "--seed", "1", "--out", str(plain)]) == 0
    out = tmp_path / "c.json"
    assert run(["stats", "counts", "--samples", str(plain), "--region", "disk:1",
                "--out", str(out)]) == 0
    assert read_json(out)["counts"][0]["region"] == "disk:1"


@pytest.mark.parametrize(
    "command,space,extra",
    [
        ("counts", ["--space", "fs", "--k", "4"], ["--region", "disk:1", "--region", "annulus:1:2"]),
        ("intensity", ["--space", "fs", "--k", "3"], ["--bins", "6"]),
        ("circular", ["--space", "ginibre", "--n", "20"], []),
    ],
)
def test_stats_on_fresh_draws_match_the_samples_file_of_the_same_seed(tmp_path, command, space, extra):
    samples, fresh, loaded = tmp_path / "s.json", tmp_path / "fresh", tmp_path / "loaded"
    draws = ["--reps", "30", "--seed", "4"]
    assert run(["sample", *space, *draws, "--out", str(samples)]) == 0
    assert run(["stats", command, *space, *draws, *extra, "--out", str(fresh)]) == 0
    assert run(["stats", command, "--samples", str(samples), *extra, "--out", str(loaded)]) == 0
    if command == "intensity":  # the CSV's first line is its config
        a, b = (path.read_text().split("\n", 1) for path in (fresh, loaded))
        assert a[0] != b[0] and a[1] == b[1]
    else:
        a, b = read_json(fresh), read_json(loaded)
        assert a.pop("config") != b.pop("config") and a == b


@pytest.mark.parametrize(
    "flags",
    [["--reps", "5"], ["--seed", "99"], ["--reps", "5", "--seed", "99"], ["--workers", "4"],
     ["--workers", "1"], ["--reps", "5", "--workers", "2"]],
    ids=["reps", "seed", "both", "workers", "workers-1", "reps-workers"],
)
def test_stats_refuses_fresh_draw_flags_beside_samples(tmp_path, flags, capsys):
    # they used to be ignored: a 10-draw file read with --reps 5 reported
    # reps 10, and --workers 4 spread no draws over four processes
    samples = tmp_path / "s.json"
    assert run(["sample", "--space", "fs", "--k", "2", "--reps", "10", "--seed", "1",
                "--out", str(samples)]) == 0
    capsys.readouterr()
    assert run(["stats", "counts", "--samples", str(samples), "--region", "disk:1", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert all(flag in err for flag in flags[::2])


def test_stats_fresh_draws_default_to_200_reps(tmp_path):
    out = tmp_path / "c.json"
    assert run(["stats", "circular", "--space", "ginibre", "--n", "2", "--seed", "1",
                "--out", str(out)]) == 0
    doc = read_json(out)
    assert doc["config"]["reps"] == 200 and doc["reps"] == 200


def test_mcmc_rejects_a_weight_that_is_nan_where_the_chain_walks(capsys):
    # log(r2 - 1) is NaN inside the unit disk; this used to end in a JSON error
    assert run(["sample", "--space", "fs", "--k", "3", "--weight-expr", "log(r2-1)",
                "--mcmc-steps", "50", "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert "log(r2-1)" in err and "is nan at point 0, z = [" in err


def test_out_of_memory_is_exit_3(monkeypatch, capsys):
    # --bins 100000 would ask numpy for a (reps, bins, bins) array of 149 GiB;
    # the MemoryError is raised here without allocating anything
    import bergdpp.cli as cli

    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 149. GiB for an array with shape (2, 100000, 100000)")

    monkeypatch.setattr(cli, "estimate_intensity", refuse)
    assert run(["stats", "intensity", "--space", "fs", "--k", "3", "--reps", "2", "--seed", "1",
                "--bins", "100000"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: Unable to allocate 149. GiB")
    assert err.count("\n") == 1


def test_quadrature_overflow_is_reported_once(capsys):
    # e^{r^2} overflows on the outer nodes: the error names it, and numpy
    # adds no RuntimeWarning of its own beside it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["check", "partition", "--space", "fs", "--k", "3", "--weight-expr", "0-r2"]) == 2
    assert "quadrature factor overflowed" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["check", "partition"], ["energy", "cgf", "--t", "0"]])
def test_weight_overflow_is_reported_once(command, capsys):
    # 1e308 * r2 overflows inside the weight: weight_values names it, and
    # numpy prints no RuntimeWarning before that one line
    argv = [*command, "--space", "ginibre", "--n", "30", "--weight-expr", "1e308*r2"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: weight WeightExpr('1e308*r2') is inf")
    assert err.count("\n") == 1


@pytest.mark.parametrize("space", [["fs", "--k", "5"], ["ginibre", "--n", "5"]])
def test_chain_rejects_proposals_off_the_float_range(space, capsys):
    # at scale 1e308 every proposal overflows to inf: each is rejected
    # before its sections, weight or density are evaluated
    argv = ["sample", "--space", *space, "--mcmc-steps", "1", "--proposal-scale", "1e+308",
            "--seed", "1"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == 0
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert doc["acceptance_rate"] == 0.0
    assert [w.split(";")[0] for w in doc["warnings"]] == ["acceptance rate 0.000 outside [0.05, 0.90]"]
    assert err == ""


@pytest.mark.parametrize("k_expr", [[], ["--weight-k-expr", "r2"]], ids=["psi", "psi-plus-k-psi1"])
def test_chain_rejects_proposals_where_the_weight_is_inf(k_expr, capsys):
    # r2*r2 overflows to +inf at scale 1e100: e^{-inf} = 0 there, so each
    # such proposal is rejected like one off the float range, and the chain
    # runs on; a weight_sum lets the +inf of its term through the same way
    argv = ["sample", "--space", "fs", "--k", "3", "--weight-expr", "r2*r2", *k_expr,
            "--mcmc-steps", "10", "--proposal-scale", "1e100", "--seed", "1"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == 0
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert doc["acceptance_rate"] == 0.0 and len(doc["configurations"]) == 10
    assert [w.split(";")[0] for w in doc["warnings"]] == ["acceptance rate 0.000 outside [0.05, 0.90]"]
    assert err == ""


def test_chain_rejects_a_weight_that_is_minus_inf_where_it_walks(capsys):
    # -inf is no density: the chain still stops and names the weight and point
    argv = ["sample", "--space", "fs", "--k", "3", "--weight-expr", "0-r2*r2",
            "--mcmc-steps", "10", "--proposal-scale", "1e100", "--seed", "1"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: weight WeightExpr('0-r2*r2') is -inf at point 0, z = [")
    assert err.count("\n") == 1


def test_counts_on_a_region_past_the_float_range(capsys):
    # annulus:0.5:1e300: (1e300)^2 overflows a float, so the outer radius
    # counts as beyond every edge
    argv = ["stats", "counts", "--space", "product", "--mults", "1,2", "--k", "1", "--reps", "5",
            "--seed", "1", "--region", "annulus:0.5:1e300"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv, code, start",
    [
        (["energy", "lambda-k", "--space", "fs", "--ks", "2,3", "--f-expr", "r2/(1+r2)",
          "--psi-k-expr", "exp(exp(r2))"], 2,
         "error: weight WeightExpr('exp(exp(r2))') has a non-finite Hessian at point 25, z = ["),
        (["energy", "lambda-k", "--space", "fs", "--ks", "2,3", "--f-expr", "r2_1/(1+r2_1)",
          "--psi-k-expr", "1e308*r2"], 2,
         "error: the Monge-Ampere mass is not finite at point index 24"),
        (["energy", "lambda-k", "--space", "fs", "--ks", "2", "--f-expr", "r2/(1+r2)",
          "--psi-k-expr", "9e304*r2"], 2,
         "error: the Mabuchi functional is nan: the Monge-Ampere sums leave the float range"),
        (["sample", "--space", "fs", "--k", "2", "--seed", "7", "--weight-k-expr", "1e308*r2",
          "--mcmc-steps", "30", "--thin", "3"], 2,
         "error: weight 2*WeightExpr('1e308*r2'): the Gibbs potential of the chain's configuration"),
        (["energy", "lambda-k", "--space", "fs", "--ks", "2", "--f-expr", "0.2/(1+r2)",
          "--psi-k-expr", "1e300*r2"], 3,
         "numerical failure: gram-degenerate: e^(-psi) underflows to 0 at every node"),
        (["energy", "cgf", "--space", "fs", "--k", "2", "--weight-expr", "0.2/(1+r2)",
          "--t", "1e308"], 3,
         "numerical failure: gram-degenerate: e^(-psi) underflows to 0 at every node"),
        (["energy", "cgf", "--space", "fs", "--k", "2", "--weight-expr", "r2", "--t", "nan"], 2,
         "error: --t expects finite numbers, got 'nan'"),
        (["energy", "cgf", "--space", "fs", "--k", "2", "--weight-expr", "r2", "--t=0,-inf"], 2,
         "error: --t expects finite numbers, got '0,-inf'"),
        (["check", "trace", "--space", "ginibre", "--n", "5", "--radial", "8"], 3,
         "numerical failure: int B(x,x) dmu = N fails: error 3.775e-02 exceeds 1e-08"),
    ],
    ids=["hessian-invalid", "mass-overflow", "mass-sum-overflow", "chain-potential-overflow", "weight-underflow",
         "cgf-underflow", "t-nan", "t-minus-inf", "check-trace-fails"],
)
def test_failures_print_one_line_and_no_warning(argv, code, start, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(start)
    assert err.count("\n") == 1


def test_sampler_stall_is_a_numerical_failure(monkeypatch, capsys):
    import bergdpp.sampler as sampler

    monkeypatch.setattr(sampler, "MAX_PROPOSALS", 0)
    assert run(["sample", "--space", "fs", "--k", "3", "--seed", "1"]) == 3
    assert "numerical failure: no acceptance after 0 proposals" in capsys.readouterr().err


CHAIN = ["sample", "--space", "fs", "--k", "2", "--seed", "1"]


@pytest.mark.parametrize(
    "argv,named",
    [
        *[(CHAIN + ["--mcmc-steps", "50", "--proposal-scale", value],
           f"--proposal-scale must be positive and finite, got {shown}")
          for value, shown in (("inf", "inf"), ("nan", "nan"), ("0", "0.0"), ("-1", "-1.0"))],
        (CHAIN + ["--mcmc-steps", "0"], "--mcmc-steps must be at least 1, got 0"),
        (CHAIN + ["--mcmc-steps", "10", "--burn-in", "10"], "--burn-in must lie in [0, 10), got 10"),
        (CHAIN + ["--mcmc-steps", "10", "--burn-in", "-1"], "--burn-in must lie in [0, 10), got -1"),
        (CHAIN + ["--mcmc-steps", "10", "--thin", "0"], "--thin must be at least 1, got 0"),
        (["energy", "lambda-k", "--space", "fs", "--ks", "2,3", "--f-expr", "r2/(1+r2)",
          "--s-nodes", "8"], "--s-nodes must be at least 16, got 8"),
    ],
    ids=["proposal-scale-inf", "proposal-scale-nan", "proposal-scale-0", "proposal-scale-negative",
         "mcmc-steps-0", "burn-in-at-steps", "burn-in-negative", "thin-0", "s-nodes-8"],
)
def test_out_of_range_numeric_flag_is_exit_2(argv, named, capsys):
    # each refusal names the flag that was typed, not the library parameter
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: {named}\n"


@pytest.mark.parametrize(
    "edit",
    [lambda c: c["points"][0].pop(), lambda c: c["points"].pop(), lambda c: c.pop("log_density")],
    ids=["short-row", "fewer-points-than-rank", "no-log-density"],
)
def test_stats_rejects_malformed_configuration(tmp_path, edit, capsys):
    samples = tmp_path / "s.json"
    assert run(["sample", "--space", "fs", "--k", "2", "--reps", "2", "--seed", "1",
                "--out", str(samples)]) == 0
    doc = read_json(samples)
    edit(doc["configurations"][1])
    samples.write_text(json.dumps(doc))
    assert run(["stats", "counts", "--samples", str(samples), "--region", "disk:1"]) == 2
    assert f"{samples}: configuration 1" in capsys.readouterr().err


# values json.load gives that are not JSON numbers, or not finite; each used
# to be read as a float by the samples reader, and the file exited 0
NOT_NUMBERS = [("0.39", '"0.39"'), (True, "true"), (False, "false")]


@pytest.mark.parametrize("value,shown", NOT_NUMBERS, ids=["string", "true", "false"])
@pytest.mark.parametrize("slot", ["coordinate", "log_density"])
def test_samples_reader_refuses_values_that_are_not_numbers(tmp_path, slot, value, shown, capsys):
    samples = tmp_path / "s.json"
    assert run(["sample", "--space", "fs", "--k", "2", "--reps", "3", "--seed", "1",
                "--out", str(samples)]) == 0
    doc = read_json(samples)
    if slot == "coordinate":
        doc["configurations"][1]["points"][2][1] = value
        want = f"configuration 1: point row 2 holds {shown}, which is not a number"
    else:
        doc["configurations"][2]["log_density"] = value
        want = f"configuration 2: log_density {shown} is not a finite number"
    samples.write_text(json.dumps(doc))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["stats", "counts", "--samples", str(samples), "--region", "disk:1"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {samples}: {want}\n"


def test_samples_reader_refuses_a_log_density_that_is_not_finite(tmp_path, capsys):
    samples = tmp_path / "s.json"
    assert run(["sample", "--space", "fs", "--k", "2", "--reps", "2", "--seed", "1",
                "--out", str(samples)]) == 0
    doc = read_json(samples)
    doc["configurations"][0]["log_density"] = math.nan  # json.dumps writes NaN
    samples.write_text(json.dumps(doc))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["stats", "counts", "--samples", str(samples), "--region", "disk:1"]) == 2
    assert capsys.readouterr().err == f"error: {samples}: configuration 0: log_density NaN is not a finite number\n"


@pytest.mark.parametrize("value,shown", NOT_NUMBERS, ids=["string", "true", "false"])
def test_points_file_refuses_values_that_are_not_numbers(tmp_path, value, shown, capsys):
    # {"points": [[true, 0.0]]} used to be the test point 1+0j
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps({"points": [[0.5, 0.0], [value, 0.0]]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["scaling", "--space", "fs", "--ks", "2", "--points", str(pts)]) == 2
    assert capsys.readouterr().err == f"error: {pts}: point row 1 holds {shown}, which is not a number\n"


@pytest.mark.parametrize(
    "argv",
    [["stats", "counts", "--region", "disk:1", "--samples"],
     ["scaling", "--space", "fs", "--ks", "4", "--points"]],
    ids=["samples", "points"],
)
def test_missing_input_file_is_exit_2(tmp_path, argv, capsys):
    missing = tmp_path / "absent.json"
    assert run(argv + [str(missing)]) == 2
    assert str(missing) in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc", [{"pts": [[0.1, 0.0]]}, {"points": [[0.1, "nan"]]}], ids=["no-points-key", "non-finite"]
)
def test_malformed_points_file_is_exit_2(tmp_path, doc, capsys):
    # a NaN test point used to give sup_error 0.0 and exit 0
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps(doc))
    assert run(["scaling", "--space", "fs", "--ks", "4", "--points", str(pts)]) == 2
    assert str(pts) in capsys.readouterr().err


@pytest.mark.parametrize("doc", [[], {"points": []}], ids=["bare-list", "points-key"])
def test_empty_points_file_is_exit_2(tmp_path, doc, capsys):
    # an empty test set used to report sup_error 0.0 for every k and exit 0
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps(doc))
    assert run(["scaling", "--space", "fs", "--ks", "5,10", "--points", str(pts)]) == 2
    assert "no points" in capsys.readouterr().err


def test_out_in_missing_directory_is_exit_2(tmp_path, capsys):
    out = tmp_path / "absent" / "s.json"
    assert run(["sample", "--space", "fs", "--k", "2", "--seed", "1", "--out", str(out)]) == 2
    assert str(out) in capsys.readouterr().err


@pytest.fixture
def assemble_calls(monkeypatch):
    """A list that grows by one entry per quadrature._assemble call."""
    import bergdpp.quadrature as quadrature

    calls = []
    assemble = quadrature._assemble

    def counted(*args, **kwargs):
        calls.append(1)
        return assemble(*args, **kwargs)

    monkeypatch.setattr(quadrature, "_assemble", counted)
    return calls


def test_stats_counts_assembles_each_region_gram_once(tmp_path, assemble_calls):
    # two disjoint regions: their two masked Grams carry every count and pair trace
    assert run(["stats", "counts", "--space", "fs", "--k", "5", "--reps", "3", "--seed", "1",
                "--region", "disk:1", "--region", "annulus:1:2",
                "--out", str(tmp_path / "c.json")]) == 0
    assert len(assemble_calls) == 2


def test_energy_cgf_assembles_each_gram_once(tmp_path, assemble_calls):
    # G at t = 0, 0.5, 1 and at t +- h for the finite differences (9), plus one
    # psi-masked Gram per t for the Bergman integral (3); the derivative reuses G_t
    assert run(["energy", "cgf", "--space", "fs", "--k", "5", "--weight-expr", "re_1/(1+r2)",
                "--t", "0,0.5,1", "--out", str(tmp_path / "cgf.json")]) == 0
    assert len(assemble_calls) == 12


def test_stats_counts_builds_no_grid_nodes(tmp_path, monkeypatch):
    # region Grams, count moments and the overlap term of pair counts all
    # take the diagonal route, which needs the grid's radial rules alone
    import bergdpp.quadrature as quadrature

    grids = []
    build_grid = quadrature.build_grid

    def recorded(*args, **kwargs):
        grids.append(build_grid(*args, **kwargs))
        return grids[-1]

    monkeypatch.setattr(quadrature, "build_grid", recorded)
    assert run(["stats", "counts", "--space", "fs", "--k", "5", "--reps", "3", "--seed", "1",
                "--region", "disk:1", "--region", "annulus:0.5:2",
                "--out", str(tmp_path / "c.json")]) == 0
    assert len(grids) == 1
    assert not {"nodes", "weights", "density"} & set(vars(grids[0]))


def test_stats_counts_in_a_row_match_separate_processes(tmp_path):
    # run() reuses one parser: a --region list of one call must not leak
    # into the next through the shared append default
    base = ["stats", "counts", "--space", "fs", "--k", "3", "--reps", "5", "--seed", "4"]
    argvs = [
        base + ["--region", "disk:1", "--region", "annulus:1:2"],
        base + ["--region", "disk:0.5"],
    ]
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(bergdpp.__file__))}
    for i, argv in enumerate(argvs):
        assert run(argv + ["--out", str(tmp_path / f"in{i}.json")]) == 0
    for i, argv in enumerate(argvs):
        out = tmp_path / f"sep{i}.json"
        subprocess.run([sys.executable, "-m", "bergdpp.cli", *argv, "--out", str(out)],
                       env=env, check=True)
        assert (tmp_path / f"in{i}.json").read_bytes() == out.read_bytes()


def test_library_imports_and_runs_without_scipy():
    # numpy is the library's one dependency; scipy serves the tests alone
    script = """
import sys
from bergdpp import cli
argvs = [
    ["check", "trace", "--space", "ginibre", "--n", "5"],
    ["check", "partition", "--space", "ginibre", "--n", "5", "--weight-expr", "(1 - r2)/2"],
    ["stats", "circular", "--space", "ginibre", "--n", "10", "--reps", "2", "--seed", "1"],
    ["sample", "--space", "fs", "--k", "2", "--seed", "1"],
]
codes = [cli.run(argv) for argv in argvs]
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
sys.exit(f"exit codes {codes}, scipy modules {loaded}" if codes != [0] * 4 or loaded else 0)
"""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(bergdpp.__file__))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_stats_requires_space_without_samples(capsys):
    assert run(["stats", "counts", "--reps", "2", "--seed", "1", "--region", "disk:1"]) == 2
    assert "--space" in capsys.readouterr().err


def test_stats_counts_product_two_regions(tmp_path):
    out = tmp_path / "c.json"
    assert run(["stats", "counts", "--space", "product", "--mults", "1,2", "--k", "2",
                "--reps", "20", "--seed", "1", "--region", "disk:1",
                "--region", "annulus:1:2", "--out", str(out)]) == 0
    doc = read_json(out)
    zs = [row[key] for row in doc["counts"] for key in ("mean_z", "variance_z")]
    zs += [row["z"] for row in doc["pairs"]]
    assert len(zs) == 7
    assert all(z is not None and math.isfinite(z) for z in zs)


def test_stats_counts_writes_strict_json(tmp_path):
    # one rep has no sample variance: the variance z-score is null, not -Infinity
    out = tmp_path / "c.json"
    assert run(["stats", "counts", "--space", "fs", "--k", "5", "--reps", "1",
                "--seed", "1", "--region", "disk:1", "--out", str(out)]) == 0

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    doc = json.loads(out.read_text(), parse_constant=reject)
    assert doc["counts"][0]["variance_z"] is None


def test_stats_intensity_csv(tmp_path):
    out = tmp_path / "i.csv"
    assert run(["stats", "intensity", "--space", "fs", "--k", "3", "--reps", "20",
                "--seed", "13", "--bins", "8", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("# schema=bergdpp.intensity/1")
    assert lines[1].split(",")[:3] == ["bin_center_re", "bin_center_im", "rate"]
    assert len(lines) == 2 + 64


@pytest.mark.parametrize(
    "argv, lines, center, digest",
    [
        (["--space", "fs", "--k", "3", "--bins", "7"], 2 + 49,
         "-2.220446049250313e-16,-2.220446049250313e-16,0.9187500000000001,0.13144174590208954,1.2732395447351628",
         "0d4290052df5730526eb7219a5886565b6cf6560ffa251c91676fb0696c6b664"),
        (["--space", "ginibre", "--n", "10", "--bins", "13", "--extent", "2.5"], 2 + 169,
         "2.220446049250313e-16,2.220446049250313e-16,0.3380000000000001,0.33799999999999997,0.3183098861837907",
         "17553ca9b262aa40073e693a78f7bb1713de55a14ed3d853f390aab596818399"),
    ],
    ids=["fs3-7", "ginibre10-13"],
)
def test_stats_intensity_csv_keeps_its_bytes(argv, lines, center, digest):
    # every byte of the CSV at a fixed seed: the center cell's row in full,
    # and the SHA-256 of the whole report
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(["stats", "intensity", *argv, "--reps", "20", "--seed", "13"]) == 0
    text = out.getvalue()
    rows = text.splitlines()
    bins = int(argv[argv.index("--bins") + 1])
    assert len(rows) == lines
    assert rows[2 + (bins // 2) * (bins + 1)] == center
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "flags", [["--bins", "0"], ["--extent", "0"], ["--extent", "-2"]], ids=["bins0", "extent0", "extent-2"]
)
def test_stats_intensity_rejects_bad_binning(flags, capsys):
    assert run(["stats", "intensity", "--space", "fs", "--k", "3", "--reps", "2",
                "--seed", "13", *flags]) == 2
    assert flags[0].lstrip("-") in capsys.readouterr().err


@pytest.mark.parametrize("extent", ["1e200", "1e-200"], ids=["overflow", "underflow"])
def test_stats_intensity_refuses_a_bin_area_off_the_float_range(extent, capsys):
    # (2 * extent / bins)^2 overflows to inf or underflows to 0: one error
    # line, and no numpy warning on the way
    argv = ["stats", "intensity", "--space", "fs", "--k", "3", "--reps", "2", "--seed", "1",
            "--bins", "2", "--extent", extent]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: extent {float(extent)} over 2 bins gives bins of area ")
    assert err.count("\n") == 1


def test_stats_circular(tmp_path):
    out = tmp_path / "circ.json"
    assert run(["stats", "circular", "--space", "ginibre", "--n", "30",
                "--reps", "5", "--seed", "17", "--out", str(out)]) == 0
    doc = read_json(out)
    assert doc["schema"] == "bergdpp.circular/1"
    assert 0.0 < doc["distance"] < 0.5
    assert doc["pooled_points"] == 150


def test_stats_circular_takes_a_huge_coordinate_without_warnings(tmp_path):
    # the circular-law CDF is min(r, 1)^2: a radius whose square overflows
    # lies outside the disk like any other, with no warning on the way
    samples, out = tmp_path / "s.json", tmp_path / "c.json"
    assert run(["sample", "--space", "ginibre", "--n", "3", "--reps", "4", "--seed", "2",
                "--out", str(samples)]) == 0
    doc = read_json(samples)
    distances = []
    for point in ([1e200, 1e200], [10.0, 10.0]):
        doc["configurations"][1]["points"][0] = point
        samples.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["stats", "circular", "--samples", str(samples), "--out", str(out)]) == 0
        distances.append(read_json(out)["distance"])
    assert distances[0] == distances[1]


def test_stats_circular_rejects_fs():
    assert run(["stats", "circular", "--space", "fs", "--k", "3",
                "--reps", "2", "--seed", "1"]) == 2


# ---------------------------------------------------------------------------
# scaling


def test_scaling_report(tmp_path):
    out = tmp_path / "sc.json"
    assert run(["scaling", "--space", "fs", "--ks", "16,64", "--out", str(out)]) == 0
    doc = read_json(out)
    assert doc["schema"] == "bergdpp.scaling/1"
    ks = [row["k"] for row in doc["rows"]]
    assert ks == [16, 64]
    assert doc["rows"][1]["sup_error"] < doc["rows"][0]["sup_error"]


def test_scaling_rejects_ginibre():
    assert run(["scaling", "--space", "ginibre", "--n", "5", "--ks", "4,8"]) == 2


def test_scaling_rejects_power_zero(capsys):
    assert run(["scaling", "--space", "fs", "--ks", "0,5"]) == 2
    assert "at least 1" in capsys.readouterr().err


def test_scaling_with_points_file(tmp_path):
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps({"points": [[0.1, 0.0], [0.0, 0.2], [0.3, -0.1]]}))
    out = tmp_path / "sc.json"
    assert run(["scaling", "--space", "fs", "--ks", "9,36", "--points", str(pts),
                "--out", str(out)]) == 0
    doc = read_json(out)
    assert doc["config"]["points"].endswith("pts.json")


README_POINTS = [[0.1, 0.0], [-0.4, 0.25], [0.8, -0.3]]  # the points.json of the README


def _scaling_rows(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(["scaling", *argv]) == 0
    return [(row["k"], row["sup_error"], row["ratio_to_prev"]) for row in json.loads(out.getvalue())["rows"]]


@pytest.mark.parametrize(
    "argv, rows",
    [
        (["--space", "fs", "--ks", "25,100"],
         [(25, 0.05212833898691921, None), (100, 0.014564569872833777, 0.2793983110892624)]),
        (["--space", "fs", "--ks", "25,100,400"],
         [(25, 0.05212833898691921, None), (100, 0.014564569872833777, 0.2793983110892624),
          (400, 0.003750191660243707, 0.25748729231191814)]),
        (["--space", "product", "--mults", "1,2", "--ks", "10,40"],
         [(10, 0.08350086681262842, None), (40, 0.02744995536435124, 0.3287385677797514)]),
        (["--space", "fs", "--ks", "50,200", "--points", "points.json"],
         [(50, 0.006236366240855662, None), (200, 0.0015595616864582662, 0.25007538464326723)]),
    ],
    ids=["fs-25-100", "fs-25-100-400", "product12-10-40", "readme-points"],
)
def test_scaling_reports_keep_their_digits(argv, rows, tmp_path, monkeypatch):
    # the digits of the one-group-at-a-time evaluation, every float exact: the
    # stacked evaluation takes the same section rows, Gram products and LAPACK
    # determinants, so a change that moves a report's bytes fails here
    monkeypatch.chdir(tmp_path)
    (tmp_path / "points.json").write_text(json.dumps({"points": README_POINTS}))
    assert _scaling_rows(argv) == rows


@pytest.mark.parametrize(
    "argv, rows",
    [
        (["--space", "product", "--mults", "1,2", "--k", "3",
          "--weight-expr", "re_1/(1+r2_1)+im_2*im_2/(1+r2_2)"],
         [(0.0, 0.0, -7.00000000010404, -7.0000000000000036, 1.486239702714684e-11),
          (0.5, -3.263485215691389, -6.0570423670647235, -6.057042366813441, 4.1486014971513674e-11),
          (1.0, -6.060564438483703, -5.135195499381684, -5.135195498740065, 1.249454285217002e-10)]),
        (["--space", "product", "--mults", "1,1,1", "--k", "1", "--weight-expr", "2 + re_1/(1+r2_1)"],
         [(0.0, 0.0, -15.999999999996472, -16.0, 2.204902926905561e-13),
          (0.5, -7.9444830345699655, -15.778086537020878, -15.778086536991935, 1.8343277504810142e-12),
          (1.0, -15.778395632309845, -15.558027953082032, -15.55802795298963, 5.9392186690098705e-12)]),
        (["--space", "ginibre", "--n", "30", "--weight-expr", "(1-r2)/2"],
         [(0.0, 0.0, 217.5000001937037, 217.5000000000001, 8.905911933571927e-10),
          (0.5, 126.2721636900781, 295.00000103335344, 295.00000000000006, 3.5028928185181872e-09),
          (1.0, 307.3134389603745, 450.00000619992875, 450.0000000000002, 1.3777618745289019e-08)]),
        # non-dyadic t, three terms on factor 1 and none on factor 2: the
        # factor traces take the factor weights of gram()'s split
        (["--space", "product", "--mults", "1,1,1", "--k", "2", "--weight-expr",
          "2 + re_1/(1+r2_1) - im_1*im_1/(1+r2_1) + re_3/(1+r2_3)", "--t", "0.3,0.7,1.1"],
         [(0.3, -14.013397970087894, -46.1720409123819, -46.172040912405905, 5.198412965870669e-13),
          (0.7, -32.19435676747718, -44.73319900787691, -44.73319900755929, 7.100312862851455e-12),
          (1.1, -49.80108552249236, -43.30286169861996, -43.30286169764648, 2.248070997947809e-11)]),
    ],
    ids=["product12-separable", "product111-constant", "ginibre30-half-one-minus-r2",
         "product111-three-terms-on-one-factor"],
)
def test_energy_cgf_reports_keep_their_digits(argv, rows):
    # (t, cgf, finite_difference, bergman_integral, rel_gap), every float
    # exact: the factored path, its t = 0 factor Grams and the Ginibre grids
    # that follow the weight all show here
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(["energy", "cgf", "--t", "0,0.5,1", *argv]) == 0  # a --t in argv wins
    keys = ("t", "cgf", "finite_difference", "bergman_integral", "rel_gap")
    assert [tuple(row[key] for key in keys) for row in json.loads(out.getvalue())["rows"]] == rows


def _report(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(argv) == 0
    return json.loads(out.getvalue())


def _rows(report: dict, name: str, keys) -> list[tuple]:
    """Each row of the report's list name as the tuple of its keys."""
    return [tuple(row[key] for key in keys) for row in report[name]]


@pytest.mark.parametrize(
    "argv, target, rows",
    [
        (["--space", "fs", "--ks", "10,20", "--f-expr", "0.2/(1+r2)"], 0.10333333333333333,
         [(10, 11, 0.10277718109527265, 0.0005561522380606865),
          (20, 21, 0.10302986414466425, 0.000303469188669081)]),
        (["--space", "product", "--mults", "1,2", "--ks", "2,3", "--f-expr", "0.2/(1+r2_1)+0.1/(1+r2_2)"],
         0.15375,
         [(2, 15, 0.15194410651127108, 0.0018058934887289213),
          (3, 28, 0.15231201448977894, 0.0014379855102210626)]),
    ],
    ids=["fs-10-20", "product12-2-3"],
)
def test_lambda_k_reports_keep_their_digits(argv, target, rows):
    # (k, rank, lambda_value, gap), every float exact: lambda_k takes one
    # step of a GramPath, which builds two Grams per power
    report = _report(["energy", "lambda-k", *argv])
    assert report["target"] == target
    assert _rows(report, "rows", ("k", "rank", "lambda_value", "gap")) == rows


@pytest.mark.parametrize(
    "argv, counts, pairs",
    [
        # overlapping regions: the pair prediction takes its overlap term
        (["--space", "fs", "--k", "5", "--reps", "60", "--seed", "4", "--region", "disk:1",
          "--region", "annulus:0.5:2"],
         [(3.0, 0.6767578125000009, 2.933333333333333, 0.5717514124293785, -0.6277225454256012,
           -0.9282267363944281),
          (3.6, 1.0443460608000001, 3.8833333333333333, 1.1217514124293786, 2.1475885494152323,
           0.4416802541671215)],
         [(6.676757812500001, 6.233333333333333, 0.4436409875117228, -0.9995119739808765),
          (10.8, 11.216666666666667, 0.5186312203768003, 0.803396807396103),
          (10.404346060800002, 12.3, 0.9505573744040379, 1.9942551499203292)]),
        (["--space", "ginibre", "--n", "20", "--reps", "10", "--seed", "4", "--region", "disk:2",
          "--region", "annulus:1:3"],
         [(3.9999999976590805, 1.1102970982572749, 3.6, 2.7111111111111117, -1.2004398015871558,
           1.9726189592554675),
          (7.999281453995358, 2.2005498561840344, 8.3, 1.788888888888889, 0.6410539885056379,
           -0.6540401036441228)],
         [(13.110297081870838, 11.8, 3.379020239326449, -0.3877742626756279),
          (32.051454462984815, 30.3, 5.283201891109426, -0.33151382420803605),
          (58.18977218242276, 62.2, 6.14961606751005, 0.6521102738046162)]),
    ],
    ids=["fs5-overlapping", "ginibre20"],
)
def test_stats_counts_reports_keep_their_digits(argv, counts, pairs):
    # every float exact: the count predictions read masked Grams, the
    # observed counts the seeded exact draws
    report = _report(["stats", "counts", *argv])
    keys = ("predicted_mean", "predicted_variance", "observed_mean", "observed_variance", "mean_z", "variance_z")
    assert _rows(report, "counts", keys) == counts
    assert _rows(report, "pairs", ("predicted", "observed_mean", "observed_se", "z")) == pairs


def test_converge_and_circular_reports_keep_their_digits():
    # every float exact, from seeded exact draws
    report = _report(["converge", "--space", "fs", "--ks", "5,10", "--reps", "40", "--seed", "3"])
    keys = ("k", "rank", "quadrature_mass", "equilibrium_mass", "mc_mass", "mc_se", "replicate_variance", "gap")
    assert _rows(report, "rows", keys) == [
        (5, 6, 0.5, 0.5, 0.4875, 0.021003577907115847, 0.017646011396011393, 0.012500000000000011),
        (10, 11, 0.5, 0.5, 0.5204545454545455, 0.013805286278172313, 0.007623437168891712, 0.020454545454545503),
    ]
    report = _report(["stats", "circular", "--space", "ginibre", "--n", "20", "--reps", "5", "--seed", "2"])
    assert (report["distance"], report["pooled_points"], report["rank"]) == (0.10999999999999999, 100, 20)


def test_scaling_with_one_point_has_no_pairs(tmp_path):
    # the error is the one-point error alone: the closed form
    # (k+1) / (pi k (1 + |u|^2/k)^2) against the limit 1/pi
    pts = tmp_path / "one.json"
    pts.write_text(json.dumps({"points": [[0.6, -0.2]]}))
    rows = _scaling_rows(["--space", "fs", "--ks", "25,100", "--points", str(pts)])
    for k, err, _ in rows:
        want = (k + 1) / (math.pi * k * (1.0 + 0.4 / k) ** 2) - 1.0 / math.pi
        assert err == pytest.approx(abs(want), rel=1e-10)


def test_scaling_snaps_a_coincident_consecutive_pair(tmp_path):
    from bergdpp.kernel import rescaled_correlation
    from bergdpp.spaces import limit_frame

    # the pair's kernel determinant falls below DET_FLOOR times its diagonal
    # and reports 0, as does the limit; so the report is the one-point one
    for name, points in (("one", [[0.3, 0.1]]), ("two", [[0.3, 0.1], [0.3, 0.1]])):
        (tmp_path / f"{name}.json").write_text(json.dumps({"points": points}))
    argv = ["--space", "fs", "--ks", "25,100", "--points"]
    assert _scaling_rows([*argv, str(tmp_path / "two.json")]) == _scaling_rows([*argv, str(tmp_path / "one.json")])
    space = make_fubini_study(25)
    pair = np.array([[0.3 + 0.1j], [0.3 + 0.1j]])
    assert rescaled_correlation(space, limit_frame(space, np.zeros(1)), pair) == 0.0


def test_scaling_on_a_product_points_file_matches_the_entrywise_oracle(tmp_path):
    from bergdpp.kernel import evaluator
    from bergdpp.spaces import limit_frame
    from kernel_oracles import kernel_eval, limit_kernel

    U = np.array([[0.2 - 0.1j, -0.5 + 0.3j], [0.7 + 0.4j, 0.1j], [-0.3 - 0.6j, 0.4 - 0.2j]])
    pts = tmp_path / "prod.json"
    pts.write_text(json.dumps({"points": [[c for z in u for c in (z.real, z.imag)] for u in U]}))
    rows = _scaling_rows(["--space", "product", "--mults", "1,2", "--ks", "3,10", "--points", str(pts)])
    for k, err, _ in rows:
        space = make_product((1, 2), k)
        ev, lam = evaluator(space), limit_frame(space, np.zeros(2)).lam
        want = 0.0
        for group in [U[i : i + 1] for i in range(3)] + [U[i : i + 2] for i in range(2)]:
            chart = group / math.sqrt(k)
            got = np.linalg.det([[kernel_eval(ev, a, b) for b in chart] for a in chart]).real
            got *= k ** (-2.0 * len(group)) * np.prod(space.base_density(chart))
            limit = np.linalg.det([[limit_kernel(lam, a, b) for b in group] for a in group]).real
            want = max(want, abs(got - limit))
        assert err == pytest.approx(want, rel=1e-10)


def test_scaling_on_ten_thousand_points_stays_in_bounded_memory(tmp_path):
    # the stacks are cut into chunks of test points: one stack of all 10^4
    # points would hold their 401 section values, 64 MB, before the pairs
    rng = np.random.default_rng(11)
    pts = tmp_path / "many.json"
    pts.write_text(json.dumps({"points": rng.uniform(-2.0, 2.0, (10_000, 2)).tolist()}))
    tracemalloc.start()
    try:
        rows = _scaling_rows(["--space", "fs", "--ks", "400", "--points", str(pts)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64_000_000
    assert rows[0][0] == 400 and 0.0 < rows[0][1] < 0.1


@pytest.mark.parametrize("space", [["fs"], ["product", "--mults", "1,2"]], ids=["fs", "product12"])
@pytest.mark.parametrize("value, refused", [(1e200, True), (1.1e77, True), (5e76, False)])
def test_scaling_refuses_a_point_whose_density_overflows(space, value, refused, tmp_path, capsys):
    # at k = 1 the chart point is u itself, and the Fubini-Study density
    # 1 / (pi (1 + |u|^2)^2) squares |u|^2 = 2 value^2: past about 1.1e77
    # that overflows, so the row is refused before any evaluation
    dim = 1 if space == ["fs"] else 2
    pts = tmp_path / "huge.json"
    pts.write_text(json.dumps({"points": [[0.1, 0.2] * dim, [value, value] * dim]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run(["scaling", "--space", *space, "--ks", "1,2", "--points", str(pts)])
    err = capsys.readouterr().err
    if refused:
        assert rc == 2
        assert err == f"error: {pts}: point row 1 has a coordinate u with (1 + |u|^2)^2 beyond the float range\n"
    else:
        assert rc == 0 and err == ""


# ---------------------------------------------------------------------------
# converge


def test_converge_report(tmp_path):
    out = tmp_path / "cv.json"
    assert run(["converge", "--space", "fs", "--ks", "4,8", "--region", "disk:1.0",
                "--reps", "30", "--seed", "19", "--out", str(out)]) == 0
    doc = read_json(out)
    assert doc["schema"] == "bergdpp.converge/1"
    assert [row["k"] for row in doc["rows"]] == [4, 8]
    for row in doc["rows"]:
        assert row["quadrature_mass"] == pytest.approx(0.5, abs=1e-9)


def test_converge_warns_when_replicate_variance_grows():
    # k = 20 before k = 5: the disk mass of fewer points varies more
    doc = _report(["converge", "--space", "fs", "--ks", "20,5", "--reps", "100", "--seed", "1"])
    assert doc["warnings"] == ["replicate variance increased from k=20 to k=5"]
    assert doc["rows"][1]["replicate_variance"] > doc["rows"][0]["replicate_variance"]


WORKER_COMMANDS = {
    "sample": ["sample", "--space", "fs", "--k", "3", "--reps", "2", "--seed", "1"],
    "stats": ["stats", "circular", "--space", "ginibre", "--n", "5", "--reps", "2", "--seed", "1"],
    "converge": ["converge", "--space", "fs", "--ks", "3", "--reps", "2", "--seed", "1"],
    "sample-chain": ["sample", "--space", "fs", "--k", "3", "--seed", "1", "--mcmc-steps", "20"],
}


@pytest.mark.parametrize("workers", ["0", "-3"])
@pytest.mark.parametrize("command", sorted(WORKER_COMMANDS))
def test_workers_below_one_rejected(command, workers, capsys):
    # refused naming the flag, on every command that draws
    assert run(WORKER_COMMANDS[command] + ["--workers", workers]) == 2
    assert capsys.readouterr().err == f"error: --workers must be at least 1, got {workers}\n"


def test_chain_runs_in_one_worker(tmp_path, capsys):
    # a chain runs in one process: --workers 1 keeps the bytes, and more is refused
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    chain = WORKER_COMMANDS["sample-chain"]
    assert run(chain + ["--out", str(a)]) == 0
    assert run(chain + ["--workers", "1", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert run(chain + ["--workers", "3"]) == 2
    assert capsys.readouterr().err == (
        "error: --workers 3 needs the exact sampler (a chain runs in one process)\n"
    )


def test_converge_deterministic_across_workers(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    base = ["converge", "--space", "fs", "--ks", "3,6", "--reps", "8", "--seed", "23"]
    assert run(base + ["--workers", "1", "--out", str(a)]) == 0
    assert run(base + ["--workers", "2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# energy


def test_energy_cgf_report(tmp_path):
    out = tmp_path / "cgf.json"
    assert run(["energy", "cgf", "--space", "fs", "--k", "6",
                "--weight-expr", "r2/(1+r2)", "--t", "0,0.5", "--out", str(out)]) == 0
    doc = read_json(out)
    assert doc["schema"] == "bergdpp.energy-cgf/1"
    assert len(doc["rows"]) == 2
    for row in doc["rows"]:
        assert row["rel_gap"] < 1e-4
    assert doc["rows"][0]["bergman_integral"] == pytest.approx(-3.5, abs=1e-8)


def test_energy_lambda_report(tmp_path):
    out = tmp_path / "lam.json"
    assert run(["energy", "lambda-k", "--space", "fs", "--ks", "8,16",
                "--f-expr", "0.2/(1+r2)", "--out", str(out)]) == 0
    doc = read_json(out)
    assert doc["schema"] == "bergdpp.energy-lambda/1"
    assert doc["target"] == pytest.approx(0.1 + 1.0 / 300.0, abs=1e-8)
    gaps = [row["gap"] for row in doc["rows"]]
    assert gaps[1] < gaps[0]


def test_energy_lambda_k_scaled_weight_matches_the_library(tmp_path):
    out = tmp_path / "lam.json"
    assert run(["energy", "lambda-k", "--space", "fs", "--ks", "3,5", "--f-expr", "0.2/(1+r2)",
                "--psi-k-expr", "0.1*log(1+r2)", "--out", str(out)]) == 0
    want = lambda_report(
        [(k, make_fubini_study(k)) for k in (3, 5)],
        parse_weight("0.2/(1+r2)"),
        psi_prime=parse_weight("0.1*log(1+r2)"),
    )
    doc = read_json(out)
    assert doc["rows"] == [
        {"k": r.k, "rank": r.rank, "lambda_value": r.lambda_value, "gap": r.gap} for r in want.rows
    ]
    assert doc["target"] == want.target


def test_energy_lambda_k_rejects_power_zero(capsys):
    # Lambda_k divides by k: k = 0 is a usage error naming k, not a float division failure
    assert run(["energy", "lambda-k", "--space", "fs", "--ks", "0,5", "--f-expr", "0.2/(1+r2)"]) == 2
    assert "needs a power k >= 1, got k = 0" in capsys.readouterr().err


def test_energy_positivity_failure_is_exit_3(capsys):
    code = run(["energy", "lambda-k", "--space", "fs", "--ks", "4",
                "--f-expr", "3*log(1+r2)"])
    assert code == 3
    assert "Kahler" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# usage errors


def test_unknown_subcommand():
    assert run(["frobnicate"]) == 2


def test_unknown_flag():
    assert run(["sample", "--space", "fs", "--k", "3", "--seed", "1", "--frob"]) == 2


def test_version_flag(capsys):
    assert run(["--version"]) == 0
    assert "bergdpp" in capsys.readouterr().out
