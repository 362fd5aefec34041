"""Command-line surface: schemas, determinism, exit codes, seed resolution.

Exit convention: 0 success, 2 usage or input errors, 3 numerical failures
(degenerate Gram, loss of positivity, sampler stalls, failed checks).
"""

import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import bergdpp
from bergdpp.cli import run
from bergdpp.energy import lambda_report
from bergdpp.exprs import parse_weight, weight_sum
from bergdpp.sampler import log_density
from bergdpp.spaces import make_fubini_study, make_product


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
    assert "error: --reps must be at least 1" in capsys.readouterr().err


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
    [{"kind": "fs"}, {"kind": "product", "k": 2, "multiplicities": 3}, "fs", {"kind": "torus"}],
    ids=["missing-key", "bad-value", "not-an-object", "unknown-kind"],
)
def test_stats_rejects_malformed_space_block(tmp_path, space, capsys):
    samples = tmp_path / "s.json"
    samples.write_text(json.dumps({"space": space, "configurations": []}))
    assert run(["stats", "counts", "--samples", str(samples), "--region", "disk:1"]) == 2
    assert "space" in capsys.readouterr().err


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


def test_counts_on_a_region_past_the_float_range(capsys):
    # annulus:0.5:1e300: (1e300)^2 overflows a float, so the outer radius
    # counts as beyond every edge
    argv = ["stats", "counts", "--space", "product", "--mults", "1,2", "--k", "1", "--reps", "5",
            "--seed", "1", "--region", "annulus:0.5:1e300"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == 0
    assert capsys.readouterr().err == ""


def test_sampler_stall_is_a_numerical_failure(monkeypatch, capsys):
    import bergdpp.sampler as sampler

    monkeypatch.setattr(sampler, "MAX_PROPOSALS", 0)
    assert run(["sample", "--space", "fs", "--k", "3", "--seed", "1"]) == 3
    assert "numerical failure: no acceptance after 0 proposals" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,flag",
    [
        *[(["sample", "--space", "fs", "--k", "2", "--seed", "1", "--mcmc-steps", "50",
            "--proposal-scale", value], "proposal_scale") for value in ("inf", "nan")],
    ],
    ids=["proposal-scale-inf", "proposal-scale-nan"],
)
def test_out_of_range_numeric_flag_is_exit_2(argv, flag, capsys):
    assert run(argv) == 2
    assert flag in capsys.readouterr().err


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
    import bergdpp.stats as stats

    grids = []
    build_grid = stats.build_grid

    def recorded(*args, **kwargs):
        grids.append(build_grid(*args, **kwargs))
        return grids[-1]

    monkeypatch.setattr(stats, "build_grid", recorded)
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
    "flags", [["--bins", "0"], ["--extent", "0"], ["--extent", "-2"]], ids=["bins0", "extent0", "extent-2"]
)
def test_stats_intensity_rejects_bad_binning(flags, capsys):
    assert run(["stats", "intensity", "--space", "fs", "--k", "3", "--reps", "2",
                "--seed", "13", *flags]) == 2
    assert flags[0].lstrip("-") in capsys.readouterr().err


def test_stats_circular(tmp_path):
    out = tmp_path / "circ.json"
    assert run(["stats", "circular", "--space", "ginibre", "--n", "30",
                "--reps", "5", "--seed", "17", "--out", str(out)]) == 0
    doc = read_json(out)
    assert doc["schema"] == "bergdpp.circular/1"
    assert 0.0 < doc["distance"] < 0.5
    assert doc["pooled_points"] == 150


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


WORKER_COMMANDS = {
    "sample": ["sample", "--space", "fs", "--k", "3", "--reps", "2", "--seed", "1"],
    "stats": ["stats", "circular", "--space", "ginibre", "--n", "5", "--reps", "2", "--seed", "1"],
    "converge": ["converge", "--space", "fs", "--ks", "3", "--reps", "2", "--seed", "1"],
}


@pytest.mark.parametrize("workers", ["0", "-3"])
@pytest.mark.parametrize("command", sorted(WORKER_COMMANDS))
def test_workers_below_one_rejected(command, workers, capsys):
    # checked once, in sample_dpp_many, for every command that draws
    assert run(WORKER_COMMANDS[command] + ["--workers", workers]) == 2
    assert f"workers must be at least 1, got {workers}" in capsys.readouterr().err


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
