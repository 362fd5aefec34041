"""Count laws from Kostlan's theorem, for the tests only.

Kostlan (On the spectra of Gaussian matrices, 1992; Hough-Krishnapur-Peres-
Virag, Zeros of Gaussian Analytic Functions and Determinantal Point
Processes, Thm 4.7.1): the squared moduli of the points are independent
across basis indices, Beta(j+1, K-j+1) in s = r^2/(1+r^2) on a
Fubini-Study factor of degree K and Gamma(j+1) in r^2 for Ginibre, and
independent across factors on a product.  So the count in a centred radial
region is a sum of independent Bernoulli variables whose probabilities come
from scipy alone; nothing here shares code with bergdpp.
"""

import math

import numpy as np
from scipy import special


def kostlan_probabilities(space, bounds):
    """P(j-th squared modulus falls in the region) per basis index.

    bounds: per-factor (r_lo, r_hi); an empty interval gives 0.  On product
    spaces the factors are independent, so the per-index probabilities are
    the outer product over factors in the flattened (C-order) basis.
    """
    p = np.ones(1)
    for d, (lo, hi) in zip((f.degree for f in space.factors), bounds):
        j = np.arange(d + 1.0)
        if space.kind == "ginibre":
            def cdf(r):
                return special.gammainc(j + 1.0, r * r)
        else:
            def cdf(r):
                s = 1.0 if math.isinf(r) else r * r / (1.0 + r * r)
                return special.betainc(j + 1.0, d - j + 1.0, s)
        p = np.outer(p, cdf(max(lo, hi)) - cdf(lo)).ravel()
    return p


def poisson_binomial_pmf(p):
    """Law of a sum of independent Bernoulli(p_j), on 0..len(p)."""
    pmf = np.ones(1)
    for pj in p:
        pmf = np.convolve(pmf, [1.0 - pj, pj])
    return pmf


def pooled_chi_square(observed, expected, floor=5.0):
    """Chi-square statistic and degrees of freedom over adjacent bins pooled
    until each expects at least `floor`; a light upper tail joins the last bin."""
    obs, exp = [], []
    o = e = 0.0
    for oi, ei in zip(observed, expected):
        o, e = o + oi, e + ei
        if e >= floor:
            obs.append(o)
            exp.append(e)
            o = e = 0.0
    obs[-1] += o
    exp[-1] += e
    obs, exp = np.array(obs), np.array(exp)
    return float(((obs - exp) ** 2 / exp).sum()), len(obs) - 1
