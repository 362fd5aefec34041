"""Scalar kernel oracles: one entry of B or of B_inf at a time.

kernel_eval takes the inner product of two single section rows, and
limit_kernel writes B_inf(u, v) out as its closed form.  Neither stacks
groups, so determinants assembled from them entry by entry check the stacked
kernel_det, rescaled_correlation and limit_correlation.  Only the tests use
them.
"""

import numpy as np

from bergdpp.kernel import KernelEvaluator


def kernel_eval(ev: KernelEvaluator, x, y) -> complex:
    """B(x, y) as a density against mu x mu."""
    Vx = ev.section_rows(x)
    Vy = ev.section_rows(y)
    if Vx.shape[0] != 1 or Vy.shape[0] != 1:
        raise ValueError("kernel_eval takes single chart points")
    return complex(np.vdot(Vy[0], Vx[0]))  # vdot conjugates its first argument


def limit_kernel(lam, u, v) -> complex:
    """B_inf(u, v) against Lebesgue measure in the scaling coordinates."""
    lam = np.asarray(lam, dtype=float)
    uu = np.atleast_1d(np.asarray(u, dtype=complex))
    vv = np.atleast_1d(np.asarray(v, dtype=complex))
    pref = float(np.prod(lam / np.pi))
    expo = np.sum(lam * (uu * vv.conj() - 0.5 * np.abs(uu) ** 2 - 0.5 * np.abs(vv) ** 2))
    return pref * complex(np.exp(expo))
