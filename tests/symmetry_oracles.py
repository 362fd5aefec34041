"""Symmetries of the model spaces applied to a weight, as opaque callables.

Each function takes a weight form (anything exprs.weight_values takes) and
returns a plain callable of the (M, 1) chart points.  gram() cannot read a
callable's form, so a transformed weight always takes the dense route
(quadrature module docstring), whatever route the weight itself takes:
the two sides of each identity are assembled by different code.

translate(psi, a), on the Ginibre plane.  Substituting z = w - a,
|z|^2 = |w|^2 - 2 Re(conj(a) w) + |a|^2, so e^{-|z|^2 - psi(z)} =
e^{-|w|^2 - psi~(w)} with psi~(w) = psi(w - a) - 2 Re(conj(a) w) + |a|^2.
Lebesgue measure is kept, and the polynomials of degree < N map onto
themselves by a unipotent change of basis (the Weyl translations of Fock
space), so Z(psi~) = Z(psi).

rotate(psi, theta), on a Fubini-Study sphere.  g(z) = (z cos(theta/2) -
sin(theta/2)) / (z sin(theta/2) + cos(theta/2)) is the rotation of the
sphere by theta about its Y axis, an SU(2) Moebius map.  It keeps the
Fubini-Study measure, and the sections of degree d carry a unitary SU(2)
action that keeps their kernel, so Z(psi o g) = Z(psi) (Hough, Krishnapur,
Peres and Virag, *Zeros of Gaussian Analytic Functions and Determinantal
Point Processes*, 2009).  The angular nodes of a default grid, 2 pi q / n
with n = 2 d + 1 odd, never meet the pole z = -cot(theta/2) of g on the
negative real axis.
"""

import numpy as np

from bergdpp.exprs import weight_values


def shifted(psi, a: complex):
    """w -> psi(w - a), an opaque callable; psi None is the zero weight."""
    return lambda W: weight_values(psi, W - a)


def translate(psi, a: complex):
    """psi~(w) = psi(w - a) - 2 Re(conj(a) w) + |a|^2, an opaque callable.

    translate(None, a) is the Gaussian's own part, so along a path
    G(translate(None, a) + t shifted(psi, a)) = G((t psi)~).
    """
    move = shifted(psi, a)
    return lambda W: move(W) - 2.0 * (np.conj(a) * W[:, 0]).real + abs(a) ** 2


def rotate(psi, theta: float):
    """psi o g for the rotation g of the sphere by theta about its Y axis, an opaque callable.

    On a product g moves every factor, which a weight of one factor reads as that factor's rotation.
    """
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)

    def rotated(Z: np.ndarray) -> np.ndarray:
        return weight_values(psi, (Z * c - s) / (Z * s + c))

    return rotated
