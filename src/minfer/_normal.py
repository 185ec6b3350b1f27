"""Standard and bivariate normal probabilities, vectorized in numpy.

``_ndtr_pair`` is the normal CDF as Cephes computes it (``ndtr``, with its
``erf`` and ``erfc`` rational approximations: the coefficients and the
evaluation order of ``scipy.special.ndtr``). One pass gives both Phi(x)
and Phi(-x): erf is odd and the tail uses 1 - y, so each is what Cephes
returns for it, up to numpy's exp, which can differ from the C library's
in the last bit (|difference| <= 4.5e-16 on [-40, 40]). Phi(-x) keeps its
precision where Phi(x) is near 1.

``_bvn_cover`` is P(X <= h, Y >= k) for a standard bivariate normal pair
with correlation rho, i.e. Phi(h) - Phi2(h, k; rho), by Genz's BVND
(Genz 2004, Stat. Comput. 14:251): Gauss-Legendre quadrature of the
Plackett derivative in asin(rho) for |rho| < 0.925, and of the expansion
around rho = 1 above. rho is one scalar for all points, so one quadrature
rule serves the whole array.

Both are private: the kernel is part of the normal curve, and the
benchmark's tracer, which times public functions only, counts its time
in ``corroborate``'s normal-curve layer.
"""

from __future__ import annotations

import math

import numpy as np

# erfc(x) = exp(-x^2) P(x) / Q(x) for 1 <= x < 8, R/S for x >= 8; erf(x) =
# x T(x^2) / U(x^2) for |x| <= 1. Q, S and U lead with Cephes' implicit 1.
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
_MAXLOG = 7.09782712893383996843e2  # log of the largest double
_SQRT1_2 = math.sqrt(0.5)

# Genz's Gauss-Legendre rules with 6, 12 and 20 points, nodes and weights
# on [-1, 0) to 16 significant digits; the rules are symmetric
_HALF_RULES = (
    ((-0.9324695142031520, -0.6612093864662645, -0.2386191860831969),
     (0.1713244923791703, 0.3607615730481386, 0.4679139345726910)),
    ((-0.9815606342467193, -0.9041172563704749, -0.7699026741943047,
      -0.5873179542866174, -0.3678314989981802, -0.1252334085114689),
     (0.04717533638651183, 0.1069393259953184, 0.1600783285433462,
      0.2031674267230659, 0.2334925365383548, 0.2491470458134028)),
    ((-0.9931285991850949, -0.9639719272779138, -0.9122344282513259,
      -0.8391169718222188, -0.7463319064601508, -0.6360536807265150,
      -0.5108670019508271, -0.3737060887154196, -0.2277858511416451,
      -0.07652652113349733),
     (0.01761400713915212, 0.04060142980038694, 0.06267204833410906,
      0.08327674157670475, 0.1019301198172404, 0.1181945319615184,
      0.1316886384491766, 0.1420961093183821, 0.1491729864726037,
      0.1527533871307259)),
)
# nodes as a column against the points' row, weights as a row to sum them
_RULES = tuple(
    (np.array([*nodes, *(-x for x in nodes)])[:, None], np.array([*weights, *weights]))
    for nodes, weights in _HALF_RULES
)
_TWO_PI = 2.0 * math.pi


def _polevl(x: np.ndarray, coefficients: tuple[float, ...]) -> np.ndarray:
    # Horner's rule, highest power first, as Cephes' polevl and p1evl
    value = coefficients[0] * x + coefficients[1]
    for c in coefficients[2:]:
        value *= x
        value += c
    return value


def _ndtr_pair(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Phi(x), Phi(-x)) for a float array x, each as Cephes' ``ndtr``."""
    z = np.abs(x * _SQRT1_2)
    zz = z * z
    erf = z * _polevl(zz, _T) / _polevl(zz, _U)
    near = z < 8.0
    p = np.where(near, _polevl(z, _P), _polevl(z, _R))
    q = np.where(near, _polevl(z, _Q), _polevl(z, _S))
    # erfc(z): 1 - erf(z) below 1, zero where exp(-z^2) underflows
    erfc = np.where(z < 1.0, 1.0 - erf, np.where(zz > _MAXLOG, 0.0, np.exp(-zz) * p / q))
    small = z < _SQRT1_2
    below = np.where(small, 0.5 - 0.5 * erf, 0.5 * erfc)  # Phi(-|x|)
    above = np.where(small, 0.5 + 0.5 * erf, 1.0 - 0.5 * erfc)  # Phi(|x|)
    positive = x > 0.0
    return np.where(positive, above, below), np.where(positive, below, above)


def _bvn_cover(h: np.ndarray, k: np.ndarray, rho: float, s: float) -> np.ndarray:
    """P(X <= h, Y >= k) = Phi(h) - Phi2(h, k; rho) for standard normal X
    and Y with correlation -0.925 < rho < 1, elementwise over float arrays
    h and k of one shape. s = sqrt(1 - rho^2) > 0 is passed in, so that
    its precision near rho = 1 is the caller's."""
    nodes, weights = _RULES[0 if abs(rho) < 0.3 else 1 if abs(rho) < 0.75 else 2]
    n = h.size
    hk = h * k
    if abs(rho) < 0.925:
        # Phi2 = Phi(h) Phi(k) + the integral over r in [0, rho] of the
        # density at (h, k; r), in r = sin(t)
        phi, phi_neg = _ndtr_pair(np.concatenate([h, k]))
        asr = math.asin(rho)
        sn = np.sin(0.5 * asr * (nodes + 1.0))
        half_sq = 0.5 * (h * h + k * k)
        integral = weights @ np.exp((sn * hk - half_sq) / (1.0 - sn * sn))
        return phi[:n] * phi_neg[n:] - asr / (2.0 * _TWO_PI) * integral
    # Phi2 = Phi(min(h, k)) - bvn / 2pi: the density integrated from rho to 1
    # in x = sqrt(1 - r^2), its singular part in closed form
    bs = (h - k) ** 2
    ss = s * s
    c = (4.0 - hk) / 8.0
    d = (12.0 - hk) / 16.0
    b = np.sqrt(bs)
    phi, phi_neg = _ndtr_pair(np.concatenate([h, k, -b / s]))
    bvn = s * np.exp(-0.5 * (bs / ss + hk)) * (
        1.0 - c * (bs - ss) * (1.0 - d * bs / 5.0) / 3.0 + c * d * ss * ss / 5.0
    )
    # Genz drops this term for hk <= -160, where Phi(-b/s) underflows
    bvn -= np.where(
        hk > -160.0,
        np.exp(-0.5 * np.maximum(hk, -160.0)) * math.sqrt(_TWO_PI) * phi[2 * n:] * b
        * (1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0),
        0.0,
    )
    xs = (0.5 * s * (nodes + 1.0)) ** 2
    rs = np.sqrt(1.0 - xs)
    # both exponents lie below -bs / (4 max xs) <= 0, so nothing overflows
    smooth = (np.exp(-bs / (2.0 * xs) - hk / (1.0 + rs)) / rs
              - np.exp(-0.5 * (bs / xs + hk)) * (1.0 + c * xs * (1.0 + d * xs)))
    bvn += 0.5 * s * (weights @ smooth)
    # Phi(h) - Phi(min(h, k)), as Phi(-k) - Phi(-h) for precision near 1
    return np.where(k < h, phi_neg[n:2 * n] - phi_neg[:n], 0.0) + bvn / _TWO_PI
