"""Closed-form sharp constants, normalizing factors and exact moments for sphere-uniform sums.

Conventions: xi_k are i.i.d. uniform on S^(d-1); c_two / c_inf are the
two-equal-weights and Gaussian-limit Khinchin constants; for d=4 and
negative exponent q = -p the corresponding moment constants are C2 / C_infty.
The exact moments E|a xi_1 + b xi_2|^q and E|v|^(2k) live here, below quad and sample, and
so does _closed_moment, the one choice of a closed route for E|sum a_k xi_k|^q.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, PoleError
from .specfun import _as_array, gamma, hyp2f1, log_gamma

__all__ = [
    "MomentQuery",
    "NormalizerSet",
    "c_two",
    "c_inf",
    "C2",
    "C_infty",
    "normalizers",
    "D",
    "best_constant_status",
]

_POLE_GUARD = 1e-9


def _check_pole(x: float, what: str) -> None:
    if x < _POLE_GUARD and abs(x - round(x)) < _POLE_GUARD:
        raise PoleError(f"{what}: gamma argument {x} within {_POLE_GUARD} of a pole")


@dataclass(frozen=True)
class MomentQuery:
    """One moment E|sum a_k xi_k|^q of a weighted sum of sphere vectors."""

    d: int
    q: float
    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        _check_dim(self.d)
        object.__setattr__(self, "coeffs", tuple(float(a) for a in self.coeffs))
        if not all(math.isfinite(x) for x in (self.q, *self.coeffs)):
            raise DomainError(f"q and the coefficients must be finite, got q={self.q}, "
                              f"coeffs={self.coeffs}")
        if not self.q > -(self.d - 1) and self.d > 1:
            raise DomainError(f"q={self.q} not above -(d-1)={-(self.d - 1)}")
        if self.q == 0:
            raise DomainError("q = 0 (geometric-mean norm) is out of scope")
        if not any(a != 0.0 for a in self.coeffs):
            raise DomainError("coefficients must not all be zero")

    @property
    def norm(self) -> float:
        return math.sqrt(sum(a * a for a in self.coeffs))


def _two_coeff_2f1(d: int, q: float, t):
    """2F1(-q/2, (-q-d+2)/2; d/2; t) = E|xi_1 + sqrt(t) xi_2|^q; t in [0, 1] may be an array."""
    return hyp2f1(-q / 2.0, (-q - d + 2.0) / 2.0, d / 2.0, t)


def _two_coeff_moment(d: int, q: float, a, b):
    """E|a xi_1 + b xi_2|^q = M^q 2F1(-q/2, (-q-d+2)/2; d/2; (m/M)^2), M = max(|a|,|b|), m = min.

    Array-capable in a and b, which are taken as floats; finite for q > -(d-1),
    where the 2F1 at 1 is a Gauss sum.
    """
    a, b = np.abs(a, dtype=float), np.abs(b, dtype=float)
    hi, t = np.maximum(a, b), np.minimum(a, b)
    t /= hi
    t *= t  # (m/M)^2, in place, as the Monte Carlo scoring holds a chunk of samples
    f = _two_coeff_2f1(d, q, t)
    hi **= q
    hi *= f
    return hi


def _closed_moment(query: MomentQuery) -> tuple[float, str] | None:
    """(E|sum a_k xi_k|^q, route): |a|^q ("exact") for one nonzero weight, however small,
    the 2F1 of _two_coeff_moment ("hypergeometric") for two, None for more."""
    nz = [a for a in query.coeffs if a != 0.0]
    if len(nz) == 1:
        return float(np.abs(nz[0]) ** query.q), "exact"
    if len(nz) == 2:
        return float(_two_coeff_moment(query.d, query.q, *nz)), "hypergeometric"
    return None


def _even_moments(d: int, weights, K: int) -> list[float]:
    """E|v|^(2k) for k = 0..K, v = sum_j w_j xi_j with xi_j uniform on S^(d-1).

    The radial chain in moments: adding b xi to v gives |v + b xi|^2 =
    (|v|^2 + b^2) + 2b|v|x, with the cosine x independent of v (see
    sample._abs_sums), its odd moments 0 and E x^(2i) = (1/2)_i/(d/2)_i.  So
    E|v + b xi|^(2k) = sum over i, l of C(k, 2i) C(k - 2i, l) (4b^2)^i E x^(2i)
    b^(2(k - 2i - l)) E|v|^(2(l + i)): positive terms only, nothing cancels.
    No weights give 1, 0, ..., 0.
    """
    ex = [1.0]
    for i in range(1, K // 2 + 1):
        ex.append(ex[-1] * (i - 0.5) / (0.5 * d + i - 1))
    m = [1.0] + [0.0] * K
    for w in weights:
        b2 = float(w) ** 2
        m = [math.fsum(math.comb(k, 2 * i) * math.comb(k - 2 * i, l) * (4.0 * b2) ** i * ex[i]
                       * b2 ** (k - 2 * i - l) * m[l + i]
                       for i in range(k // 2 + 1) for l in range(k - 2 * i + 1))
             for k in range(K + 1)]
    return m


@dataclass(frozen=True)
class NormalizerSet:
    """The three normalizing constants of the Fourier moment formulas.

    beta is only defined for 0 < p < 1 and is None outside that range.
    """

    K: float
    kappa: float
    beta: float | None = field(default=None)


def c_two(d, q) -> float:
    """Khinchin constant of two equal weights, ||(xi_1+xi_2)/sqrt(2)||_q.

    Valid for -(d-1) < q <= 2, q != 0 (the closed form extends to q = 2,
    where it equals 1).  d and q broadcast against each other.
    """
    da, qa, scalar = _dq_arrays(d, q)
    if np.any(qa <= -(da - 1) + _POLE_GUARD) or np.any(qa > 2):
        raise DomainError(f"c_two requires -(d-1) < q <= 2, got {q!r}")
    val = (log_gamma(da / 2.0) + log_gamma(da + qa - 1.0)
           - log_gamma((da + qa) / 2.0) - log_gamma(da + qa / 2.0 - 1.0))
    out = np.exp(val / qa) / math.sqrt(2.0)
    return float(out) if scalar else out


def c_inf(d, q) -> float:
    """Gaussian-limit Khinchin constant, ||Z/sqrt(d)||_q; d and q broadcast."""
    da, qa, scalar = _dq_arrays(d, q)
    if np.any(qa <= -da + _POLE_GUARD):
        raise DomainError(f"c_inf requires q > -d, got {q!r}")
    val = log_gamma((da + qa) / 2.0) - log_gamma(da / 2.0)
    out = np.sqrt(2.0 / da) * np.exp(val / qa)
    return float(out) if scalar else out


def C2(p: float) -> float:
    """Two-point moment constant at d=4: E|(xi_1+xi_2)/sqrt(2)|^(-p)."""
    if not 0.0 < p < 3.0:
        raise DomainError(f"C2 requires 0 < p < 3, got {p}")
    for arg in (3.0 - p, 2.0 - p / 2.0, 3.0 - p / 2.0):
        _check_pole(arg, "C2")
    return 2.0 ** (p / 2.0) * gamma(3.0 - p) / (gamma(2.0 - p / 2.0) * gamma(3.0 - p / 2.0))


def C_infty(p: float) -> float:
    """Gaussian moment constant at d=4: E|Z/2|^(-p)."""
    if not 0.0 < p < 4.0:
        raise DomainError(f"C_infty requires 0 < p < 4, got {p}")
    _check_pole(2.0 - p / 2.0, "C_infty")
    return 2.0 ** (p / 2.0) * gamma(2.0 - p / 2.0)


def normalizers(p: float, d: int) -> NormalizerSet:
    """Constants K, kappa (0 < p < d) and beta (0 < p < 1) of the moment formulas.

    kappa = K * |S^(d-1)|, with |S^(d-1)| = 2 pi^(d/2) / Gamma(d/2).
    """
    _check_dim(d)
    if not 0.0 < p < d:
        raise DomainError(f"normalizers require 0 < p < d, got p={p}, d={d}")
    args = [(d - p) / 2.0, p / 2.0, d / 2.0] + ([(1.0 - p) / 2.0] if p < 1.0 else [])
    g_dp, g_p, g_d, *g_beta = gamma(np.array(args)).tolist()
    K = 2.0 ** (-p) * math.pi ** (-d / 2.0) * g_dp / g_p
    kappa = 2.0 ** (1.0 - p) * g_dp / (g_d * g_p)
    beta = None
    if g_beta:
        beta = math.sqrt(math.pi) * g_dp / (g_beta[0] * g_d)
    return NormalizerSet(K=K, kappa=kappa, beta=beta)


def D(p):
    """Ratio Gamma(3-p) / (Gamma(2-p/2)^2 Gamma(3-p/2)); D(2) = 1, pole at 3.  p may be an array."""
    if not np.all((2.0 <= p) & (p < 3.0)):
        raise DomainError(f"D requires 2 <= p < 3, got {p}")
    _check_pole(float(np.min(3.0 - p)), "D")
    return gamma(3.0 - p) / (gamma(2.0 - p / 2.0) ** 2 * gamma(3.0 - p / 2.0))


def best_constant_status(d: int, q: float) -> str:
    """Whether min(c_two, c_inf) is the proven best constant at (d, q).

    Returns "proven" on the ranges settled in the literature and "conjectural"
    on the ranges still open (e.g. -(d-1) < q < -(d-4) for d >= 5).
    """
    _check_dim(d)
    if q >= 2.0:
        return "proven"  # the constant is 1 there
    if d == 1:
        return "proven" if 0.0 < q < 2.0 else "conjectural"
    if d == 2:
        return "proven" if 0.0 <= q < 2.0 else "conjectural"
    if d == 3:
        return "proven" if -1.0 < q < 2.0 else "conjectural"
    if d == 4:
        return "proven" if -3.0 < q < 2.0 else "conjectural"
    return "proven" if -(d - 4.0) <= q < 2.0 else "conjectural"


def _check_dim(d) -> None:
    """Every entry of d (a scalar or an array) is a positive integer."""
    da = np.asarray(d)
    if not ((da >= 1) & (da == np.floor(da))).all():
        raise DomainError(f"dimension must be a positive integer, got {d}")


def _dq_arrays(d, q):
    """Validated (d, q) of c_two / c_inf as arrays, plus whether both were scalars."""
    da = np.asarray(d)
    _check_dim(da)
    qa, scalar = _as_array(q)
    if not np.all(np.isfinite(qa)):
        raise DomainError(f"q must be finite, got {q!r}")
    if np.any(qa == 0):
        raise DomainError("q = 0 is excluded")
    return da, qa, scalar and da.ndim == 0
