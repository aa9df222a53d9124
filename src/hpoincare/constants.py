"""The sharp constants in closed form, and the package's two error types.

This module imports the standard library alone, so `hpoincare constant`
starts without numpy. `numerics` and `variational` re-export every name
defined here.
"""

from __future__ import annotations

import math


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class QuadratureError(RuntimeError):
    """Quadrature failed to converge; carries the best estimate found."""

    def __init__(self, message, estimate=None, error_bound=None):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


def sharp_constant(n: int, m: int, p: float) -> float:
    """Best constant in the m-th order L^p Poincare inequality on
    hyperbolic n-space.

    Even m = 2k: (p * p' / (n-1)^2)^k with p' = p/(p-1).
    Odd m = 2k+1: (p / (n-1)) * (p * p' / (n-1)^2)^k.
    """
    if not math.isfinite(n) or n < 2 or int(n) != n:
        raise DomainError("dimension n must be an integer >= 2")
    if not math.isfinite(m) or m < 1 or int(m) != m:
        raise DomainError("derivative order m must be an integer >= 1")
    if not 1 < p < math.inf:
        raise DomainError(f"exponent p must be finite and exceed 1, not {p}")
    pc = p / (p - 1.0)
    base = p * pc / (n - 1.0) ** 2
    if m % 2 == 0:
        return base ** (m // 2)
    return (p / (n - 1.0)) * base ** ((m - 1) // 2)


def gradient_laplacian_constant(n: int, p: float) -> float:
    """Constant for the intermediate gradient-vs-Laplacian bound
    ||grad u||_p <= K ||Delta u||_p on hyperbolic n-space:
    K = max(p, p') / (n-1) with p' = p/(p-1).

    The one-sided constant p/(n-1) is not enough for p < 2: radial
    functions u = (1 + a rho) e^{-a rho} with a just above (n-1)/p push
    the quotient arbitrarily close to p'/(n-1) (numerically: n = 2,
    p = 3/2, a = 0.8 already gives a quotient of about 2.8 > p/(n-1)).
    Taking the larger of the two conjugate exponents covers both regimes.
    """
    sharp_constant(n, 1, p)  # validates the arguments
    return max(p, p / (p - 1.0)) / (n - 1.0)
