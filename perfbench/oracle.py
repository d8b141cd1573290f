"""Independent high-precision oracle for the growth rate lambda_n.

Multiplying the closed-form polynomial by (x - 1) gives the four-term form

    (x - 1) q(x) = x^(n+1) - (2n-1) x^n + (2n-1) x - 1,

so with b = 2n - 1 and lambda = b - delta the root satisfies
delta * lambda^n = b * lambda - 1.  The oracle solves that equation for
delta with mpmath at a working precision that grows with n (delta is about
b^(2-n), so a fixed precision runs out of digits: 60 digits already fail at
n = 13), then certifies the root by the signs of the four-term form just
above and just below it.  Nothing here uses the `volentropy` package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

# lambda_n and the gap log(2n-1) - entropy as printed in README.md (n = 3..8),
# to 10 decimals and 4 significant digits; the oracle must reproduce them.
README_TABLE = {
    3: ("4.7912878475", "4.264e-02"),
    4: ("6.9798357792", "2.885e-03"),
    5: ("8.9986443790", "1.506e-04"),
    6: ("10.9999322610", "6.158e-06"),
    7: ("12.9999973226", "2.060e-07"),
    8: ("14.9999999126", "5.827e-09"),
}


@dataclass(frozen=True)
class Truth:
    """Oracle values for one rank, as mpmath numbers at `dps` digits."""

    n: int
    dps: int
    delta: mpmath.mpf
    lam: mpmath.mpf
    entropy: mpmath.mpf
    gap: mpmath.mpf
    lower: Fraction | None  # the strict lower bound 2n-1 - (2n-1)^-(n-2), n >= 4
    upper: int


def _four_term(x, n: int, b: int):
    return x ** (n + 1) - b * x**n + b * x - 1


def truth(n: int) -> Truth:
    """Certified oracle values for rank n >= 3."""
    if n < 3:
        raise ValueError(f"the oracle needs n >= 3, got {n}")
    b = 2 * n - 1
    dps = 40 + math.ceil((n + 1) * math.log10(b))
    with mpmath.workdps(dps):
        start = mpmath.mpf(b * b - 1) / mpmath.mpf(b) ** n
        delta = mpmath.findroot(lambda d: d * (b - d) ** n - (b * (b - d) - 1), start)
        eps = mpmath.mpf(10) ** -20
        above = _four_term(b - delta * (1 - eps), n, b)
        below = _four_term(b - delta * (1 + eps), n, b)
        if not (delta > 0 and below < 0 < above):
            raise ArithmeticError(f"oracle root for n={n} is not certified")
        lam = b - delta
        gap = -mpmath.log1p(-delta / b)
        entropy = mpmath.log(b) - gap
        lower = Fraction(b) - Fraction(1, b ** (n - 2)) if n >= 4 else None
        if lower is not None and not (mpmath.mpf(lower.numerator) / lower.denominator < lam):
            raise ArithmeticError(f"oracle root for n={n} violates the lower bound")
    return Truth(n, dps, +delta, +lam, +entropy, +gap, lower, b)


def check_against_readme() -> None:
    """Raise unless the oracle reproduces the README table for n = 3..8."""
    for n, (lam_text, gap_text) in README_TABLE.items():
        t = truth(n)
        with mpmath.workdps(t.dps):
            if abs(t.lam - mpmath.mpf(lam_text)) > mpmath.mpf("5.1e-11"):
                raise ArithmeticError(f"oracle lambda_{n} = {t.lam} != README {lam_text}")
            if abs(t.gap - mpmath.mpf(gap_text)) > mpmath.mpf("5.1e-4") * t.gap:
                raise ArithmeticError(f"oracle gap_{n} = {t.gap} != README {gap_text}")
