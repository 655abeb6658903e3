"""Lambert W (product log) on the non-negative reals, plus the derived
parameters tau = sqrt(log n / W(log n)) and beta = tau^(tau^2) used by the
staged sublinear cop strategy.

The iteration runs on stdlib ``decimal`` at 40 digits: near x = 1e6 the
residual w*e^w - x of even a correctly rounded float64 result is around
1e-9, so a 1e-12 residual guarantee is only meaningful in extended precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext

_PRECISION = Context(prec=40)


def lambert_w(x) -> Decimal:
    """W(x) for x >= 0: the unique w >= 0 with w * e^w = x.

    Halley iteration (Corless et al., "On the Lambert W function", 1996)
    from a log-based initial guess, carried out at 40 decimal digits; the
    result satisfies |w*e^w - x| <= 1e-12 comfortably for x up to 1e6 and
    beyond.  ``x`` may be an int, float, str or Decimal.
    """
    with localcontext(_PRECISION) as ctx:
        xv = ctx.create_decimal(x)
        if xv < 0:
            raise ValueError("lambert_w is only defined for x >= 0 here")
        if xv > Decimal(1).exp():
            lx = xv.ln()
            w = lx - lx.ln()
        else:
            w = (1 + xv).ln()
        for _ in range(200):
            ew = w.exp()
            f = w * ew - xv
            # Halley: dw = f / (f' - f*f''/(2 f')), f' = e^w (1+w), f'' = e^w (2+w)
            fp = ew * (1 + w)
            dw = f / (fp - f * (w + 2) / (2 * (1 + w)))
            w = w - dw
            if abs(dw) <= Decimal("1e-35") * max(1, abs(w)):
                break
        else:
            raise ArithmeticError(f"lambert_w failed to converge for x={x}")
        return w


@dataclass(frozen=True)
class LambertParams:
    """tau and beta for a graph order n (natural logarithm throughout)."""

    n: int
    tau: float
    beta: float

    @classmethod
    def for_order(cls, n: int) -> "LambertParams":
        """With W = W(ln n), W e^W = ln n gives tau^2 = ln n / W = e^W, so
        tau = e^(W/2) and beta = tau^(tau^2) = e^(W/2 * ln n / W) = sqrt(n)."""
        if n < 2:
            raise ValueError("parameters need n >= 2 (log n must be positive)")
        with localcontext(_PRECISION):
            tau = (lambert_w(Decimal(n).ln()) / 2).exp()
        return cls(n, float(tau), math.sqrt(n))
