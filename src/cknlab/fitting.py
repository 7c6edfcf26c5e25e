"""Least-squares log-log slopes: growth laws, and convergence orders (error against h)."""

from __future__ import annotations

import numpy as np


def fit_loglog(x, y) -> float:
    """Slope of log|y| against log x (least squares)."""
    x = np.asarray(x, dtype=float)
    y = np.abs(np.asarray(y, dtype=float))
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("fit_loglog needs positive abscissae and nonzero values")
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])
