"""Least-squares log-log fits for growth laws and convergence orders."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LogLogFit:
    slope: float
    intercept: float
    max_residual: float  # max |log y - fit| over the sample


def fit_loglog(x, y) -> LogLogFit:
    """Slope of log|y| against log x (least squares)."""
    x = np.asarray(x, dtype=float)
    y = np.abs(np.asarray(y, dtype=float))
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("fit_loglog needs positive abscissae and nonzero values")
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    return LogLogFit(float(slope), float(intercept), float(np.max(np.abs(resid))))


def fitted_order(h_values, errors) -> float:
    """Convergence order: slope of log(error) against log(h)."""
    return fit_loglog(h_values, errors).slope
