"""Reference oracle for the covariance and independence reductions: the
two-pass estimator over the tensor of per-replicate products

    prods[r, i, j] = a[r, i] * b[r, j]      (einsum "ri,rj->rij")

summed along the replicate axis, with the standard error
prods.std(axis=0, ddof=1) / sqrt(R) from a second pass over the centred
products. The tensor is built one i at a time, an (R, Q) slice each, so the
oracle runs at R = 2000, P = 144 without the 332 MiB the full tensor takes;
every entry is still reduced over r on its own. The library reaches the
same numbers from two GEMMs."""
import math

import numpy as np


def _reduce(a, b):
    """Per-entry sums and standard errors of the products a[:, i] * b[:, j]."""
    r = a.shape[0]
    sums = np.empty((a.shape[1], b.shape[1]))
    se = np.empty_like(sums)
    for i in range(a.shape[1]):
        prods = np.einsum("r,rj->rj", a[:, i], b)
        sums[i] = prods.sum(axis=0)
        se[i] = prods.std(axis=0, ddof=1) / math.sqrt(r)
    return sums, se


def reference_covariance(values, zero_mean):
    """(empirical, std_errors) of empirical_covariance: the mean of the raw
    products under zero_mean, else the sum of the centred products over R - 1."""
    values = np.asarray(values, dtype=float)
    r = values.shape[0]
    centered = values if zero_mean else values - values.mean(axis=0)
    sums, se = _reduce(centered, centered)
    return sums / (r if zero_mean else r - 1), se


def reference_cross_covariance(a, b):
    """(cross_covariance, std_errors) of independence_probe on value arrays."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    sums, se = _reduce(a - a.mean(axis=0), b - b.mean(axis=0))
    return sums / (a.shape[0] - 1), se
