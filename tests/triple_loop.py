"""Reference oracle for the approximating field: the literal midpoint sum

    X_n(s_k, t_l) = sum_i sum_j A[k, i] Theta[i, j] B[l, j]

one term at a time, against which the library's two dense matrix products
are checked."""
import numpy as np

from sheetforge import quadrature_rows


def triple_loop_field(theta, k1, k2, grid) -> np.ndarray:
    """X_n on the grid from the same quadrature rows as build_approximation,
    summed by explicit loops over the lattice."""
    vals = theta.values
    m = theta.lattice.m
    a = quadrature_rows(k1, m, grid.s_points)
    b = quadrature_rows(k2, m, grid.t_points)
    x = np.empty((len(grid.s_points), len(grid.t_points)))
    for k in range(len(grid.s_points)):
        for l in range(len(grid.t_points)):
            acc = 0.0
            for i in range(m):
                for j in range(m):
                    acc += a[k, i] * vals[i, j] * b[l, j]
            x[k, l] = acc
    return x
