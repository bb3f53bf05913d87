"""Reference oracles for the approximating field: the sheet values on
the M x M cells, the kernel field

    Theta[i, j] = n K sqrt(x_i y_j) f(L(x_i, y_j))

elementwise from the sheet values on the M x M cells, and the literal
midpoint sum

    X_n(s_k, t_l) = sum_i sum_j A[k, i] Theta[i, j] B[l, j]

one term at a time, against which the library's two dense matrix products
are checked."""
import numpy as np

from sheetforge import quadrature_rows
from sheetforge.theta import _jump_values


def sheet_field(sheet) -> np.ndarray:
    """The sheet values L on the M x M cells: h N for a count sheet (+0.0
    where N = 0), the float blocks otherwise."""
    per_block = sheet.blocks
    if per_block.dtype == np.int64:
        per_block = _jump_values(sheet.model.jump_dist.h, per_block)
    return sheet.on_cells(per_block)


def reference_wave(spec, sheet_values) -> np.ndarray:
    """The elementwise transform f of every sheet value: (-1)^L for the
    parity kernel (unit jumps, so L is an integer count), else cos or
    sin(angle L)."""
    if spec.kind == "KacStroock":
        return 1.0 - 2.0 * np.mod(sheet_values, 2.0)
    phase = spec.angle * sheet_values
    return np.cos(phase) if spec.kind == "LevyCos" else np.sin(phase)


def reference_theta(spec, sheet_values, lattice) -> np.ndarray:
    """The full kernel field n K sqrt(xy) f(L), with the envelope built per
    call."""
    x = lattice.midpoints()
    root_xy = np.sqrt(np.outer(x, x))
    return spec.n * spec.normalizer() * root_xy * reference_wave(spec, sheet_values)


def triple_loop_field(theta, k1, k2, grid) -> np.ndarray:
    """X_n on the grid from the same quadrature rows as build_approximation,
    summed by explicit loops over the M x M midpoint field theta."""
    m = theta.shape[0]
    a = quadrature_rows(k1, m, grid.s_points)
    b = quadrature_rows(k2, m, grid.t_points)
    x = np.empty((len(grid.s_points), len(grid.t_points)))
    for k in range(len(grid.s_points)):
        for l in range(len(grid.t_points)):
            acc = 0.0
            for i in range(m):
                for j in range(m):
                    acc += a[k, i] * theta[i, j] * b[l, j]
            x[k, l] = acc
    return x
