"""Dense exact linear algebra over Fractions: rank and solve."""

from __future__ import annotations

from fractions import Fraction

_ZERO = Fraction(0)


def identity(n):
    return [[Fraction(1) if i == j else _ZERO for j in range(n)] for i in range(n)]


def _eliminate(matrix, rhs):
    """Fraction-exact Gauss-Jordan elimination of ``[A | rhs]``.

    Returns the reduced augmented rows and the pivot columns of ``A``.
    """
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    pivot_cols = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        prow = aug[r]
        inv = Fraction(1) / prow[c]
        aug[r] = prow = [x * inv for x in prow]
        for i in range(m):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], prow)]
        pivot_cols.append(c)
        r += 1
        if r == m:
            break
    return aug, pivot_cols


def rank(matrix) -> int:
    """Rank: the number of pivot columns of the exact elimination."""
    return len(_eliminate(matrix, [_ZERO] * len(matrix))[1])


def solve_exact(matrix, rhs):
    """One exact solution of A x = rhs (A may be rectangular), or None.

    Free variables are set to zero; returns None when the system is
    inconsistent.
    """
    n = len(matrix[0]) if matrix else 0
    aug, pivot_cols = _eliminate(matrix, rhs)
    r = len(pivot_cols)
    for i in range(r, len(aug)):
        if aug[i][n] != 0:
            return None
    x = [_ZERO] * n
    for i, c in enumerate(pivot_cols):
        x[c] = aug[i][n]
    return x
