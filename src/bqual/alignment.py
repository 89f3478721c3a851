"""Maximum-alignment similarity between two transition (or pair) sets.

Two elements score the number of positions at which their flattened token
lists agree (pre-state values, label, post-state values; a pair has no
label).  Identical elements are always part of some maximum matching,
since a full-score pair can never be beaten by splitting it, so each
counts its full width and is not scored; the remainders go through an
exact rectangular assignment solve.  ``similarity`` returns the total,
an int, which PFComp and PFCorr read.

Both sides come on one integer coding (``lts.Coded``, which
``lts.code_relations`` builds from two relations), so the two sides share
value codes and identical elements are found as equal keys.  Each
remainder element becomes a row of codes in flattened order (the value
codes of its states around its label's code).  A weight is the number of
equal codes in two rows.  With n rows on the smaller side, only each row's
n best columns need to be kept: if an optimal matching gives a row a
dropped column, at most n - 1 of that row's n kept columns are taken by
other rows, so it can move to a free one without losing weight.  This
holds however ties are broken, so the rows may come in any order.  The
columns are scored in blocks of max(n, ``CHUNK_CELLS`` / n) columns: each
block's rows are built from its keys and scored into one preallocated
buffer after the kept columns, which are then pruned to the union of each
row's n best (at most min(m, n*n) of the m columns).  A weight is
an integer from 0 to the flattened width W, so a row's n best are found by
counting, not sorting: its threshold t is the largest v with at least n
columns of weight >= v, and it keeps the columns above t and the first
columns equal to t that make up n.  Working memory is thus about
n x (max(n, CHUNK_CELLS / n) + min(m, n*n)) cells (``CHUNK_CELLS`` plus
the kept columns while n <= 1024), and a lopsided pair costs vector work
linear in its n x m cells (about W passes of each block) and a solve of
at most n x n*n cells.  The size guard bounds that kept block: a pair is
refused when n x min(m, n*n) would pass the guard's square.  The solver
(``scipy.optimize``) is imported at the first solve, so a process that
aligns nothing never loads it.
"""

from __future__ import annotations

import numpy as np

from .lts import Coded

DEFAULT_SIZE_GUARD = 5_000
CHUNK_CELLS = 1 << 20


class AlignmentError(ValueError):
    pass


class AlignmentSizeError(AlignmentError):
    """The remainders' kept block would pass the square of the size guard."""


def _weights(left: np.ndarray, right: np.ndarray, out: np.ndarray) -> None:
    """Write the agreement of every left row with every right row to ``out``."""
    out[...] = 0
    # One contiguous run of codes per position, not a strided column.
    for codes, column in zip(left.T, np.ascontiguousarray(right.T)):
        out += codes[:, None] == column


def _best_columns(weights: np.ndarray, n: int, width: int) -> np.ndarray:
    """The union of each row's n best columns, for weights in 0..width and
    more than n columns: a row keeps the columns above its threshold t and
    the first columns equal to t that make up n (see the module docstring)."""
    threshold = np.full(len(weights), -1)
    at = np.zeros_like(threshold)  # columns of weight >= threshold
    above = np.zeros_like(threshold)  # columns of weight > threshold
    count = np.zeros_like(threshold)
    # From the top weight down, until every row has n columns at or above v.
    for v in range(width, -1, -1):
        higher, count = count, np.count_nonzero(weights >= v, axis=1)
        settled = (threshold < 0) & (count >= n)
        threshold[settled], at[settled], above[settled] = v, count[settled], higher[settled]
        if (threshold >= 0).all():
            break
    # A row with no surplus at its threshold keeps every column >= t.
    tied = at > n
    keep = (weights >= (threshold + tied)[:, None]).any(axis=0)
    for row in np.flatnonzero(tied):
        keep[np.flatnonzero(weights[row] == threshold[row])[: n - above[row]]] = True
    return np.flatnonzero(keep)


def _max_matching(left: Coded, left_keys: np.ndarray, right: Coded, right_keys: np.ndarray) -> int:
    """The total weight of a maximum-weight matching of the elements
    ``left_keys`` of ``left`` and ``right_keys`` of ``right``.  The larger
    side's rows are built a block at a time, and each block is scored into
    one buffer after the kept columns."""
    # Imported at first use: scipy.optimize adds to every start-up of the CLI.
    from scipy.optimize import linear_sum_assignment

    if len(left_keys) > len(right_keys):
        return _max_matching(right, right_keys, left, left_keys)
    rows = left.rows(left_keys)
    n, m = len(rows), len(right_keys)
    chunk = max(n, CHUNK_CELLS // n)
    buffer = np.empty((n, min(m, n * n) + min(m, chunk)), dtype=np.int32)
    kept = 0
    for start in range(0, m, chunk):
        block = right.rows(right_keys[start : start + chunk])
        end = kept + len(block)
        _weights(rows, block, buffer[:, kept:end])
        kept = end
        if kept > n:
            columns = _best_columns(buffer[:, :kept], n, rows.shape[1])
            buffer[:, : len(columns)] = buffer[:, columns]
            kept = len(columns)
    weights = buffer[:, :kept]
    picked_rows, picked = linear_sum_assignment(weights, maximize=True)
    return int(weights[picked_rows, picked].sum())


def similarity(
    left: Coded, right: Coded, *, size_guard: int = DEFAULT_SIZE_GUARD
) -> int:
    """The total agreement of a maximum-weight one-to-one partial matching
    of two sides on one coding (``lts.code_relations``; ``Coded.pairs`` for
    the label-erased pairs).  Raises AlignmentSizeError when the kept block
    of the remainders, n x min(m, n*n) cells for n rows on the smaller side
    and m on the larger, would pass ``size_guard`` squared; this holds
    whenever both remainders pass ``size_guard``.
    """
    identical = left.common(right)
    total = left.width * identical
    n_left, n_right = len(left) - identical, len(right) - identical
    if n_left and n_right:
        n, m = sorted((n_left, n_right))
        kept = n * min(m, n * n)
        if kept > size_guard * size_guard:
            if n > size_guard:
                reason = (
                    f"both remainders exceed the size guard "
                    f"({n_left} x {n_right} > {size_guard} each)"
                )
            else:
                reason = (
                    f"the remainders ({n_left} x {n_right}) would keep {kept} "
                    f"cells, more than the size guard squared ({size_guard}^2)"
                )
            raise AlignmentSizeError(
                f"{reason}; raise --similarity-threshold to force an exact solve"
            )
        total += _max_matching(left, left.remainder(right), right, right.remainder(left))
    return total
