"""Expected-embedding coupling between the translator and the classifier.

Each per-step vocabulary distribution p is turned into a convex combination of
the classifier's embedding rows, p @ E, so the classifier can consume the
translation without an argmax and gradients flow both into p (hence the
translator) and into E.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor

SIMPLEX_TOL = 1e-9


def _check_simplex(p: np.ndarray):
    sums = p.sum(axis=-1)
    # written so that NaN, for which every comparison is False, fails
    if not (np.all(np.abs(sums - 1.0) <= SIMPLEX_TOL) and np.all(p >= -SIMPLEX_TOL)):
        raise ValueError(
            f"distribution is off the probability simplex beyond {SIMPLEX_TOL:g} "
            f"(sum range [{sums.min():.12f}, {sums.max():.12f}], min entry {p.min():.3g})"
        )


def expected_embedding(p: Tensor, emb_matrix: Tensor) -> Tensor:
    """p (..., V), each row on the simplex, emb_matrix (V, d) -> p @ E, exactly."""
    if p.data.shape[-1] != emb_matrix.data.shape[0]:
        raise ShapeError(
            f"expected_embedding: distribution {p.data.shape} does not match "
            f"embedding matrix {emb_matrix.data.shape}"
        )
    _check_simplex(p.data)
    if p.data.ndim == 1:  # one distribution: matmul takes it as a one-row batch
        return ad.reshape(ad.matmul(ad.reshape(p, (1, -1)), emb_matrix), (-1,))
    return ad.matmul(p, emb_matrix)
