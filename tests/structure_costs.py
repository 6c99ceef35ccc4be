"""The dense structure costs of the transport problem, a reference for the
closed-form structure operator that the solver applies instead."""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from saliseg.errors import DataError


def build_structure_costs(
    n_frames: int, n_anchors: int
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Dense normalized index-distance frame cost and 0/1 anchor-disagreement cost.

    The reference definition; the solver applies these costs in closed form.
    """
    if n_frames < 1 or n_anchors < 1:
        raise DataError("need at least one frame and one anchor")
    idx = np.arange(n_frames, dtype=np.float64)
    c_v = np.abs(idx[:, None] - idx[None, :]) / max(n_frames - 1, 1)
    c_a = 1.0 - np.eye(n_anchors)
    return c_v, c_a
