"""Property tests of the projection onto box and voltage band.

Random sets: a box cut by a few band rows around an interior point, some
one-sided, some repeated or scaled copies of another row (the shape of the
feeder's generator rows).  Needs hypothesis; skipped without it.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from usecb.feasible import FeasibleSet  # noqa: E402


@st.composite
def banded_sets(draw):
    n = draw(st.integers(2, 6))
    m = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.normal(size=(m, n))
    if draw(st.booleans()):
        A = np.vstack([A, A[0] * draw(st.sampled_from([1.0, 2.0, -0.5]))])
    inner = rng.uniform(0.2, 0.8, n)
    center = A @ inner
    half = rng.uniform(0.02, 0.5, A.shape[0])
    lo, hi = center - half, center + half
    if draw(st.booleans()):
        lo[0] = -np.inf
    fs = FeasibleSet(p_min=np.zeros(n), p_max=np.ones(n), A_volt=A,
                     offset=np.zeros(A.shape[0]), v_min=lo, v_max=hi)
    points = rng.normal(0.5, 1.5, size=(2, n))
    return fs, points[0], points[1]


@settings(max_examples=150, deadline=None)
@given(banded_sets())
def test_projection_member_idempotent_nonexpansive(case):
    fs, x, z = case
    px, pz = fs.project(x), fs.project(z)
    assert fs.contains(px) and fs.contains(pz)
    assert np.linalg.norm(fs.project(px) - px) <= 1e-8
    assert np.linalg.norm(px - pz) <= np.linalg.norm(x - z) + 1e-8
