import numpy as np
import pytest

from vancal.coords import squared_norms


@pytest.mark.parametrize("width", range(13))
@pytest.mark.parametrize("shape", [(2_000,), (40, 50)])
def test_squared_norms_are_bit_identical_to_linalg_norm(width, shape):
    rng = np.random.default_rng(width)
    rows = rng.standard_normal((*shape, width)) * rng.uniform(1e-3, 1e3, size=(*shape, width))
    norms = squared_norms(rows)
    assert norms.shape == shape
    assert np.array_equal(np.sqrt(norms), np.linalg.norm(rows, axis=-1))
    assert np.array_equal(norms, np.add.reduce(rows * rows, axis=-1))


@pytest.mark.parametrize("width", range(1, 8))
def test_squared_norms_of_one_row_match_the_reduction(width):
    row = np.random.default_rng(width).standard_normal(width) * 1e3
    assert squared_norms(row) == np.add.reduce(row * row)
