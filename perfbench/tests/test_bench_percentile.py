import pytest

import run


def test_p90_needs_one_hundred_samples():
    with pytest.raises(ValueError):
        run.percentile(list(range(99)), 90)
    assert run.percentile(list(range(100)), 90) == 89


def test_p50_needs_twenty_samples():
    with pytest.raises(ValueError):
        run.percentile(list(range(19)), 50)
    assert run.percentile([3.0, 1.0, 2.0] * 7, 50) == 2.0
