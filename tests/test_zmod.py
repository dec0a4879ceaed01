import pytest

from qcgirth.zmod import Permutation


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))
    with pytest.raises(ValueError):
        Permutation((1, 2, 3))
    assert Permutation((2, 0, 1))(0) == 2
