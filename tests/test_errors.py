"""The errors that name a failing sample of a batch."""

import pytest

from cyglue.errors import (CyglueError, Degenerate, DomainEscape, NotPositive,
                           NotStable)


@pytest.mark.parametrize("error", [NotStable, NotPositive, Degenerate,
                                   DomainEscape])
def test_sample_errors_keep_their_index(error):
    err = error("at a sample", sample_index=[3, 1])
    assert isinstance(err, CyglueError)
    assert err.sample_index == [3, 1]
    assert str(err) == "at a sample"
    assert error("anywhere").sample_index is None
    with pytest.raises(CyglueError):
        raise err
