import numpy as np

from spadsim import STREAM_IDS, make_generator


def test_named_and_numbered_streams_agree():
    a = make_generator(7, "source").random(8)
    b = make_generator(7, STREAM_IDS["source"]).random(8)
    assert np.array_equal(a, b)


def test_streams_are_reproducible_and_independent():
    assert np.array_equal(make_generator(3, 1).random(16), make_generator(3, 1).random(16))
    assert not np.array_equal(make_generator(3, 1).random(16), make_generator(3, 2).random(16))
    assert not np.array_equal(make_generator(3, 1).random(16), make_generator(4, 1).random(16))
