import numpy as np

from tripowmin.sampling import random_general_triangle


def test_first_general_triangle_of_seed_0_is_pinned():
    # verify's trials and the randomized tests draw their triangles from
    # this stream; a change to the sampler would silently change them all
    tri = random_general_triangle(np.random.default_rng(0))
    assert np.asarray((tri.v1, tri.v2, tri.v3)).tolist() == [
        [2.739233746429086, -4.604265724722594],
        [-9.180529521276107, -9.669447289429417],
        [6.265404784005447, 8.255111545554435],
    ]

