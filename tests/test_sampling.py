import random

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



def test_first_general_triangle_of_random_seed_0_is_pinned():
    # verify draws from random.Random(seed); the same sampler reads either
    # generator through uniform(low, high)
    tri = random_general_triangle(random.Random(0))
    assert (tri.v1, tri.v2, tri.v3) == (
        (6.888437030500963, 5.159088058806049),
        (-1.5885683833831, -4.821664994140733),
        (0.22549442737217085, -1.9013172509917133),
    )
