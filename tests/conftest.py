import numpy as np
import pytest

from fracwos.field import walk_starts
from fracwos.geometry import unit_ball
from fracwos.mesh import build_hierarchy, square_ball_base
from fracwos.problems import example1, example2, example3


@pytest.fixture(scope="session")
def ball():
    return unit_ball()


@pytest.fixture(scope="session")
def hier6(ball):
    """Standard hierarchy on [-1,1]^2 up to level 6, unit-ball domain."""
    return build_hierarchy(square_ball_base(ball), 6, domain=ball)


@pytest.fixture(scope="session")
def ex1():
    return example1(1.0)


@pytest.fixture(scope="session")
def ex2():
    return example2(1.0)


@pytest.fixture(scope="session")
def ex3():
    return example3(1.0)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


def tiled_walk(starts, problem, keys):
    """`walk_starts` with every key walking all (V, 2) `starts`: returns
    (values (K, V), total steps, steps per walk (K, V))."""
    keys = np.atleast_1d(keys)
    values, total, steps = walk_starts([starts] * keys.size, problem, keys)
    return values.reshape(keys.size, -1), total, steps.reshape(keys.size, -1)
