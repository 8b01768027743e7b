import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

import fracwos
from fracwos.field import walk_starts
from fracwos.geometry import unit_ball
from fracwos.mesh import build_hierarchy, square_ball_base
from fracwos.problems import example1, example2, example3


# The directory holding the imported fracwos package. A child process gets it
# as an absolute PYTHONPATH entry, so it imports the same code as this process
# from any working directory, installed or run from src/.
PACKAGE_ROOT = str(Path(fracwos.__file__).resolve().parents[1])


def fresh_python(args, cwd=None, env_extra=None):
    """`python ARGS` in a fresh interpreter that imports this process's
    fracwos; returns the CompletedProcess, with text stdout and stderr."""
    env = dict(os.environ, **(env_extra or {}))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True)


def fresh_output(code):
    """The last stdout line of `python -c CODE` in a fresh interpreter; an
    exit status other than 0 fails the calling test with its stderr."""
    r = fresh_python(["-c", code])
    assert r.returncode == 0, r.stderr
    return r.stdout.strip().splitlines()[-1]


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


def assembled_mass(level, mask):
    """The P1 mass matrix over the triangles that `mask` selects, assembled
    as a CSR matrix from the local matrices |T|/12 [[2,1,1],[1,2,1],[1,1,2]]:
    the reference for the element form that fracwos.field reads."""
    tris = level.triangles[mask]
    local = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    data = (level.areas()[mask][:, None, None] * local).ravel()
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    n = level.num_vertices
    return sparse.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
