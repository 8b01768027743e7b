import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

import fracwos
from fracwos import assumptions
from fracwos.field import walk_starts
from fracwos.geometry import _norm, unit_ball
from fracwos.mesh import build_hierarchy, square_ball_base
from fracwos.problems import example1, example2, example3
from fracwos.streams import batch_generator, unit_vectors


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


def unblocked_estimate(cfg, label, batches):
    """`assumptions._estimate` with each closure on the batch's whole jump,
    as it ran before it went in blocks: the reference for the blocked loop.
    It draws through the module's `johnk_beta_rng`, as the checks do."""
    rng = batch_generator(cfg.seed, label)
    n = cfg.samples_M
    tot = np.zeros(len(batches))
    tot_sq = np.zeros(len(batches))
    for done in range(0, n, assumptions._BATCH):
        size = min(assumptions._BATCH, n - done)
        beta = assumptions.johnk_beta_rng(cfg.alpha, rng, size)
        theta = unit_vectors(rng.random(size))
        jump = np.divide(theta.T, np.sqrt(beta), out=np.empty((2, size)))
        for j, batch in enumerate(batches):
            vals = batch(jump)
            tot[j] += vals.sum()
            tot_sq[j] += (vals * vals).sum()
    mean = tot / n
    var = np.maximum((tot_sq - n * mean * mean) / (n - 1), 0.0)
    return list(zip(mean.tolist(), np.sqrt(var / n).tolist()))


def unblocked_I2(cfg, pairs):
    """`check_I2(cfg, pairs).per_start` as the unblocked closure with
    np.where formed it: the reference for the blocked check."""
    expo = cfg.mu * cfg.alpha
    batches = []
    for x0, y0 in np.asarray(pairs, dtype=np.float64):
        r0 = float(np.hypot(*(x0 - y0)))
        d0x, d0y = (float(cfg.domain.distance(p)) for p in (x0, y0))

        def batch(jump, x0=x0[:, None], y0=y0[:, None], r0=r0, d0x=d0x,
                  d0y=d0y):
            x1 = d0x * jump
            x1 += x0
            y1 = d0y * jump
            y1 += y0
            both = np.asarray(cfg.domain._contains(x1.T)) \
                & np.asarray(cfg.domain._contains(y1.T))
            x1 -= y1
            r1 = _norm(x1.T)
            return np.where(both, (r1 / r0) ** expo, 0.0)

        batches.append(batch)
    return unblocked_estimate(cfg, assumptions._LABEL_I2, batches)


def unblocked_I1(cfg, starts):
    """`check_I1(cfg, starts).per_start` as the unblocked closure formed it:
    the reference for the blocked check."""
    batches = []
    for x0 in np.asarray(starts, dtype=np.float64):
        d0 = float(cfg.domain.distance(x0))

        def batch(jump, x0=x0[:, None], d0=d0,
                  phi0=max(cfg.A, d0 ** -cfg.t)):
            x1 = d0 * jump
            x1 += x0
            d1 = cfg.domain._distance(x1.T)
            inside = d1 > 0.0
            vals = np.zeros(d1.size)
            vals[inside] = np.maximum(cfg.A, d1[inside] ** -cfg.t) / phi0
            return vals

        batches.append(batch)
    return unblocked_estimate(cfg, assumptions._LABEL_I1, batches)
