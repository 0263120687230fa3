"""Session-scoped trained models shared across test modules.

Training configs here are the frozen desk-scale operating points; tests
assert against these exact fixtures, so changing them means recalibrating
the thresholds in the affected tests.
"""

import numpy as np
import pytest

from eraselab import diffusion as df
from eraselab import nnet
from eraselab import toyworld as tw

import oracles

BETA_END = 0.04
T_TRAIN = 100
T_SAMPLE = 35


@pytest.fixture(scope="session")
def sched():
    return df.make_linear_schedule(T_TRAIN, 1e-4, BETA_END)


@pytest.fixture(scope="session")
def sampler():
    return df.SamplerConfig.uniform(T_SAMPLE, T_TRAIN)


@pytest.fixture(scope="session")
def points_world():
    vocab, spec = tw.default_points_vocab()
    dataset = tw.gen_points2d(spec, 500, seed=0)
    return vocab, spec, dataset


@pytest.fixture(scope="session")
def points_base(points_world, sched):
    _, _, dataset = points_world
    shape = nnet.NetworkShape(input_dim=2, hidden=oracles.POINTS_HIDDEN)
    return df.train_base(dataset, shape, sched, steps=8000, p_uncond=0.1,
                         seed=1, lr=1e-3, batch_size=64, loss_log=[])


@pytest.fixture(scope="session")
def gauss1_world():
    spec = tw.PointMixtureSpec(means=((0.0, 0.0),), sigma=0.1)
    dataset = tw.gen_points2d(spec, 2000, seed=0)
    return spec, dataset


@pytest.fixture(scope="session")
def gauss1_base(gauss1_world, sched):
    _, dataset = gauss1_world
    shape = nnet.NetworkShape(input_dim=2, hidden=oracles.POINTS_HIDDEN)
    return df.train_base(dataset, shape, sched, steps=2000, p_uncond=0.1,
                         seed=2, lr=1e-3, batch_size=64, loss_log=[])


@pytest.fixture(scope="session")
def uncond_base(points_world, sched):
    """Model trained with p_uncond=1: labels never seen."""
    _, _, dataset = points_world
    shape = nnet.NetworkShape(input_dim=2, hidden=oracles.POINTS_HIDDEN)
    return df.train_base(dataset, shape, sched, steps=800, p_uncond=1.0,
                         seed=3, lr=1e-3, batch_size=64, loss_log=[])


@pytest.fixture(scope="session")
def glyphs_world():
    vocab, spec = tw.default_glyph_vocab()
    dataset = tw.gen_glyphs(spec, 200, seed=0)
    return vocab, spec, dataset


@pytest.fixture(scope="session")
def glyphs_base(glyphs_world, sched):
    _, _, dataset = glyphs_world
    shape = nnet.NetworkShape(input_dim=256, hidden=(1024,))
    return df.train_base(dataset, shape, sched, steps=12000, p_uncond=0.1,
                         seed=1, lr=1e-3, batch_size=128, loss_log=[])
