"""Shared builders for randomized test suites."""

import functools
import itertools
import random

from wittcurve import (
    BrauerClass,
    CurveConfig,
    DiagonalForm,
    Generator,
    enumerate_generators,
    enumerate_pic,
    minus_one_class,
    quaternion_norm_form,
    symbol,
)


@functools.lru_cache(maxsize=None)
def generator_alphabet(cfg: CurveConfig) -> tuple[Generator, ...]:
    return tuple(enumerate_generators(cfg))


def random_form(
    rng: random.Random, cfg: CurveConfig, max_rank: int = 8, min_rank: int = 0
) -> DiagonalForm:
    gens = generator_alphabet(cfg)
    length = rng.randint(min_rank, max_rank)
    return DiagonalForm(cfg, tuple(rng.choice(gens) for _ in range(length)))


def random_generator(rng: random.Random, cfg: CurveConfig) -> Generator:
    return rng.choice(generator_alphabet(cfg))


def hyperbolic_pair(cfg: CurveConfig, g: Generator) -> DiagonalForm:
    """The Witt-trivial form <g, -g>."""
    m = minus_one_class(cfg)
    return DiagonalForm(cfg, (g, Generator(g.unit ^ m, g.pi_exp, g.line)))


def random_ideal_square_form(rng: random.Random, cfg: CurveConfig) -> DiagonalForm:
    """Random form with even rank and trivial signed discriminant.

    Built as a norm form plus an optional hyperbolic pair, both of which lie
    in the square of the fundamental ideal.
    """
    unit = rng.randint(0, 1)
    line = rng.choice(enumerate_pic(cfg))
    form = quaternion_norm_form(cfg, unit, line)
    if rng.random() < 0.5:
        form = form + hyperbolic_pair(cfg, random_generator(rng, cfg))
    return form


def pairwise_hasse_sum(form: DiagonalForm) -> BrauerClass:
    """Reference Hasse invariant: the symbol of every pair of entries, summed."""
    cfg = form.config
    total = BrauerClass.identity(cfg.picard_rank)
    for a, b in itertools.combinations(form.entries, 2):
        total = total + symbol(cfg, a, b)
    return total
