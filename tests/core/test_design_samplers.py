"""Design samplers as ask/tell algorithms: random, lhs, sobol and grid.

These are the space-filling designs a parallel calibration runs by name
(``AsyncCalibrator(..., algorithm="lhs")``); the tests check the design
properties each one promises, through the same ask/tell protocol every
driver uses.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ALGORITHMS, AsyncCalibrator, EvaluationBudget, Parameter, ParameterSpace
from repro.core.algorithms import (
    GridSearch,
    LatinHypercubeSearch,
    RandomSearch,
    SobolSearch,
    get_algorithm,
)

SAMPLERS = ["random", "lhs", "sobol", "grid"]


def make_space(dimension):
    return ParameterSpace([Parameter(f"p{i}", 2.0**10, 2.0**30) for i in range(dimension)])


def draw(name, dimension, n, seed=0, **options):
    """The first ``n`` candidates of a sampler, as an (n, dimension) array.

    Ordered samplers (grid) stop asking at a generation boundary until the
    generation is told, so every asked chunk is told before asking on.
    """
    algorithm = get_algorithm(name, **options)
    algorithm.setup(make_space(dimension))
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        asked = algorithm.ask(rng, n - len(out))
        assert asked, f"{name} ran dry after {len(out)} candidates"
        algorithm.tell(asked, [0.0] * len(asked))
        out.extend(asked)
    return np.array(out)


def strata(column, n):
    return sorted(np.clip(np.floor(column * n).astype(int), 0, n - 1))


class TestRegistry:
    def test_design_samplers_are_registered(self):
        assert set(SAMPLERS) <= set(ALGORITHMS)
        assert isinstance(get_algorithm("random"), RandomSearch)
        assert isinstance(get_algorithm("lhs"), LatinHypercubeSearch)
        assert isinstance(get_algorithm("sobol"), SobolSearch)
        assert isinstance(get_algorithm("grid"), GridSearch)

    def test_get_algorithm_is_case_insensitive(self):
        assert isinstance(get_algorithm("LHS"), LatinHypercubeSearch)
        assert isinstance(get_algorithm("Sobol"), SobolSearch)

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="dragonfly"):
            get_algorithm("dragonfly")


class TestShapeAndBounds:
    @pytest.mark.parametrize("name", SAMPLERS)
    def test_candidates_lie_in_the_unit_cube(self, name):
        design = draw(name, 4, 33)
        assert design.shape == (33, 4)
        assert np.all(design >= 0.0) and np.all(design <= 1.0)

    @pytest.mark.parametrize("name", SAMPLERS)
    def test_ask_needs_a_positive_count(self, name):
        algorithm = get_algorithm(name)
        algorithm.setup(make_space(2))
        with pytest.raises(ValueError, match="n >= 1"):
            algorithm.ask(np.random.default_rng(0), 0)

    @pytest.mark.parametrize("name", ["lhs", "sobol"])
    def test_empty_generation_is_rejected(self, name):
        with pytest.raises(ValueError, match="batch size"):
            get_algorithm(name, batch_size=0)


class TestLatinHypercube:
    def test_one_generation_is_stratified(self):
        """A Latin hypercube of n points places exactly one point in each
        of the n equal-width strata of every dimension."""
        n = 16
        design = draw("lhs", 3, n, seed=42, batch_size=n)
        for dim in range(3):
            assert strata(design[:, dim], n) == list(range(n))

    @given(dimension=st.integers(1, 5), n=st.integers(2, 40), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_every_generation_is_stratified(self, dimension, n, seed):
        design = draw("lhs", dimension, n, seed=seed, batch_size=n)
        assert design.shape == (n, dimension)
        for dim in range(dimension):
            assert strata(design[:, dim], n) == list(range(n))


class TestSobol:
    def test_points_do_not_collapse(self):
        """The scrambled sequence keeps its points apart: the minimum
        pairwise distance of one block exceeds a loose threshold."""
        design = draw("sobol", 2, 32, seed=7, batch_size=32)
        distances = [
            np.linalg.norm(design[i] - design[j])
            for i in range(len(design))
            for j in range(i + 1, len(design))
        ]
        assert min(distances) > 1e-3

    def test_a_power_of_two_block_is_stratified_in_every_dimension(self):
        """Each one-dimensional projection of a 2^m-point block is a net:
        one point in every interval of width 2^-m."""
        n = 32
        design = draw("sobol", 3, n, seed=11, batch_size=n)
        for dim in range(3):
            assert strata(design[:, dim], n) == list(range(n))


class TestGrid:
    def test_first_two_levels_are_the_three_level_factorial(self):
        design = draw("grid", 3, 27)
        corners = {tuple(row) for row in design[:8]}
        assert corners == {(a, b, c) for a in (0.0, 1.0) for b in (0.0, 1.0) for c in (0.0, 1.0)}
        levels = (0.0, 0.5, 1.0)
        lattice = {(a, b, c) for a in levels for b in levels for c in levels}
        assert {tuple(row) for row in design} == lattice

    @given(level=st.integers(0, 2), dimension=st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_levels_visit_the_full_factorial_once(self, level, dimension):
        size = (2**level + 1) ** dimension
        design = draw("grid", dimension, size)
        rows = {tuple(row) for row in design}
        assert len(rows) == size  # every point visited exactly once
        coords = set(GridSearch.level_coordinates(level))
        assert all(set(row) <= coords for row in rows)


class TestValuesRoundTrip:
    def test_design_points_map_to_values_and_back(self):
        space = ParameterSpace(
            [Parameter("a", 2**10, 2**20), Parameter("b", 1.0, 100.0, scale="linear")]
        )
        algorithm = get_algorithm("lhs", batch_size=5)
        algorithm.setup(space)
        for point in algorithm.ask(np.random.default_rng(3), 5):
            values = space.from_unit_array(point)
            assert set(values) == {"a", "b"}
            assert np.allclose(space.to_unit_array(values), point, atol=1e-9)


class TestSeeding:
    @pytest.mark.parametrize("name", ["random", "lhs", "sobol"])
    def test_the_seed_decides_the_design(self, name):
        space = make_space(2)

        def units(seed):
            result = AsyncCalibrator(
                space, lambda values: float(np.sum(space.to_unit_array(values))),
                algorithm=name, workers=2, mode="serial",
                budget=EvaluationBudget(10), seed=seed,
            ).run()
            return sorted(tuple(e.unit) for e in result.history)

        assert units(5) == units(5)
        assert units(5) != units(6)
