"""Shared fixtures: bundled example files and random-model helpers."""

import numpy as np
import pytest

from winoctx.empirical import EmpiricalModel
from winoctx.files import load_model, load_scenario
from winoctx.fixtures import fixture_path


@pytest.fixture(scope="session")
def chsh_scenario():
    return load_scenario(fixture_path("chsh_scenario.json"))


@pytest.fixture(scope="session")
def bell_model():
    return load_model(fixture_path("bell_state_model.json"))


@pytest.fixture(scope="session")
def uniform_model():
    return load_model(fixture_path("uniform_model.json"))


@pytest.fixture(scope="session")
def judgment_model():
    return load_model(fixture_path("cannibal_judgment_model.json"))


@pytest.fixture(scope="session")
def pr_model():
    return load_model(fixture_path("pr_box_model.json"))


def symmetric_tables(scenario, p_sames):
    """Tables for an outcome-symmetric model: per context, probability
    p_same on each agreeing joint outcome and 0.5 - p_same on each
    disagreeing one."""
    first, second = scenario.outcomes
    tables = {}
    from winoctx.scenario import maximal_contexts

    for ctx, p_same in zip(maximal_contexts(scenario), p_sames):
        tables[ctx] = {
            (first, first): p_same,
            (second, second): p_same,
            (first, second): 0.5 - p_same,
            (second, first): 0.5 - p_same,
        }
    return tables


def random_symmetric_model(scenario, rng: np.random.Generator) -> EmpiricalModel:
    """Random outcome-symmetric model on a four-context binary scenario."""
    # denominators are powers of two so every table entry is an exact double
    p_sames = rng.integers(0, 1025, size=4) / 2048.0
    return EmpiricalModel.build(scenario, symmetric_tables(scenario, p_sames))


# 12 responses under cannibal_schema.json, 3 per version, one of them the
# same referent twice: every correlation is -1/3, and many resamples land
# exactly on the noncontextual facet s_odd = 2
SMALL_N_RESPONSES = """\
respondent_id,word1,word2,pick1,pick2
s01,cannibalistic,hungry,AA,BB
s02,cannibalistic,hungry,AB,BA
s03,cannibalistic,hungry,AB,BA
s04,cannibalistic,alive,AA,BB
s05,cannibalistic,alive,AB,BA
s06,cannibalistic,alive,AB,BA
s07,herbivorous,hungry,AA,BB
s08,herbivorous,hungry,AB,BA
s09,herbivorous,hungry,AB,BA
s10,herbivorous,alive,AA,BB
s11,herbivorous,alive,AB,BA
s12,herbivorous,alive,AB,BA
"""
