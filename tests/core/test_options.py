"""SolveOptions: the one option bundle of every allocate* entry point."""

import warnings

import pytest

from repro.core.options import SolveOptions
from repro.core.pipeline import allocate_block, allocate_schedule
from repro.core.problem import AllocationProblem
from repro.core.solver import allocate
from repro.flow.warm_start import WarmStartCache
from repro.scheduling import list_schedule
from repro.workloads.registry import figure_example, kernel_block


def fig3_problem(registers=2):
    lifetimes, horizon, _ = figure_example("fig3")
    return AllocationProblem(
        lifetimes, register_count=registers, horizon=horizon
    )


def test_options_are_frozen_with_replace():
    options = SolveOptions()
    with pytest.raises(Exception):
        options.certify = True
    certified = options.replace(certify=True)
    assert certified.certify and not options.certify
    assert certified.validate  # untouched fields carried over


def test_options_are_the_only_way_to_set_a_switch():
    problem = fig3_problem()
    with pytest.raises(TypeError):
        allocate(problem, certify=True)
    schedule = list_schedule(kernel_block("fir", taps=4))
    # Unknown keywords reach AllocationProblem, which rejects them.
    with pytest.raises(TypeError):
        allocate_schedule(schedule, register_count=4, lint="error")


def test_modern_path_emits_no_deprecation_warnings():
    problem = fig3_problem()
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        allocate(problem, SolveOptions(validate=True, certify=True))
        allocate_block(
            kernel_block("fir", taps=4),
            register_count=4,
            options=SolveOptions(lint="error"),
        )


def test_warm_cache_option_threads_through():
    cache = WarmStartCache()
    problem = fig3_problem()
    cold = allocate(problem)
    first = allocate(problem, SolveOptions(warm_cache=cache))
    second = allocate(problem, SolveOptions(warm_cache=cache))
    assert first.objective == cold.objective == second.objective
