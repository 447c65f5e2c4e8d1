"""The contract of the package's value types: constructor, attributes,
equality, hashing, immutability, repr and the errors on invalid input.

Every case names a type, positional arguments that build one instance, and
a second argument list that differs in one field.  A field is read back
under the name the constructor takes it by.

Each behaviour of the unit suites has one home.  `INVALID`, below, is the
one home of constructor refusals, and `GATE_FAULTS` in test_empirical.py
that of faults in a model's tables: a new refusal is a row there, not a test
of its own.  A unit module does not restate an acceptance criterion
(test_acceptance.py) or what a golden record (tests/golden/) pins, and a
fact about a bundled fixture is asserted in one place.
"""

import importlib
import inspect
import math
import pickle
import pkgutil

import numpy as np
import pytest

import winoctx
from winoctx.bootstrap import (MAX_RESAMPLES, AliasTable, BootstrapConfig, BootstrapError,
                               BootstrapResult, Histogram)
from winoctx.cbd import CyclicSystem, CyclicSystemError
from winoctx.empirical import PROB_TOL, Distribution, EmpiricalModel, EmpiricalModelError
from winoctx.ingest import ContextTally, IngestError, ParseResult, ResponseRecord
from winoctx.linprog import LpError, LpProblem, LpSizeError, LpSolution
from winoctx.report import AnalysisReport, CfReport, build_report
from winoctx.scenario import (MAX_FACES, CyclicStructure, Frozen, InvalidScenarioError,
                              MeasurementScenario, ProblemsError)
from winoctx.schema import SchemaError, WinogradSchema
from winoctx.sheaf import CfResult, IncidenceSystem

OBS = ("a", "b", "c")
CTXS = (("a", "b"), ("b", "c"), ("a", "c"))
FACES = frozenset(map(frozenset, CTXS))
TABLE = {("A", "A"): 0.5, ("A", "B"): 0.0, ("B", "A"): 0.0, ("B", "B"): 0.5}
CROSSED = {("A", "A"): 0.0, ("A", "B"): 0.5, ("B", "A"): 0.5, ("B", "B"): 0.0}
TEMPLATE = "${pron1} ${word1} and ${pron2} ${word2}."
RECORD = ResponseRecord("r1", "w1", "w2", frozenset({"AA", "BB"}))
# arrays of one entry compare to one truth value
ARRAY, ONE, TWO = np.array([1.0, 2.0]), np.array([1.0]), np.array([2.0])
MATRIX, SQUARE = np.ones((2, 2)), np.ones((1, 1))
SCENARIO = MeasurementScenario(OBS, FACES, ("A", "B"))
# listed in CTXS order, kept in the scenario's: (a, b), (a, c), (b, c)
DISTS = tuple(Distribution(ctx, TABLE) for ctx in CTXS)
HIST = Histogram(ARRAY, ARRAY)


def model():
    return EmpiricalModel.build(SCENARIO, {ctx: TABLE for ctx in CTXS})


# (type, positional arguments, the same with one field changed, whether
# its fields refuse assignment and deletion, hashable)
CASES = {
    "CyclicStructure": (CyclicStructure, (OBS, CTXS), (OBS[::-1], CTXS), True, True),
    "MeasurementScenario": (MeasurementScenario, (OBS, FACES, ("A", "B")),
                            (OBS, FACES, ("A", "C")), True, True),
    "WinogradSchema": (WinogradSchema, (("x", "y"), ("p", "q"), ("s1", "s2"), ("t1", "t2"),
                                        TEMPLATE),
                       (("x", "z"), ("p", "q"), ("s1", "s2"), ("t1", "t2"), TEMPLATE),
                       True, True),
    "ParseResult": (ParseResult, ((RECORD,), ()), ((RECORD,), ("line 3: bad",)), True, True),
    "ResponseRecord": (ResponseRecord, tuple(RECORD), ("r2", *RECORD[1:]), True, True),
    "ContextTally": (ContextTally, (5, 3, 1), (5, 2, 2), True, True),
    "Distribution": (Distribution, (("a", "b"), TABLE), (("b", "c"), TABLE), True, False),
    "EmpiricalModel": (EmpiricalModel, (SCENARIO, DISTS),
                       (SCENARIO, (Distribution(CTXS[0], CROSSED), *DISTS[1:])), True, False),
    "CyclicSystem": (CyclicSystem, (OBS, CTXS, (1.0, 1.0, -1.0), ((0.0, 0.0),) * 3),
                     (OBS, CTXS, (1.0, 1.0, 1.0), ((0.0, 0.0),) * 3), True, True),
    "LpProblem": (LpProblem, (ONE, SQUARE, ONE), (TWO, SQUARE, ONE), True, False),
    "LpSolution": (LpSolution, ("optimal", ARRAY, ARRAY, 1.0, 0.0, 0.0, 3),
                   ("unbounded", None, None, None, None, None, 3), True, False),
    "IncidenceSystem": (IncidenceSystem, ((), MATRIX), (((CTXS[0], ("A", "A")),), MATRIX),
                        True, False),
    "CfResult": (CfResult, (0.5, 0.5, ARRAY, ARRAY, 0.0), (0.25, 0.5, ARRAY, ARRAY, 0.0),
                 True, False),
    "BootstrapConfig": (BootstrapConfig, (10, 1, "cf", 2, 0.5), (10, 2, "cf", 2, 0.5),
                        True, True),
    "Histogram": (Histogram, (ONE, ARRAY), (TWO, ARRAY), True, False),
    "BootstrapResult": (BootstrapResult, (ARRAY, 1.5, 0.5, 1.0, HIST),
                        (ARRAY, 1.5, 0.5, 0.5, HIST), True, False),
    "AliasTable": (AliasTable, (ONE, ARRAY, ARRAY), (TWO, ARRAY, ARRAY), True, False),
    "CfReport": (CfReport, (0.25, 0.75, 0.0), (0.5, 0.5, 0.0), False, None),
}


def fields_of(cls):
    return tuple(inspect.signature(cls).parameters)


def expected_repr(obj):
    values = ", ".join(f"{name}={getattr(obj, name)!r}" for name in fields_of(type(obj)))
    return f"{type(obj).__name__}({values})"


@pytest.mark.parametrize("name", list(CASES))
def test_positional_and_keyword_construction_agree(name):
    cls, args, _, _, _ = CASES[name]
    assert cls.__name__ == name
    fields = fields_of(cls)
    assert len(fields) == len(args)
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(fields, args)))
    assert by_position == by_keyword
    assert not by_position != by_keyword
    for field, arg in zip(fields, args):
        if field not in ("contexts", "distributions", "objective", "lhs", "rhs"):
            # the others are normalised on entry
            assert getattr(by_position, field) is arg


@pytest.mark.parametrize("name", list(CASES))
def test_equality_follows_the_fields(name):
    cls, args, other, _, _ = CASES[name]
    first, second = cls(*args), cls(*other)
    assert first == first
    assert first != second
    assert not first == second
    assert first != object()  # an instance of another class


@pytest.mark.parametrize("name", list(CASES))
def test_repr_names_every_field(name):
    cls, args, _, _, _ = CASES[name]
    assert repr(cls(*args)) == expected_repr(cls(*args))


@pytest.mark.parametrize("name", [n for n, case in CASES.items() if case[4] is not None])
def test_hashing(name):
    cls, args, _, _, hashable = CASES[name]
    if hashable:
        assert hash(cls(*args)) == hash(cls(*args))
        assert len({cls(*args), cls(*args)}) == 1
        copy = pickle.loads(pickle.dumps(cls(*args)))
        assert copy == cls(*args) and hash(copy) == hash(cls(*args))
    else:  # a field holds a dict or an array
        with pytest.raises(TypeError):
            hash(cls(*args))


@pytest.mark.parametrize("name", [n for n, case in CASES.items() if case[3]])
def test_fields_cannot_be_assigned_or_deleted(name):
    cls, args, _, _, _ = CASES[name]
    obj = cls(*args)
    for field in fields_of(cls):
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
        with pytest.raises(AttributeError):
            delattr(obj, field)
    assert obj == cls(*args)


def public_value_types():
    """Every public NamedTuple and Frozen class that a winoctx module defines."""
    found = {}
    for info in pkgutil.iter_modules(winoctx.__path__):
        module = importlib.import_module(f"winoctx.{info.name}")
        for name, cls in vars(module).items():
            if (inspect.isclass(cls) and cls.__module__ == module.__name__
                    and not name.startswith("_") and cls is not Frozen
                    and (issubclass(cls, Frozen)
                         or issubclass(cls, tuple) and hasattr(cls, "_fields"))):
                found[name] = cls
    return found


def test_every_public_value_type_has_a_case():
    # AnalysisReport is tested apart, below
    found = public_value_types()
    assert sorted(found) == sorted([*CASES, "AnalysisReport"])
    for name, case in CASES.items():
        assert case[0] is found[name]


def test_frozen_types_take_their_fields_from_init_alone():
    frozen = {cls.__name__: cls for cls in Frozen.__subclasses__()}
    assert sorted(frozen) == sorted(
        ["MeasurementScenario", "EmpiricalModel", "CyclicSystem", "LpProblem", "ContextTally",
         "WinogradSchema", "BootstrapConfig", "AnalysisReport"])
    for cls in frozen.values():
        assert cls._fields == fields_of(cls)
        assert "_fields" not in inspect.getsource(cls)


def test_cached_values_do_not_change_equality_or_hash():
    system = CyclicSystem(*CASES["CyclicSystem"][1])
    before = hash(system)
    assert system.cnt1 == 1.0 + 1.0 + 1.0 - 0.0 - 1.0
    assert hash(system) == before and system == CyclicSystem(*CASES["CyclicSystem"][1])
    m = model()
    assert m.distribution(("a", "b")).table == TABLE
    assert m == model()


def test_bootstrap_config_defaults():
    config = BootstrapConfig()
    assert config == BootstrapConfig(100_000, 0, "violation", 1, PROB_TOL)
    assert [inspect.signature(BootstrapConfig).parameters[f].default
            for f in fields_of(BootstrapConfig)] == [100_000, 0, "violation", 1, PROB_TOL]
    assert repr(config) == ("BootstrapConfig(n_resamples=100000, seed=0, "
                            f"statistic='violation', workers=1, tol={PROB_TOL!r})")


def test_scenario_keeps_the_maximal_faces():
    faces = FACES | {frozenset({"a"}), frozenset()}
    assert MeasurementScenario(OBS, faces, ("A", "B")).contexts == FACES


def test_lp_problem_holds_float_arrays():
    problem = LpProblem([1, 2], [[1, 0], [0, 1]], [1, 1])
    assert problem.lhs.dtype == problem.rhs.dtype == problem.objective.dtype == float
    assert repr(problem) == expected_repr(problem)


def test_analysis_report_is_an_unhashable_value_with_a_fresh_notices_list(judgment_model):
    report = build_report(judgment_model)
    fields = fields_of(AnalysisReport)
    assert fields == ("model", "signalling", "tol", "outcome_symmetric", "cyclic", "cf",
                      "tallies", "notices")
    values = [getattr(report, f) for f in fields]
    assert AnalysisReport(*values) == report == AnalysisReport(**dict(zip(fields, values)))
    assert repr(report) == expected_repr(report)
    with pytest.raises(TypeError):
        hash(report)

    first = AnalysisReport(*values[:6])
    second = AnalysisReport(*values[:6])
    assert first.tallies is None and first.notices == [] and first.notices is not second.notices
    first.notices.append("note")
    assert second.notices == [] and first != second
    for field, value in zip(fields, values):
        with pytest.raises(AttributeError):
            setattr(report, field, value)
        with pytest.raises(AttributeError):
            delattr(report, field)
    assert report == AnalysisReport(*values)


SCHEMA_ARGS = CASES["WinogradSchema"][1]

# each case carries its own number, so its test id, <class>-<number>, stays
# put wherever a case is inserted; a new case takes the next unused number
INVALID = [
    (0, MeasurementScenario, (("a", "a"), frozenset({frozenset({"a"})}), ("A", "B")),
     InvalidScenarioError, "duplicate observable 'a'"),
    (1, MeasurementScenario, (OBS, FACES, ("A", "A|B")), InvalidScenarioError,
     "outcome label 'A|B' contains '|', the joint-outcome separator"),
    (2, MeasurementScenario, (OBS, frozenset(frozenset({i}) for i in range(MAX_FACES + 1)),
                              ("A", "B")),
     InvalidScenarioError, f"{MAX_FACES + 1} faces exceed the supported {MAX_FACES}"),
    (3, WinogradSchema, (("x", "y"), ("p", "q"), ("s1",), ("t1",), TEMPLATE), SchemaError,
     "pronouns, special and alternate need the same number of entries, 1 to 2; "
     "got (2, 1, 1)"),
    (4, WinogradSchema, (("x", "x"), *SCHEMA_ARGS[1:]), SchemaError,
     "noun_phrases entries must differ, both are 'x'"),
    (6, ContextTally, (2, 2, 1), IngestError, "n_valid cannot exceed n_total"),
    (7, ContextTally, (1, 0, -1), IngestError, "negative tally"),
    (8, CyclicSystem, (("a", "b"), CTXS[:2], (1.0, 1.0), ((0.0, 0.0),) * 2),
     CyclicSystemError, "cyclic systems need rank >= 3, got 2"),
    (9, CyclicSystem, (OBS, CTXS, (1.0, 1.0), ((0.0, 0.0),) * 3), CyclicSystemError,
     "contents/contexts/correlations/expectations must align"),
    (10, LpProblem, ([1.0], [1.0], [1.0]), LpError, "lhs must be a 2-d matrix"),
    (11, LpProblem, ([1.0], MATRIX, [1.0, 1.0]), LpError,
     "objective has shape (1,), expected (2,)"),
    (12, LpProblem, ([1.0, 1.0], MATRIX, [1.0]), LpError, "rhs has shape (1,), expected (2,)"),
    (13, LpProblem, ([1.0], np.ones((1025, 1)), np.ones(1025)), LpSizeError,
     "1025x1 problem exceeds the 1024x1024 cap"),
    (14, LpProblem, ([math.nan, 1.0], MATRIX, [1.0, 1.0]), LpError, "non-finite coefficients"),
    (15, LpProblem, ([1.0, 1.0], MATRIX, [1.0, -1.0]), LpError,
     "rhs must be >= 0: the slack basis is the starting vertex"),
    (16, BootstrapConfig, (10, -1), BootstrapError, "seed must be >= 0, got -1"),
    (17, BootstrapConfig, (0,), BootstrapError, "n_resamples must be >= 1"),
    (18, BootstrapConfig, (MAX_RESAMPLES + 1,), BootstrapError,
     f"n_resamples {MAX_RESAMPLES + 1} exceeds the cap of {MAX_RESAMPLES} draws"),
    (19, BootstrapConfig, (10, 0, "mean"), BootstrapError,
     "unknown statistic 'mean', pick one of ['violation', 'cf']"),
    (20, BootstrapConfig, (10, 0, "cf", 0), BootstrapError, "workers must be >= 1"),
    (21, BootstrapConfig, (10, 0, "cf", 1, math.nan), BootstrapError,
     "tol must be a finite number >= 0"),
    (22, MeasurementScenario, ((), frozenset(), ("A", "B")), InvalidScenarioError,
     "scenario declares no observables"),
    (23, MeasurementScenario, (("",), frozenset({frozenset({""})}), ("A", "B")),
     InvalidScenarioError, "observable with empty id"),
    (24, MeasurementScenario, (("a",), frozenset({frozenset({"a"})}), ("A", "A", "B")),
     InvalidScenarioError, "duplicate outcome labels"),
    (25, EmpiricalModel, (SCENARIO, DISTS[:2]), EmpiricalModelError,
     "missing distributions for [('a', 'c')]"),
    (26, EmpiricalModel, (SCENARIO, DISTS + (Distribution(("a",), {("A",): 1.0}),)),
     EmpiricalModelError, "distributions for non-contexts [('a',)]"),
    (27, EmpiricalModel, (SCENARIO, DISTS + DISTS[:1]), EmpiricalModelError,
     "context ('a', 'b') has two distributions"),
    (28, EmpiricalModel, (SCENARIO, (Distribution(CTXS[0], {("A", "C"): 1.0}), *DISTS[1:])),
     EmpiricalModelError, "outcome ('A', 'C') is not a joint outcome of context ('a', 'b')"),
    (29, EmpiricalModel, (SCENARIO, (Distribution(CTXS[0], {("A", "A"): 5.0}), *DISTS[1:])),
     EmpiricalModelError, "probability 5.0 for ('A', 'A') in context ('a', 'b') out of range"),
    (30, LpProblem, (np.ones(1025), np.ones((1, 1025)), [1.0]), LpSizeError,
     "1x1025 problem exceeds the 1024x1024 cap"),
    (31, LpProblem, ([1.0], [[1.0]], [math.inf]), LpError, "non-finite coefficients"),
    # the violation statistic is cnt1 on every draw, so cnt1 is not a second one
    (32, BootstrapConfig, (10, 0, "cnt1"), BootstrapError,
     "unknown statistic 'cnt1', pick one of ['violation', 'cf']"),
    (33, BootstrapConfig, (10, 0, "cf", 1, -1e-9), BootstrapError,
     "tol must be a finite number >= 0"),
    (34, BootstrapConfig, (10, 0, "cf", 1, math.inf), BootstrapError,
     "tol must be a finite number >= 0"),
    (35, EmpiricalModel, (SCENARIO, (Distribution(CTXS[0], {("A", "A"): -0.1, ("B", "B"): 1.1}),
                                     *DISTS[1:])),
     EmpiricalModelError, "probability -0.1 for ('A', 'A') in context ('a', 'b') out of range"),
    # the range test is written so that NaN fails it
    (36, EmpiricalModel, (SCENARIO, (Distribution(CTXS[0], {("A", "A"): math.nan,
                                                            ("B", "B"): 1.0}), *DISTS[1:])),
     EmpiricalModelError, "probability nan for ('A', 'A') in context ('a', 'b') out of range"),
]


INVALID_IDS = [f"{cls.__name__}-{number}" for number, cls, *_ in INVALID]
assert len(set(INVALID_IDS)) == len(INVALID_IDS), "two INVALID cases share a number"


@pytest.mark.parametrize("cls, args, error, message", [case[1:] for case in INVALID],
                         ids=INVALID_IDS)
def test_invalid_input_raises_the_same_error(cls, args, error, message):
    keywords = dict(zip(fields_of(cls), args))
    for build in (lambda: cls(*args), lambda: cls(**keywords)):
        with pytest.raises(error) as caught:
            build()
        assert type(caught.value) is error
        assert str(caught.value) == message
        if error in (InvalidScenarioError, SchemaError):  # they list every problem
            assert isinstance(caught.value, ProblemsError)
            assert "; ".join(caught.value.problems) == message
