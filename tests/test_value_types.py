"""Contract of the package's immutable types: every record rejects
assignment, compares as documented and admits no copy that skips its checks."""

import copy
import math
import pickle

import pytest

from ssp_seir.checks import Verdict
from ssp_seir.config import DEFAULT_CONFIG_TEXT, parse_config
from ssp_seir.experiments import (
    BoundsRow,
    ConvergenceResult,
    CounterexampleReport,
    SweepReport,
    run_simulation,
)
from ssp_seir.model import ModelParams, State, _Value, linear_incidence, recruitment_from_key
from ssp_seir.shu_osher import ShuOsherForm, builtin_method
from ssp_seir.step_bounds import EulerBound, bound_report
from ssp_seir.stepping import Trajectory, _kernel, integrate

from butcher import ButcherTableau, builtin_tableau, shu_osher_from_butcher

RATES = ("mu", "sigma", "gamma", "delta")


def _config():
    return parse_config(DEFAULT_CONFIG_TEXT)


def _simulation():
    return run_simulation(_config().setup("choiceC"), builtin_method("euler"), 0.5, 2.0)


# the records that compare by value and hold no rate function or trajectory
BY_VALUE = {
    "ModelParams": lambda: ModelParams(0.05, 0.25, 0.1867, 0.011),
    "ButcherTableau": lambda: builtin_tableau("ssprk33"),
    "ShuOsherForm": lambda: builtin_method("ssprk33"),
    "State": lambda: State(0.2, 0.6, 0.2, 0.0, 1.5),
    "ExperimentConfig": _config,
    "Verdict": lambda: Verdict(False, 3, "S", -1e-9),
    "EulerBound": lambda: EulerBound(2.5, "sigma"),
    "BoundReport": lambda: bound_report(
        _config().setup("choiceA"), builtin_method("ssprk104"), 1000.0
    ),
    "BoundsRow": lambda: BoundsRow("choiceA", "euler", 1.5, 1.75),
    "ConvergenceResult": lambda: ConvergenceResult("euler", (0.5, 0.25), (1e-3, 5e-4), 1.0),
    "SweepReport": lambda: SweepReport(2, 8, ("config 0: overflow at step 3",)),
}

FROZEN = {
    **BY_VALUE,
    "RateFunction": lambda: recruitment_from_key("choiceA"),
    "ProblemSetup": lambda: _config().setup("choiceA"),
    "SimulationResult": _simulation,
    "CounterexampleReport": lambda: CounterexampleReport(
        4 / 3, 2 / 3, 0.1, 0.2, _simulation().trajectory
    ),
}


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_types_reject_assignment_and_deletion(name):
    obj = FROZEN[name]()
    field = type(obj).__slots__[0]
    before = getattr(obj, field)
    with pytest.raises(AttributeError, match="immutable"):
        setattr(obj, field, 1.0)
    with pytest.raises(AttributeError, match="immutable"):
        delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.extra = 1.0
    assert getattr(obj, field) is before


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_types_repr_names_their_fields_in_slot_order(name):
    obj = FROZEN[name]()
    fields = ", ".join(f"{field}={getattr(obj, field)!r}" for field in type(obj).__slots__)
    assert repr(obj) == f"{name}({fields})"


def _ssprk33_at(r):
    # a fresh form on every call: equal values, distinct objects
    return shu_osher_from_butcher(builtin_tableau("ssprk33"), r)


def test_equal_shu_osher_forms_are_equal_and_share_one_kernel():
    first, second = _ssprk33_at(0.75), _ssprk33_at(0.75)
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert first != _ssprk33_at(0.5)
    # the key is part of the value: the builtin form is not the unnamed one
    assert _ssprk33_at(1.0) != builtin_method("ssprk33")
    f, pi = linear_incidence(), recruitment_from_key("choiceC")
    kernel = _kernel(first, f.formula, pi.formula)
    assert _kernel(second, f.formula, pi.formula) is kernel
    p, x0 = ModelParams(0.05, 0.25, 0.1867, 0.011), State(0.2, 0.6, 0.2, 0.0)
    runs = [integrate(x0, 0.5, 20, form, p, f, pi) for form in (first, second)]
    assert runs[0].data == runs[1].data


def test_shu_osher_form_stores_tuples_and_hashes_its_values():
    form = builtin_method("ssprk22")
    rebuilt = ShuOsherForm(
        [list(row) for row in form.alpha], list(form.v), form.r, list(form.c_stage),
        ssp_c=form.ssp_c, key=form.key,
    )
    assert rebuilt == form and hash(rebuilt) == hash(form)
    assert all(isinstance(row, tuple) for row in (rebuilt.alpha, *rebuilt.alpha, rebuilt.v))
    assert hash(form) == hash((form.alpha, form.v, form.r, form.c_stage, form.ssp_c, form.key))


def test_butcher_tableaus_compare_by_value():
    assert builtin_tableau("ssprk104") == builtin_tableau("ssprk104")
    assert hash(builtin_tableau("ssprk104")) == hash(builtin_tableau("ssprk104"))
    assert builtin_tableau("ssprk22") != builtin_tableau("ssprk33")
    assert ButcherTableau(((0.0,),), (1.0,)) == builtin_tableau("euler")


def test_rate_functions_compare_by_identity():
    first, second = recruitment_from_key("choiceA"), recruitment_from_key("choiceA")
    assert first == first and first != second
    assert hash(first) == object.__hash__(first)
    assert len({first, second}) == 2
    for duplicate in (copy.copy(first), copy.deepcopy(first)):
        assert duplicate != first
        assert (duplicate.key, duplicate.formula, duplicate.params) == (
            first.key, first.formula, first.params
        )
        # a copy compiles its own fn from the formula and its parameters
        assert duplicate.fn is not first.fn
        times = (0.0, 1.5, 40.0)
        assert [duplicate.fn(t) for t in times] == [first.fn(t) for t in times]


def test_model_params_compare_by_value():
    p = ModelParams(0.05, 0.25, 0.1867, 0.011)
    assert p == ModelParams(mu=0.05, sigma=0.25, gamma=0.1867, delta=0.011)
    assert hash(p) == hash(ModelParams(0.05, 0.25, 0.1867, 0.011))
    assert p != ModelParams(0.05, 0.25, 0.1867, 0.0)
    assert p != (0.05, 0.25, 0.1867, 0.011)
    assert repr(p) == "ModelParams(mu=0.05, sigma=0.25, gamma=0.1867, delta=0.011)"


@pytest.mark.parametrize("bad", [-0.1, math.nan, math.inf])
@pytest.mark.parametrize("name", RATES)
def test_model_params_reject_a_bad_rate_on_every_path(name, bad):
    rates = dict(zip(RATES, (0.05, 0.25, 0.1867, 0.011)), **{name: bad})
    with pytest.raises(ValueError, match=name):
        ModelParams(**rates)
    with pytest.raises(ValueError, match=name):
        ModelParams(*rates.values())
    # a config holds plain numbers; its rates are checked when it builds them
    config = parse_config(DEFAULT_CONFIG_TEXT)._replace(**{name: bad})
    with pytest.raises(ValueError, match=name):
        config.params()
    with pytest.raises(ValueError, match=name):
        config.setup("choiceA")
    # unpickling calls the constructor, so pickled rates are checked anew
    with pytest.raises(ValueError, match=name):
        pickle.loads(pickle.dumps(_Pickled(tuple(rates.values()))))


class _Pickled:
    """Pickles as the ModelParams of ``rates``, whatever they are."""

    def __init__(self, rates):
        self.rates = rates

    def __reduce__(self):
        return ModelParams, self.rates


@pytest.mark.parametrize("name", BY_VALUE)
def test_value_types_copy_and_pickle_to_equal_instances(name):
    obj = BY_VALUE[name]()
    for duplicate in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(duplicate) is type(obj)
        assert duplicate == obj and hash(duplicate) == hash(obj)


def test_records_are_not_tuples():
    state = State(0.2, 0.6, 0.2, 0.0, 1.5)
    assert not isinstance(state, tuple)
    assert state != (0.2, 0.6, 0.2, 0.0, 1.5)
    assert state == State(0.2, 0.6, 0.2, 0.0, t=1.5) and State(1.0, 0.0, 0.0, 0.0).t == 0.0


@pytest.mark.parametrize("name, field, value", [
    ("State", "t", 2.0),
    ("ExperimentConfig", "tf", 10.0),
    ("ModelParams", "delta", 0.0),
    ("Verdict", "witness_value", -2e-9),
    ("SweepReport", "failures", ()),
])
def test_replace_changes_only_the_named_field(name, field, value):
    obj = BY_VALUE[name]()
    assert obj._replace() == obj
    changed = obj._replace(**{field: value})
    assert type(changed) is type(obj) and getattr(changed, field) == value != getattr(obj, field)
    others = [other for other in type(obj).__slots__ if other != field]
    assert [getattr(changed, other) for other in others] == [getattr(obj, other) for other in others]


@pytest.mark.parametrize("name", FROZEN)
def test_replace_rejects_an_unknown_field(name):
    obj = FROZEN[name]()
    with pytest.raises(TypeError, match="no field 'colour'"):
        obj._replace(colour=1.0)


def test_replace_goes_through_the_constructor():
    p = ModelParams(0.05, 0.25, 0.1867, 0.011)
    assert p._replace(mu=0.5) == ModelParams(0.5, 0.25, 0.1867, 0.011)
    with pytest.raises(ValueError, match="mu must be non-negative"):
        p._replace(mu=-1.0)
    with pytest.raises(ValueError, match="consistency"):
        builtin_method("ssprk22")._replace(v=(1.0, 0.25, 0.5))


def test_a_record_takes_one_positional_value_per_slot(monkeypatch):
    values = ("choiceA", "euler", 1.5, 1.75)
    row = BoundsRow(*values)
    for wrong in (values[:3], (*values, 2.0), ()):
        with pytest.raises(TypeError, match=f"^BoundsRow takes 4 values, got {len(wrong)}$"):
            BoundsRow(*wrong)
    with pytest.raises(TypeError):
        BoundsRow(recruitment="choiceA", method="euler", tau_t=1.5, tau_r=1.75)
    # _replace, a copy and an unpickled record are each built by the constructor
    built = []

    def constructor(self, *values):
        built.append(values)
        _Value.__init__(self, *values)

    monkeypatch.setattr(BoundsRow, "__init__", constructor)
    changed = row._replace(tau_r=2.0)
    duplicates = [copy.copy(row), copy.deepcopy(row), pickle.loads(pickle.dumps(row))]
    assert built == [(*values[:3], 2.0)] + [values] * 3
    assert changed.tau_r == 2.0 and duplicates == [row] * 3


def test_trajectory_is_read_only_and_compares_by_identity():
    traj = _simulation().trajectory
    for field in Trajectory.__slots__:
        with pytest.raises(AttributeError, match="immutable"):
            setattr(traj, field, -5.0)
    assert repr(traj) == (
        f"Trajectory(rows=5, tau=0.5, method='euler', stage_min={traj.stage_min!r})"
    )
    twin = Trajectory(traj.data, traj.tau, traj.method, traj.stage_min)
    assert twin != traj and hash(twin) == object.__hash__(twin)
    assert len({traj, twin}) == 2
