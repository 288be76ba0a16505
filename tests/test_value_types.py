"""Contract of the package's immutable types: the validated classes reject
assignment, compare as documented and admit no copy that skips their checks."""

import copy
import math
import pickle

import pytest

from ssp_seir.config import DEFAULT_CONFIG_TEXT, parse_config
from ssp_seir.model import ModelParams, State, linear_incidence, recruitment_from_key
from ssp_seir.butcher import ButcherTableau, builtin_tableau, shu_osher_from_butcher
from ssp_seir.shu_osher import ShuOsherForm, builtin_method
from ssp_seir.stepping import _kernel, integrate

RATES = ("mu", "sigma", "gamma", "delta")

FROZEN = {
    "ModelParams": lambda: ModelParams(0.05, 0.25, 0.1867, 0.011),
    "RateFunction": lambda: recruitment_from_key("choiceA"),
    "ButcherTableau": lambda: builtin_tableau("ssprk33"),
    "ShuOsherForm": lambda: builtin_method("ssprk33"),
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
        assert (duplicate.key, duplicate.fn, duplicate.params) == (first.key, first.fn, first.params)


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


@pytest.mark.parametrize("name", ["ModelParams", "ButcherTableau", "ShuOsherForm"])
def test_value_types_copy_and_pickle_to_equal_instances(name):
    obj = FROZEN[name]()
    for duplicate in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(duplicate) is type(obj)
        assert duplicate == obj and hash(duplicate) == hash(obj)
