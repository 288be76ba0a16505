import pytest
from hypothesis import settings

from ssp_seir.config import load_config
from ssp_seir.shu_osher import BUILTIN_METHOD_KEYS, builtin_method

# integrations inside property tests can take tens of milliseconds each
settings.register_profile("suite", deadline=None, max_examples=50)
# a larger budget for the positivity certificate's soundness property, run
# outside tier-1: pytest tests/test_certificate.py --hypothesis-profile=certificate
settings.register_profile("certificate", settings.get_profile("suite"), max_examples=2000)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def default_config():
    return load_config(None)


@pytest.fixture(scope="session")
def builtin_methods():
    return {key: builtin_method(key) for key in BUILTIN_METHOD_KEYS}
