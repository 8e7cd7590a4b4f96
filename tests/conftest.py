import sys

import pytest

from deltaseries import presets as pr

# One shared order for the verification corpus: big enough that every
# second-kind triangle needed by the Schloemilch-type sums (up to 2n) and
# the logarithm expansion at order 12 (up to 2*12-2) fits.
CORPUS_ORDER = 22


@pytest.fixture(scope="session")
def corpus():
    return pr.corpus(CORPUS_ORDER)


@pytest.fixture(scope="session")
def corpus_targets(corpus):
    return [(e.label, e.f) for e in corpus]


@pytest.fixture
def int_digit_limit():
    """Python's default limit (4300 digits) on turning an int into text."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no limit on int-to-text conversion")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)
