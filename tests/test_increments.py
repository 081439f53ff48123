import json
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poswalk import increments
from poswalk.errors import InputError


def test_valid_trinomial(tri):
    assert tri.arithmetic_mode == "exact-rational"
    assert tri.sigma2() == F(3, 5)
    assert sum(tri.probs) == 1


def test_span_not_one_rejected():
    with pytest.raises(InputError, match="gcd of support differences is 2, not 1"):
        increments.validate([-1, 1], ["1/2", "1/2"])


def test_empty_side_rejected():
    with pytest.raises(InputError, match="at least one negative and one positive point"):
        increments.validate([0, 1, 2], ["1/3", "1/3", "1/3"])


def test_sum_not_one_rejected():
    with pytest.raises(InputError, match="probabilities sum to 3/4, not 1"):
        increments.validate([-1, 0, 1], ["1/4", "1/4", "1/4"])


def test_mean_not_zero_rejected():
    with pytest.raises(InputError, match="mean is 1/4, not 0"):
        increments.validate([-1, 0, 1], ["1/4", "1/4", "1/2"])


@pytest.mark.parametrize("support", [[-1.5, 0, 1.5], ["a", 0, 1], [-1, 0, True]])
def test_non_integer_support_rejected(support):
    with pytest.raises(InputError, match="support points must be integers"):
        increments.validate(support, ["1/4", "1/2", "1/4"])


def test_float_inputs_select_float_mode():
    d = increments.validate([-1, 0, 1], [0.3, 0.4, 0.3])
    assert d.arithmetic_mode == "float64"
    # floats rationalize to their exact binary values
    assert d.probs[0] == F(0.3)


def test_exact_validation_takes_floats_at_their_binary_value():
    # 0.1 + 0.8 + 0.1 is 1 within the float tolerance, not exactly; binary
    # fractions that sum to 1 exactly pass
    assert increments.validate([-1, 0, 1], [0.1, 0.8, 0.1]).arithmetic_mode == "float64"
    with pytest.raises(InputError, match="sum to 18014398509481985/18014398509481984, not 1"):
        increments.validate([-1, 0, 1], [0.1, 0.8, 0.1], exact=True)
    forced = increments.validate([-1, 0, 1], [0.25, 0.5, 0.25], exact=True)
    assert forced.arithmetic_mode == "exact-rational"


def test_float_mode_tolerance_is_tight():
    with pytest.raises(InputError, match="probabilities sum to .*, not 1"):
        increments.validate([-1, 0, 1], [0.3, 0.4, 0.3 + 1e-9])


def test_asymmetric_moments(asym):
    assert asym.raw_moment(1) == 0
    assert asym.raw_moment(2) == F(6, 5)
    assert asym.raw_moment(3) == F(6, 5)  # -2/5 + 8/5


def test_trinomial_third_moment_vanishes(tri):
    assert tri.raw_moment(3) == 0


def test_second_moment_is_sigma2(tri, asym, rich):
    for d in (tri, asym, rich):
        assert d.raw_moment(2) == d.sigma2()


def test_cumulants_pinned(tri, asym):
    # gamma_3 = m3 for mean-zero walks; gamma_4 = m4 - 3 sigma^4
    g_tri = increments.cumulants(tri, 4)
    assert g_tri[0] == F(3, 5)
    assert g_tri[1] == 0
    assert g_tri[2] == F(3, 5) - 3 * F(3, 5) ** 2  # -12/25 = -0.48
    g_asym = increments.cumulants(asym, 4)
    assert g_asym[1] == F(6, 5)
    assert g_asym[2] == F(18, 5) - 3 * F(36, 25)  # -18/25 = -0.72


def _stirling2(k, j):
    if k == j:
        return 1
    if j == 0 or j > k:
        return 0
    return j * _stirling2(k - 1, j) + _stirling2(k - 1, j - 1)


def test_moments_match_pgf_derivatives(tri, asym, rich):
    # independent route: factorial moments (the pgf derivatives at 1)
    # combined through Stirling numbers of the second kind
    for d in (tri, asym, rich):
        for k in range(1, 7):
            fact = [
                sum(p * math.prod(F(x - i) for i in range(j)) for x, p in zip(d.support, d.probs))
                for j in range(k + 1)
            ]
            raw = sum(_stirling2(k, j) * fact[j] for j in range(k + 1))
            assert raw == d.raw_moment(k)


@st.composite
def small_walks(draw):
    support = draw(st.lists(st.integers(-4, 4), min_size=2, max_size=5, unique=True))
    weights = [draw(st.integers(1, 9)) for _ in support]
    total = sum(weights)
    return support, [F(w, total) for w in weights]


@given(small_walks())
@settings(max_examples=60, deadline=None)
def test_cumulant_moment_roundtrip(walk):
    # classical inversion: moments rebuilt from cumulants via the same
    # recursion reproduce the raw moments exactly (no walk validity needed)
    support, probs = walk
    raw = [sum(p * F(x) ** k for x, p in zip(support, probs)) for k in range(7)]
    kap = increments._cumulants_from_raw(raw)
    rebuilt = [F(1), raw[1]]
    for k in range(2, 7):
        acc = kap[k]
        for j in range(1, k):
            acc += math.comb(k - 1, j - 1) * kap[j] * rebuilt[k - j]
        rebuilt.append(acc)
    assert rebuilt[1:] == raw[1:]


def test_json_roundtrip(tmp_path, tri):
    path = tmp_path / "d.json"
    path.write_text(json.dumps({"support": list(tri.support),
                                "probs": [str(p) for p in tri.probs]}))
    loaded = increments.load(path)
    assert loaded.support == tri.support
    assert loaded.probs == tri.probs


def test_json_decimal_strings_parse_exactly(tmp_path):
    path = tmp_path / "d.json"
    path.write_text('{"support": [-1, 0, 1], "probs": ["0.3", "0.4", "0.3"]}')
    d = increments.load(path)
    assert d.arithmetic_mode == "exact-rational"
    assert d.probs[0] == F(3, 10)


def test_bad_json_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(InputError):
        increments.load(path)


MALFORMED_FILES = {
    # str and float probabilities once reached a sort that compared them
    "mixed-prob-types": (b'{"support": [-1, 1, 1], "probs": ["1/2", 0.25, "1/4"]}',
                         "support points must be distinct"),
    "scalar-support": (b'{"support": 5, "probs": ["1/2", "1/2"]}', "must be lists"),
    "null-probs": (b'{"support": [-1, 0, 1], "probs": null}', "must be lists"),
    "not-utf8": (b'\xff\xfe{}', "invalid JSON"),
    "nan-prob": (b'{"support": [-1, 0, 1], "probs": [NaN, 0.5, 0.25]}',
                 "cannot parse probability nan"),
    "infinite-prob": (b'{"support": [-1, 0, 1], "probs": [0.25, 0.5, Infinity]}',
                      "cannot parse probability inf"),
}


@pytest.mark.parametrize("name", MALFORMED_FILES)
def test_malformed_file_is_an_input_error(tmp_path, name):
    content, message = MALFORMED_FILES[name]
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    with pytest.raises(InputError, match=message):
        increments.load(path)


def test_order_below_two_rejected(tri):
    with pytest.raises(InputError):
        increments.cumulants(tri, 1)
