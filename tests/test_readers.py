"""Every number handed in from outside is read by ``graph.as_dtype``:
constants, shapes, masks, default test values, GLM columns, statistics'
samples and random-stream seeds.  A value it cannot read exactly raises a
typed error naming it; it is never wrapped, truncated or parsed from a
string."""

import re

import numpy as np
import pytest

from miniprob import graph
from miniprob.distributions import Normal, Poisson
from miniprob.exceptions import DataError, MiniprobError, OutsideSupport
from miniprob.glm import build_model
from miniprob.graph import eval_expr, free_input, opaque_deterministic
from miniprob.inference import sample
from miniprob.model import Model
from miniprob.rng import stream
from miniprob.samplers import Metropolis
from miniprob.stats import ess, histogram, hpd, kde, mc_error, quantiles

BEYOND_INT64 = np.uint64(2 ** 63 + 5)


def _int_constant_beyond_int64():
    m = Model()
    k = m.add_free("k", Poisson(3))
    return eval_expr(k + BEYOND_INT64, {"k": np.array(1)})


def _shape(v):
    """The shape of the data beside ``v``: its length for a ragged ``v``."""
    try:
        return np.shape(v)
    except ValueError:
        return (len(v),)


def _glm(x):
    return build_model("y ~ x", {"y": np.ones(_shape(x)), "x": x})


RAGGED = [[1.0], [2.0, 3.0]]


def _ragged_start():
    m = Model()
    m.add_free("x", Normal(), shape=(2, 1))
    return m.initial_point({"x": RAGGED})


# one row per private cast that ``as_dtype`` replaced; each wrapped,
# truncated, parsed a string or raised a bare builtin error before
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, shown", [
    (_int_constant_beyond_int64, "9223372036854775813"),
    (lambda: Model().add_free("x", Normal(), shape=(2.5,)), "2.5"),
    (lambda: Model().add_free("x", Normal(), shape=2.5), "2.5"),
    (lambda: Model().add_free("x", Normal(), shape="ab"), "'ab'"),
    (lambda: free_input("x", (2.5,)), "2.5"),
    (lambda: Model().add_observed("y", Poisson(3.0), [1, 2, 3], mask=["no", "", ""]), "'no'"),
    (lambda: Model().add_observed("y", Poisson(3.0), [1, 2, 3], mask=[0.5, 0, 0]), "0.5"),
    (lambda: Model().add_free("k", Poisson(1e19)), "1e+19"),
    (lambda: Model().add_observed("y", Poisson(1e19), [1, 2], mask=[True, False]), "1e+19"),
    (lambda: _glm(["a", "b"]), "'a'"),
    (lambda: _glm(["1.5", "2"]), "'1.5'"),
    (lambda: _glm([None, 1.0]), "None"),
    (lambda: hpd(["1", "2", "3"]), "'1'"),
    (lambda: hpd(["a", "b"]), "'a'"),
    (lambda: ess([None] * 200), "None"),
    (lambda: histogram(["1", "2"]), "'1'"),
    (_ragged_start, "'x' is not rectangular: [[1.0], [2.0, 3.0]]"),
    (lambda: Model().add_observed("y", Normal(), RAGGED), "'y' is not rectangular"),
], ids=["const_beyond_int64", "shape_fraction_in_tuple", "shape_fraction", "shape_string",
        "free_input_shape_fraction", "mask_string", "mask_fraction", "default_beyond_int64",
        "masked_default_beyond_int64", "glm_string", "glm_numeric_string", "glm_none",
        "stats_numeric_string", "stats_string", "stats_none", "histogram_numeric_string",
        "start_ragged", "observed_ragged"])
def test_a_value_no_reader_takes_exactly_is_named(call, shown):
    with pytest.raises(MiniprobError, match=re.escape(shown)):
        call()


@pytest.mark.parametrize("seed, idx", [(2 ** 64 + 3, 0), (-1, 0), (1.5, 0), (True, 0),
                                       (0, 2 ** 64), (0, -1)],
                         ids=["seed_beyond_64_bits", "seed_negative", "seed_fraction",
                              "seed_bool", "index_beyond_64_bits", "index_negative"])
def test_stream_rejects_a_seed_or_index_outside_its_64_bits(seed, idx):
    # the key was masked to 64 bits: 2**64 + 3 drew as 3 and -1 as 2**64 - 1
    with pytest.raises(ValueError, match="^(seed|stream index) must be an integer") as caught:
        stream(seed, idx)
    assert type(caught.value) is ValueError


def test_stream_of_a_valid_seed_is_philox_keyed_on_it():
    for seed, idx in [(0, 0), (7, 3), (2 ** 64 - 1, 2 ** 64 - 1), (np.uint64(2 ** 63 + 5), 1)]:
        key = np.array([seed, idx], dtype=np.uint64)
        want = np.random.Generator(np.random.Philox(key=key)).integers(0, 2 ** 62, 4)
        assert np.array_equal(stream(seed, idx).integers(0, 2 ** 62, 4), want)


@pytest.mark.parametrize("probs", [[150.0], [-1.0], [np.nan]], ids=["above", "below", "nan"])
def test_quantiles_probs_are_percent(probs):
    # numpy's own message spoke of [0, 1], a fraction
    with pytest.raises(ValueError, match=r"in \[0, 100\]") as caught:
        quantiles(np.arange(10.0), probs=probs)
    assert type(caught.value) is ValueError


def test_quantiles_of_no_samples_is_a_data_error():
    # a bare IndexError
    with pytest.raises(DataError, match="quantiles needs at least 1 sample"):
        quantiles([])


@pytest.mark.parametrize("call, shown", [
    (lambda: Model().add_observed("y", Normal(), [np.nan, 1.0]), "y: data must be finite"),
    (lambda: Model().add_observed("y", Normal(), [0.0, np.inf, -np.inf], mask=[1, 0, 0]),
     "y: data must be finite, got [0.0, inf, -inf]"),
    (lambda: _glm([np.nan, 1.0]), "column 'x' holds a value that is not finite"),
    (lambda: build_model("y ~ x", {"y": [-np.inf, 1.0], "x": [0.0, 1.0]}), "column 'y'"),
], ids=["observed_nan", "observed_inf_unmasked", "glm_predictor_nan", "glm_response_inf"])
def test_observed_data_that_is_not_finite_is_named(call, shown):
    # it built, and ``finalize`` then blamed "log posterior is nan at the test point"
    with pytest.raises(OutsideSupport, match=re.escape(shown)):
        call()


def test_masked_entries_may_hold_anything():
    m = Model()
    m.add_observed("y", Normal(), [np.nan, 1.0, -np.inf], mask=[True, False, True])
    assert np.isfinite(m.logp(m.initial_point()))


# --- the boundary table: every reader above against one fixed list of bad values

BAD = {"string": "a", "none": None, "nan": np.nan, "inf": np.inf, "fraction": 2.5,
       "negative": -1, "beyond_int64": BEYOND_INT64, "huge": 1e30, "empty": [],
       "object_array": np.array([1.0, "a"], dtype=object), "ragged": RAGGED}


def _same(out, v):
    """``out`` holds ``v`` exactly, read as a float."""
    return np.array_equal(np.asarray(out, dtype=float), np.asarray(v, dtype=float),
                          equal_nan=True)


def _as_counts(out, v):
    """``out`` is the shape tuple that reads ``v`` as counts, none lost."""
    return out == (() if v is None else tuple(int(d) for d in np.ravel(v)))


def _default(dist):
    m = Model()
    m.add_free("k", dist)
    return m.initial_point()["k"]


def _masked_default(dist):
    m = Model()
    m.add_observed("y", dist, [1, 2], mask=[True, False])
    return m.initial_point()["y.missing_values"]


def _sample_seed(v):
    m = Model()
    m.add_free("x", Normal())
    return sample(m, 5, [Metropolis(m)], seed=v)["x"]


# (entry point, its call, the plain builtin error it documents or None,
# what a value it returns must satisfy)
ENTRIES = [
    ("constant", lambda v: graph.const(v).const_value, TypeError, _same),
    ("add_free_shape", lambda v: Model().add_free("x", Normal(), shape=v).shape, None,
     _as_counts),
    ("free_input_shape", lambda v: free_input("x", v).shape, None, _as_counts),
    ("opaque_shape", lambda v: opaque_deterministic(lambda: 0.0, [], v).shape, None,
     _as_counts),
    ("mask", lambda v: Model().add_observed("y", Normal(), np.zeros(_shape(v)), mask=v),
     None, lambda out, v: v is None),
    ("default_testval", lambda v: _default(Poisson(v)), TypeError,
     lambda out, v: out == np.floor(v)),
    ("masked_default_testval", lambda v: _masked_default(Poisson(v)), TypeError,
     lambda out, v: _same(out, [np.floor(v)])),
    ("glm_column", lambda v: _glm(v).finalize(), None,
     lambda out, v: np.isfinite(out.logp(out.initial_point()))),
    ("hpd", lambda v: hpd([v] * 200), None, lambda out, v: _same(out, [v, v])),
    ("ess", lambda v: ess([v] * 200), None, lambda out, v: out == 0.0),
    ("quantiles", lambda v: quantiles([v] * 200), None, lambda out, v: _same(out, [v] * 5)),
    ("mc_error", lambda v: mc_error([v] * 200), None,
     lambda out, v: 0.0 <= out <= 1e-12 * abs(v)),  # batch means may round off v
    ("kde", lambda v: kde([v] * 200), None,
     lambda out, v: np.all(np.isfinite(out[0])) and np.all(np.isfinite(out[1]))),
    ("histogram", lambda v: histogram([v] * 200), None,
     lambda out, v: out[0].tolist() == [v] and out[1].tolist() == [200]),
    ("quantiles_probs", lambda v: quantiles(np.arange(100.0), probs=v), ValueError,
     lambda out, v: np.shape(out) == np.shape(v)),
    ("stream_seed", lambda v: stream(v).random(), ValueError,
     lambda out, v: out == np.random.Generator(np.random.Philox(
         key=np.array([v, 0], dtype=np.uint64))).random()),
    ("stream_index", lambda v: stream(0, v).random(), ValueError,
     lambda out, v: out == np.random.Generator(np.random.Philox(
         key=np.array([0, v], dtype=np.uint64))).random()),
    ("sample_seed", _sample_seed, ValueError, lambda out, v: np.all(np.isfinite(out))),
]


@pytest.mark.filterwarnings("error")  # a cast that wraps warns "invalid value"
@pytest.mark.parametrize("value", list(BAD.values()), ids=list(BAD))
@pytest.mark.parametrize("entry, call, plain, check", ENTRIES, ids=[e[0] for e in ENTRIES])
def test_a_reader_returns_what_it_was_given_or_raises_a_documented_error(
        entry, call, plain, check, value):
    try:
        out = call(value)
    except MiniprobError:
        return
    except (TypeError, ValueError) as e:
        assert type(e) is plain, f"{entry} raised a bare {type(e).__name__}: {e}"
        return
    assert check(out, value), f"{entry} read {value!r} as {out!r}"
