"""gfcap's nine records keep the semantics of frozen dataclasses: fields by
position or keyword in a fixed order, defaults, no assignment or deletion,
equality and hashing over the compared fields, and the dataclass repr,
which a dataclass of the same fields is the judge of."""

import dataclasses
import math
import pickle

import pytest

from gfcap import _waterfill_arrays as arrays
from gfcap import simulator, waterfill
from gfcap.feedback import BoundReport, SkSolution
from gfcap.spectrum import PAPER_CHANNEL, PsdSpec
from gfcap.waterfill import WaterfillSolution

SK = SkSolution(1.0, 0.46898994354043083, 1.0923711072424434, 0.0)

# (class, field names in order, one value per field, defaults); callables
# are builtins, so that every record pickles
RECORDS = [
    (PsdSpec, ("form", "coeffs", "sigma2", "values", "level"),
     ("white", None, None, None, 2.0),
     {"coeffs": None, "sigma2": None, "values": None}),
    (WaterfillSolution, ("power", "water_level", "capacity_bits",
                         "power_residual", "input_psd", "band_crossings"),
     (1.0, 2.6, 0.78, 1e-17, abs, (2.1,)), {"band_crossings": ()}),
    (waterfill._Form, ("vanishes", "mean_and_bound", "partial_level",
                       "capacity"), (bool, divmod, None, pow), {}),
    (SkSolution, ("power", "x0", "rate_bits", "residual"),
     (1.0, 0.46898994354043083, 1.0923711072424434, 0.0), {}),
    (BoundReport, ("power", "c_p", "c_2p", "cp_double", "cp_plus_half",
                   "cy_curve", "cy_min_alpha", "cy_min_value",
                   "conjecture_bound", "sk", "sk_rate", "violated",
                   "margin"),
     (1.0, 0.78, 1.0, 1.57, 1.28, ((0.5, 1.9, 1.3),), 1.36, 1.27, 1.0, SK,
      1.09, True, 0.09), {}),
    (simulator.SchemeConfig, ("power", "horizon", "rate_bits", "seed"),
     (1.0, 40, 0.9, 7), {"seed": 0}),
    (simulator.VarianceTrace, ("transmit_power", "error_variance",
                               "log2_error_variance", "contraction", "signs",
                               "contraction_estimate"),
     ((1.0,), (0.08, 0.04), (-3.6, -4.6), (0.7,), (1.0,), 0.47), {}),
    (simulator.MonteCarloReport, ("trials", "horizon", "pam_levels",
                                  "empirical_avg_power", "decode_errors",
                                  "error_rate", "contraction_empirical",
                                  "empirical_error_variance", "degenerate",
                                  "message_grid_saturated", "seed"),
     (100, 40, 2 ** 36, 0.99, 0, 0.0, 0.47, 1e-20, False, False, 5), {}),
    (simulator._Step, ("sign", "gain_vec", "innov_var", "ratio"),
     (-1.0, (0.2, 1.0), 2.5, 0.4), {}),
]
IDS = [record[0].__name__ for record in RECORDS]


@pytest.fixture(params=RECORDS, ids=IDS)
def record(request):
    return request.param


def test_construction_by_position_and_keyword(record):
    cls, fields, values, _ = record
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(fields, values)))
    for obj in (by_position, by_keyword):
        assert tuple(getattr(obj, f) for f in fields) == values
    assert by_position == by_keyword
    assert hash(by_position) == hash(by_keyword)


def test_defaults(record):
    cls, fields, values, defaults = record
    given = {f: v for f, v in zip(fields, values) if f not in defaults}
    obj = cls(**given)
    assert {f: getattr(obj, f) for f in fields} == {**given, **defaults}
    if not defaults:
        with pytest.raises(TypeError):
            cls(*values[:-1])


def test_unknown_repeated_and_extra_arguments_raise(record):
    cls, fields, values, _ = record
    with pytest.raises(TypeError):
        cls(*values, unknown=1)
    with pytest.raises(TypeError):
        cls(*values, **{fields[0]: values[0]})
    with pytest.raises(TypeError):
        cls(*values, values[0])


def test_frozen(record):
    cls, fields, values, _ = record
    obj = cls(*values)
    for f in fields + ("unknown",):
        with pytest.raises(AttributeError):
            setattr(obj, f, values[0])
        with pytest.raises(AttributeError):
            delattr(obj, f)
    assert tuple(getattr(obj, f) for f in fields) == values


def test_repr_and_equality_match_a_frozen_dataclass(record):
    cls, fields, values, _ = record
    reference = dataclasses.make_dataclass(cls.__name__, fields, frozen=True)
    reference.__qualname__ = cls.__qualname__
    assert repr(cls(*values)) == repr(reference(*values))
    assert cls(*values) != reference(*values)
    assert cls(*values) != values


def test_pickle_round_trip(record):
    cls, _, values, _ = record
    obj = cls(*values)
    assert pickle.loads(pickle.dumps(obj)) == obj


def test_equal_specs_hash_equal_and_share_the_sample_cache():
    spec = PsdSpec.ma((1.0, 0.5, -0.3))
    twin = PsdSpec.ma([1, 0.5, -0.3])
    assert twin is not spec and twin == spec and hash(twin) == hash(spec)
    assert PsdSpec.ma((1.0, 0.5, -0.3), 2.0) != spec
    assert PsdSpec.white(2.0) != PsdSpec.white(1.0)
    paper = PsdSpec("ma", (1.0, 1.0), 1.0)
    assert paper == PAPER_CHANNEL and paper.values is paper.level is None
    arrays._ma_samples.cache_clear()
    samples = arrays._ma_samples(spec)
    assert arrays._ma_samples(twin) is samples
    info = arrays._ma_samples.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def test_waterfill_equality_ignores_the_input_psd():
    solution = WaterfillSolution(1.0, 2.6, 0.78, 1e-17, abs, (2.1,))
    same = WaterfillSolution(1.0, 2.6, 0.78, 1e-17, math.sqrt, (2.1,))
    assert same == solution and hash(same) == hash(solution)
    assert WaterfillSolution(1.0, 2.6, 0.78, 1e-17, abs) != solution
