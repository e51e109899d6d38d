"""Every reader of a value from outside refuses the same defects in the same words: the config
dataclasses, the energy table and the two checkpoint records check types and ranges through
``spikescan.fields``, and each refusal reads ``<where><key> must be <kind or rule>, got <value>``.
The key-set check is tested with the records it guards, in ``test_train.py`` and ``test_cli.py``."""

import math
import re

import numpy as np
import pytest

from spikescan.energy import EnergyTable
from spikescan.fields import AT_LEAST_0, AT_LEAST_1, FINITE, NONNEGATIVE, POSITIVE, UNIT, check
from spikescan.quantize import Quantizer
from spikescan.ssm import ModelConfig
from spikescan.train import TrainConfig, _quantizer_record, _read_quantizer, _read_site, _site_record

TABLE = dict(e_acc=0.9e-12, e_mac=4.6e-12, e_shift=0.15e-12, e_cmp=0.1e-12)
QUANTIZER = Quantizer(bits=2, alpha=0.5, beta=-0.25, rounding="floor", name="block0.h")


def _model(key, value):
    return ModelConfig(**{"d_value": 1, "history": 4, "horizon": 1, key: value})


def _quantizer(key, value):
    return _read_quantizer("block0.h", {**_quantizer_record(QUANTIZER), key: value})


def _site(key, value):
    return _read_site("block0.h", {**_site_record(QUANTIZER.grid()), key: value})


# each reader, where its messages start, an integer field (None without one), a number field and its rule
READERS = {
    "model config": (_model, "model config: ", "d_hidden", "rmsnorm_eps", POSITIVE),
    "train config": (lambda k, v: TrainConfig(**{k: v}), "train config: ", "batch_size", "lr", POSITIVE),
    "energy table": (lambda k, v: EnergyTable(**{**TABLE, k: v}), "energy table entry ", None, "e_acc", NONNEGATIVE),
    "quantizer record": (_quantizer, "quantizer block0.h: ", "bits", "alpha", FINITE),
    "site record": (_site, "spike site block0.h: ", "T", "theta", POSITIVE),
}
# each defect, the field it goes into, and what the message says that field must be: its kind, or its rule
DEFECTS = [(True, "int", "an integer"), (True, "float", "a number"), (2.5, "int", "an integer"),
           ("1", "int", "an integer"), ("1", "float", "a number"), (None, "int", "an integer"),
           (None, "float", "a number"), (math.nan, "float", "rule"), (math.inf, "float", "rule"),
           (10 ** 400, "float", "rule")]


@pytest.mark.parametrize("reader, value, field, want", [
    pytest.param(r, v, f, w, id=f"{r}-{f}-{'huge' if v == 10 ** 400 else repr(v)}")
    for r, (_, _, int_key, _, _) in READERS.items() for v, f, w in DEFECTS if f == "float" or int_key])
def test_every_reader_refuses_each_defect_in_one_form(reader, value, field, want):
    """``EnergyTable(e_acc=10**400)`` was accepted, and pricing a report with it raised an uncaught
    ``OverflowError``; ``ModelConfig(d_hidden="1")`` or ``d_hidden=None`` raised a ``TypeError`` deriving
    the default ``delta_rank`` before the width was checked; every other case was refused, in one of
    several wordings."""
    build, where, int_key, float_key, rule = READERS[reader]
    key = int_key if field == "int" else float_key
    with pytest.raises(ValueError) as e:
        build(key, value)
    assert str(e.value) == f"{where}{key} must be {rule if want == 'rule' else want}, got {value!r}"


@pytest.mark.parametrize("value, kind, message", [
    (3, int, None), (3, float, None), (2.5, float, None), (False, bool, None), ("floor", str, None),
    (np.float64(0.5), float, None), (np.int64(3), int, "must be an integer, got "),
    (1, bool, "must be true or false, got 1"), (0, (int, AT_LEAST_1), "must be >= 1, got 0"),
    (-1, (int, AT_LEAST_0), "must be >= 0, got -1"), (1.0, (float, UNIT), "must be in [0, 1), got 1.0"),
    (-0.0, (float, POSITIVE), "must be finite and > 0, got -0.0"),
    (-math.inf, (float, FINITE), "must be finite, got -inf"),
    (-(10 ** 400), (float, NONNEGATIVE), "must be finite and >= 0, got -1000"),
])
def test_check_takes_a_kind_or_a_kind_with_a_rule(value, kind, message):
    if message is None:
        assert check("where: ", "k", value, kind) is value
    else:
        with pytest.raises(ValueError, match=r"^where: k " + re.escape(message)):
            check("where: ", "k", value, kind)
