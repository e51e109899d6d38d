"""Conversion exactness against a side that shares no read with the spiking forward.

A converted block's spike sites are its quantizers' own grids, so criterion 04
compares two forwards that make the same ``CodeGrid.read`` calls on the same
grid objects: a read that is wrong in both cannot show there.  Here the
spiking forward of criterion 04's 100 models, and of criterion 08's 20 after
saturating a site and threshold scaling, is checked against
``ssm_oracle.taped_forward`` run off the tape, which codes by arithmetic
(``quantize_codes``), decodes by the grid's ``decode`` and computes the
activations with ``nm.unary``: it reads no threshold and no table.  The
check carries its own mutants, tables read 0.1 % off, each of which it must
catch.
"""

import numpy as np
import pytest

from spikescan import quantize
from spikescan.train import apply_threshold_scaling, convert_to_snn
from ssm_oracle import taped_forward
from test_acceptance import random_model, saturate_site

RESULTS: list[str] = []


def criterion_04_gaps() -> list[float]:
    """Per model of criterion 04 (rng 11), the largest |oracle - converted forward|."""
    rng = np.random.default_rng(11)
    gaps = []
    for _ in range(100):
        m, x = random_model(rng)
        convert_to_snn(m)
        gaps.append(float(np.max(np.abs(taped_forward(m, x).data - m.forward(x).data))))
    return gaps


def criterion_08_gaps() -> tuple[list[float], int]:
    """Per model of criterion 08 (rng 15), saturated and threshold scaled, the largest |oracle - converted
    forward|, with the ``x_in`` quantizer's offset set to its saturated site's; and the sites scaled."""
    rng = np.random.default_rng(15)
    gaps, scaled = [], 0
    for _ in range(20):
        m, x = random_model(rng, bits=int(rng.integers(2, 4)), blocks=1)
        convert_to_snn(m)
        saturate_site(m)
        m.blocks[0].quantizers["x_in"].set_beta(m.blocks[0].sites["x_in"].offset)
        scaled += len(apply_threshold_scaling(m, x))
        gaps.append(float(np.max(np.abs(taped_forward(m, x).data - m.forward(x).data))))
    return gaps, scaled


def test_converted_forwards_match_the_arithmetic_oracle():
    worst04 = max(criterion_04_gaps())
    gaps08, scaled = criterion_08_gaps()
    worst08 = max(gaps08)
    line = (f"100 random models, max |oracle - snn| = {worst04:.2e} <= 1e-9; 20 saturated and "
            f"threshold-scaled models ({scaled} sites scaled), max |oracle - snn| = {worst08:.2e} <= 1e-9")
    RESULTS.append(line)
    print(line)
    assert worst04 <= 1e-9 and worst08 <= 1e-9
    assert scaled >= 20  # every model scales at least its saturated site


@pytest.mark.parametrize("site", [None, "h", "y"], ids=["every-table", "h-table", "y-table"])
def test_a_table_read_off_by_a_tenth_of_a_percent_is_caught(monkeypatch, site):
    """Every code-grid table, or only the ``h`` or ``y`` site's, scaled by 1 + 1e-3 where it is built: the
    converted forward then leaves the oracle.  (``x_in`` or ``delta_raw`` alone would not show at this
    size, since the sites downstream of them quantize again.)"""
    table = quantize.CodeGrid.table

    def off(grid, fn=None):
        if fn not in grid._tables and (site is None or grid.name.endswith(f".{site}")):
            grid._tables[fn] = table(grid, fn) * (1 + 1e-3)
        return table(grid, fn)

    monkeypatch.setattr(quantize.CodeGrid, "table", off)
    gaps = criterion_04_gaps()
    print(f"{site or 'every'} table 0.1 % off: max |oracle - snn| = {max(gaps):.3g}, "
          f"{sum(g > 0 for g in gaps)} of 100 models off")
    assert max(gaps) > 1e-9
