"""Property tests for the report record and the ratio rendering."""

import csv
import io
import json
import re
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from altwronsk.engine import (  # noqa: E402
    ConstReport,
    render_ratio,
    wronskian_of_monomials,
)


@st.composite
def reports(draw):
    # Consistent reports only: const_of_p returns no signed sum that is not
    # a multiple of the Wronskian.
    p = draw(st.integers(min_value=1, max_value=12))
    k = draw(st.integers(min_value=-10**60, max_value=10**60))
    counts = st.integers(min_value=0, max_value=10**60)
    return ConstReport(p, k * wronskian_of_monomials(2 * p),
                       draw(counts), draw(counts))


def non_integers(**bounds):
    return st.fractions(max_denominator=10**6, **bounds).filter(
        lambda v: v.denominator != 1)


def assert_reads_back(record, report):
    # Every field, big integers and "n/d" ratios alike, reads back exactly.
    for key, text in record.items():
        assert Fraction(text) == getattr(report, key), key


@given(reports())
def test_record_survives_json(report):
    record = json.loads(json.dumps(report.to_record()))
    assert record == report.to_record()
    assert_reads_back(record, report)


@given(reports())
def test_record_survives_csv(report):
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(report.to_record()))
    writer.writeheader()
    writer.writerow(report.to_record())
    (row,) = csv.DictReader(io.StringIO(buffer.getvalue()))
    assert row == {key: str(value)
                   for key, value in report.to_record().items()}
    assert_reads_back(row, report)


@given(st.integers())
def test_integers_render_verbatim(value):
    assert render_ratio(Fraction(value)) == str(value)


@given(non_integers(min_value=-10**5, max_value=10**5))
def test_fixed_decimals(value):
    places = 3 if abs(value) < 1 else 2
    text = render_ratio(value)
    assert re.fullmatch(rf"-?\d+\.\d{{1,{places}}}", text)
    assert abs(Fraction(text) - value) <= Fraction(1, 2 * 10**places)


@given(non_integers(min_value=10**5), st.booleans())
@example(Fraction(1_999_999, 2), False)  # 9.999995e5 renders as 1.0e6
def test_scientific_past_1e5(magnitude, negative):
    value = -magnitude if negative else magnitude
    match = re.fullmatch(r"(-?)(\d\.\d)e(\d+)", render_ratio(value))
    assert match
    sign, mantissa, k = match.group(1), Fraction(match.group(2)), int(match.group(3))
    assert (sign == "-") == negative and 1 <= mantissa < 10
    exponent = len(str(int(magnitude))) - 1  # the value's decimal exponent
    # A mantissa that rounds to 10.0 moves to the next exponent as 1.0.
    assert k == exponent or (k == exponent + 1 and mantissa == 1)
    assert abs(mantissa * 10**k - magnitude) <= Fraction(10**k, 20)
