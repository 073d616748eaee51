"""The bulk formatter writes the bytes of ``format(x, ".17g")``.

Every check compares one ``csvtext`` table, joined into LF-ended lines,
with Python's own printer on the same float64 values.
"""

import importlib.util

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mfoc import csvtext


def bulk_lines(values, module=csvtext) -> str:
    table = module.rows([module.fields(np.asarray(values, dtype=float))])
    return module.compact(table).decode("ascii")


def python_lines(values) -> str:
    return "".join(format(float(x), ".17g") + "\n" for x in values)


def assert_formats_like_python(values, module=csvtext):
    got, want = bulk_lines(values, module), python_lines(values)
    if got != want:
        pairs = zip(got.split("\n"), want.split("\n"), values)
        x, g, w = next((x, g, w) for g, w, x in pairs if g != w)
        raise AssertionError(f"{x!r}: bulk {g!r}, format {w!r}")


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_any_floats(values):
    assert_formats_like_python(values)


def test_random_bit_patterns_of_every_exponent_class():
    rng = np.random.default_rng(2024)
    n = 200_000
    # sign, biased exponent and mantissa drawn apart, so that subnormals
    # (exponent 0) and inf / nan (exponent 2047) are as common as any class
    sign = rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63)
    exponent = rng.integers(0, 2048, n, dtype=np.uint64) << np.uint64(52)
    mantissa = rng.integers(0, 1 << 52, n, dtype=np.uint64)
    values = (sign | exponent | mantissa).view(np.float64)
    assert np.unique(exponent).size == 2048
    assert_formats_like_python(values)


def test_powers_of_ten_and_their_neighbours():
    powers = np.array([float(f"1e{p}") for p in range(-323, 309)])
    below = np.nextafter(powers, 0.0)
    above = np.nextafter(powers, np.inf)
    assert_formats_like_python(np.concatenate([powers, below, above]))


def test_notation_switch_points():
    # around 1e-4 and 1e16 the fixed and exponent notations meet; near 1e17
    # the exponent notation takes over, and digits may round up to a power
    values = []
    for edge in (1e-4, 1e16, 1e17):
        steps = np.arange(-64, 65)
        values.append(edge + steps * np.spacing(edge))
        values.append(np.nextafter(edge, 0.0) - np.arange(64) * np.spacing(edge))
    values = np.concatenate(values)
    assert_formats_like_python(np.concatenate([values, -values]))


def test_special_values():
    info = np.finfo(np.float64)
    values = [0.0, -0.0, np.inf, -np.inf, np.nan, info.max, -info.max]
    values += [info.smallest_normal, info.smallest_subnormal, -info.smallest_subnormal]
    text = bulk_lines(values)
    assert text == python_lines(values)
    assert text.startswith("0\n-0\ninf\n-inf\nnan\n1.7976931348623157e+308\n")


def test_a_wide_type_without_extra_precision_falls_back_to_format(monkeypatch):
    # a copy of the module whose wide type is float64 certifies no value,
    # and still writes the same bytes
    monkeypatch.setattr(np, "longdouble", np.float64)
    spec = importlib.util.spec_from_file_location("csvtext_f64", csvtext.__file__)
    narrow = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(narrow)
    monkeypatch.undo()
    assert narrow._WIDE is np.float64
    calls = []
    monkeypatch.setattr(narrow, "fmt", lambda x: calls.append(x) or csvtext.fmt(x))
    rng = np.random.default_rng(7)
    values = rng.normal(size=500) * 10.0 ** rng.integers(-300, 300, 500)
    assert_formats_like_python(values, narrow)
    assert len(calls) == values.size
