"""The kernel's CSV numbers against Python's "%.17g" and "%s", byte for byte.

csv_rows in _chain_kernel.c writes the 17 significant digits of a float64
from exact 128-bit integer arithmetic and lays them out as C's %g does;
cli._write_csv takes its text for every chunk it does not refuse. These
tests compare it with '%.17g' % v on random bit patterns over every
exponent, next to every power of ten, on exact ties and on integers past
10^17, and with '%s' % v on int64 cells. Builds of mutated sources show
which defects those inputs catch.
"""

from fractions import Fraction

import numpy as np
import pytest

from lyapunov_lab import chain, cli
from lyapunov_lab.laws import ROW_CHUNK

RANGE_LOW, RANGE_HIGH = 1e-16, 2.0**120  # nonzero floats in (RANGE_LOW, RANGE_HIGH) are written


def _text(lib, values, kinds="f"):
    """The kernel's text of a table of 8-byte cells, row-major, or None where it refuses the table."""
    cells = np.ascontiguousarray(values)
    assert cells.dtype.itemsize == 8
    out = np.empty(cells.size * cli._CSV_CELL, dtype=np.uint8)
    size = lib.csv_rows(cells.ctypes.data, cells.size // len(kinds), len(kinds), kinds.encode(), out.ctypes.data)
    return None if size < 0 else out[:size].tobytes().decode("ascii")


def _python(values) -> str:
    return "".join("%.17g\n" % v for v in np.asarray(values, dtype=np.float64).tolist())


def _in_range(v: np.ndarray) -> np.ndarray:
    a = np.abs(v)
    return ~np.isfinite(v) | (v == 0.0) | ((a > RANGE_LOW) & (a < RANGE_HIGH))


def _random_patterns(count: int, seed: int = 28) -> np.ndarray:
    """count random 64-bit patterns whose exponent field runs through all 2,048 values in turn."""
    bits = np.random.default_rng(seed).integers(0, 2**64, size=count, dtype=np.uint64)
    exponent = np.arange(count, dtype=np.uint64) % np.uint64(2048)
    return ((bits & ~np.uint64(0x7FF << 52)) | exponent << np.uint64(52)).view(np.float64)


def _powers_of_ten() -> np.ndarray:
    """10^k as a double and its two neighbours, for every k from 10^-17 to 10^37."""
    tens = np.array([float(f"1e{k}") for k in range(-17, 38)])
    return np.concatenate([np.nextafter(tens, 0.0), tens, np.nextafter(tens, np.inf)])


def _ties(count: int, seed: int = 28) -> np.ndarray:
    """m 2^-j for odd m in [2^j 10^(17-j), 2^53) and j = 2 .. 6: its 18th significant digit is an exact 5.

    v = m 2^-j lies in [10^(17-j), 10^(18-j)), so its 17 digits are
    v 10^(j-1) = 5^(j-1) m / 2, and m is odd: the rest is half a unit.
    """
    rng = np.random.default_rng(seed)
    out = []
    for j in range(2, 7):
        lo, hi = 2**j * 10 ** (17 - j), min(2**53, 2**j * 10 ** (18 - j))
        m = rng.integers(lo // 2, hi // 2, size=count) * 2 + 1
        out.append(np.concatenate([[lo + 1, hi - 1], m]) / 2.0**j)
    return np.concatenate(out)


@pytest.fixture(scope="module")
def lib():
    if chain._kernel() is None:
        pytest.skip("no C compiler: _write_csv formats every chunk itself")
    return chain._kernel()


def test_the_range_ends_are_exact():
    # 1e-16 is the double below 10^-16 and the next double lies above it, so |v| > 1e-16 is |v| >= 10^-16
    assert Fraction(RANGE_LOW) < Fraction(1, 10**16) < Fraction(np.nextafter(RANGE_LOW, 1.0))
    assert "%.17g" % RANGE_LOW == "9.9999999999999998e-17"


def test_random_patterns_over_every_exponent(lib):
    v = _random_patterns(10**6)
    ok = _in_range(v)
    assert 80_000 < np.count_nonzero(ok) < 90_000  # 177 of the 2,048 exponents, and zeros, infs and nans
    assert _text(lib, v[ok]) == _python(v[ok])
    # each float alone: the call refuses exactly the values outside the range
    out = np.empty(cli._CSV_CELL, dtype=np.uint8)
    csv_rows, base, dest = lib.csv_rows, v.ctypes.data, out.ctypes.data
    sizes = np.array([csv_rows(base + 8 * i, 1, 1, b"f", dest) for i in range(v.size)])
    assert np.array_equal(sizes < 0, ~ok)


def test_next_to_every_power_of_ten(lib):
    v = _powers_of_ten()
    ok = _in_range(v)
    assert _text(lib, v[ok]) == _python(v[ok])
    # 9.9999999999999998e-17 lies below 10^-16; rounded first, its digits would read 1e-16
    assert _text(lib, [RANGE_LOW]) is None
    assert _text(lib, [np.nextafter(RANGE_LOW, 1.0)]) == "1.0000000000000001e-16\n"
    assert _text(lib, [0.99999999999999989, 1e22, np.nextafter(1e22, 0.0)]) == (
        "0.99999999999999989\n1e+22\n9.9999999999999979e+21\n"
    )


def test_ties_round_half_to_even(lib):
    v = _ties(20_000)
    assert _text(lib, v) == _python(v)
    assert _text(lib, [2251799813685247.25, 2251799813685247.75]) == "2251799813685247.2\n2251799813685247.8\n"


def test_integers_past_ten_to_the_seventeen(lib):
    m = np.random.default_rng(17).integers(10**17, 2**63, size=100_000)
    v = np.concatenate([[1e17, 2.0**63 - 1024.0, 2.0**57, 123456789012345678.0], m.astype(np.float64)])
    assert _text(lib, v) == _python(v)


def test_zeros_infinities_and_nan(lib):
    negative_nan = np.array([0xFFF8000000000001], dtype=np.uint64).view(np.float64)[0]
    v = [0.0, -0.0, np.inf, -np.inf, np.nan, negative_nan]
    assert _text(lib, v) == _python(v) == "0\n-0\ninf\n-inf\nnan\nnan\n"
    # a subnormal, and the smallest normal, lie below the range
    assert _text(lib, [5e-324]) is None and _text(lib, [2.2250738585072014e-308]) is None
    assert _text(lib, [-(2.0**120)]) is None and _text(lib, [-np.nextafter(2.0**120, 0.0)]) is not None


def test_int64_cells(lib):
    v = np.array([-(2**63), 2**63 - 1, 0, -1, 1, 10**18, -(10**18) + 7], dtype=np.int64)
    assert _text(lib, v, "i") == "".join("%s\n" % i for i in v.tolist())
    cells = np.stack([np.array([7, -(2**63)]).view(np.uint64), np.array([0.5, -1e-5]).view(np.uint64)], axis=1)
    assert _text(lib, cells, "if") == "7,0.5\n-9223372036854775808,-1.0000000000000001e-05\n"


def test_write_csv_bytes_equal_without_the_kernel(lib, tmp_path, monkeypatch):
    # an int column and two float columns, in range but for a value each in chunks 1 and 3
    n = 4 * ROW_CHUNK + 9
    rng = np.random.default_rng(5)
    x = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-15.0, 35.0, n)
    x[[0, 1, 2]] = [-0.0, -np.inf, np.nan]
    x[ROW_CHUNK + 5], x[3 * ROW_CHUNK + 1] = 1e-300, -(2.0**125)
    columns = [np.arange(n) - n // 2, x, rng.standard_normal(n)]
    calls = []
    real = lib.csv_rows
    monkeypatch.setattr(lib, "csv_rows", lambda *a: calls.append(real(*a)) or calls[-1])
    cli._write_csv(str(tmp_path / "kernel.csv"), ("i", "x", "y"), columns)
    # the kernel writes chunks 0, 2 and 4 and refuses 1 and 3, which the cell rule writes
    assert [size < 0 for size in calls] == [False, True, False, True, False]
    monkeypatch.setattr(chain, "_kernel", lambda: None)
    cli._write_csv(str(tmp_path / "python.csv"), ("i", "x", "y"), columns)
    assert (tmp_path / "kernel.csv").read_bytes() == (tmp_path / "python.csv").read_bytes()


def test_a_table_of_other_dtypes_skips_the_kernel(lib, tmp_path, monkeypatch):
    monkeypatch.setattr(lib, "csv_rows", None)  # a call would raise
    n = ROW_CHUNK + 1
    expected = "i,x\n" + "".join(f"{i},1\n" for i in range(n))
    for columns in ([np.arange(n, dtype=np.int32), np.ones(n)], [np.arange(n), np.ones(n, dtype=">f8")]):
        cli._write_csv(str(tmp_path / "t.csv"), ("i", "x"), columns)
        assert (tmp_path / "t.csv").read_text() == expected


# mutations of csv_rows, each a text of _chain_kernel.c and its replacement
CSV_MUTATIONS = {
    "round-half-up": (
        "*up = 2 * rest > unit || (2 * rest == unit && (*q & 1));",
        "*up = 2 * rest >= unit;",
    ),
    "exponent-after-rounding": (
        "    scaled(m, e, 16 - E, pow5, &q, &up);\n    if (q >= P17) {",
        "    scaled(m, e, 16 - E, pow5, &q, &up);\n    q += up, up = 0;\n    if (q >= P17) {",
    ),
    "range-guard-k33": ("#define E_MIN (-16)", "#define E_MIN (-17)"),
}


def _mismatches(mutant, values) -> int:
    """The values the mutant writes otherwise than '%.17g', or writes where the kernel refuses them."""
    return sum(_text(mutant, [v]) != (_python([v]) if _in_range(np.array([v]))[0] else None) for v in values)


@pytest.mark.parametrize("mutation", CSV_MUTATIONS)
def test_mutated_csv_kernels_are_caught(lib, tmp_path, mutation):
    from test_normals import _build

    mutant = _build(tmp_path, mutation, replace=CSV_MUTATIONS[mutation])
    caught = {
        "round-half-up": _ties(200),
        "exponent-after-rounding": _powers_of_ten(),
        "range-guard-k33": _random_patterns(20_000),
    }[mutation]
    assert _mismatches(mutant, caught) > 0
