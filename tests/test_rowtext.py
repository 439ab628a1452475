"""The trajectory CSV writer against repr, its reference.

csv_rows makes repr's shortest round-trip digits in numpy for most values
and falls back on repr for the rest; every cell must be repr's text byte for
byte.  The sweeps also count the values _shortest, the numpy path, leaves
to repr, so a path that left everything to repr would fail them.
"""

import tracemalloc

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exdyn import rowtext
from exdyn.cli import _trajectory_columns
from exdyn.config import parse_config
from exdyn.harness import _Run
from exdyn.rowtext import _Buffers, _shortest, csv_rows

_TINY = np.finfo(np.float64).tiny  # the smallest normal double


def _rows(values, stride=1):
    """What csv_rows writes for the float64 values as one column."""
    return b"".join(csv_rows([np.asarray(values, np.float64).reshape(-1, 1)], stride))


def _want(values, stride=1):
    return "".join(f"{n * stride},{v!r}\n"
                   for n, v in enumerate(np.asarray(values, np.float64).tolist())).encode()


def _formatted(values):
    """How many of the float64 values the numpy path formats itself."""
    values = np.ascontiguousarray(values, np.float64)
    text = np.zeros((len(values), 24), np.uint8)
    return int((~_shortest(values, text, _Buffers(len(values)))).sum())


def _positional_bits(rng, n):
    """n random doubles of either sign with |x| in [2^-14, 2^54), which
    covers repr's positional range 1e-4 <= |x| < 1e16."""
    exponent = rng.integers(1023 - 14, 1023 + 54, n).astype(np.uint64)
    bits = (exponent << np.uint64(52)) | rng.integers(0, 1 << 52, n, dtype=np.uint64)
    bits |= rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63)
    return bits.view(np.float64)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                max_size=40))
@example([0.0, -0.0, 0.0, 5e-324, -_TINY, 1e-4, 1e16, 0.1, 0.1, 1e15 + 0.25])
def test_every_finite_double_prints_as_repr(values):
    assert _rows(values) == _want(values)


def test_a_million_random_bit_patterns_print_as_repr():
    rng = np.random.default_rng(20231)
    anything = np.frombuffer(rng.bytes(8 * 500_000), np.float64)
    positional = _positional_bits(rng, 500_000)
    # two columns, so the rows also mix the two paths
    block = np.column_stack((anything, positional))
    got = b"".join(csv_rows([block], 1))
    want = "".join(f"{n},{a!r},{b!r}\n" for n, (a, b) in
                   enumerate(zip(anything.tolist(), positional.tolist()))).encode()
    assert got == want
    # inside 1e-4 <= |x| < 1e16 the numpy path leaves only powers of two
    # and exact ties to repr; ties take 1.5 % of these values, nearly all
    # above 1e14, where x 10^k is often a whole or half number
    inside = positional[(np.abs(positional) >= 1e-4) & (np.abs(positional) < 1e16)]
    inside = inside[:100_000]
    assert _formatted(inside) > 0.98 * len(inside)
    small = inside[np.abs(inside) < 1e12]
    assert _formatted(small) > 0.999 * len(small)


def _adversarial():
    rng = np.random.default_rng(7)
    scale = 10.0 ** rng.integers(-4, 16, 40_000)
    decimals = np.array([round(x, int(p)) for x, p in
                         zip((rng.random(40_000) * scale).tolist(),
                             rng.integers(1, 17, 40_000))])
    tenths = np.arange(1, 20_000) / 10.0
    powers = np.array([10.0 ** m for m in range(-5, 18)] + [1e-4, 1e16])
    twos = np.ldexp(1.0, np.arange(-20, 60))
    carries = np.array([0.09999999999999999, 0.9999999999999999, 9.999999999999998,
                        99999.99999999999, 999999999999999.9, 9999999999999998.0,
                        0.00009999999999999999, 0.0009999999999999998])
    ties = np.array([1e15 + 0.25, 1e15 + 0.75, 5e15 + 0.5, 2.5, 0.5])
    tiny = np.array([0.0, -0.0, 5e-324, -5e-324, _TINY, -_TINY, _TINY / 2,
                     np.nextafter(_TINY, 0), 1e-310, 1e-320])
    edges = np.concatenate([decimals, tenths, powers, twos, carries, ties])
    return np.concatenate([edges, -edges, np.nextafter(edges, 0),
                           np.nextafter(edges, np.inf), np.nextafter(-edges, -np.inf),
                           tiny])


def test_adversarial_values_print_as_repr():
    # decimals rounded to 1-16 places, i/10, powers of ten and two, values
    # just under a power of ten, exact ties and subnormals, and the
    # neighbours of each on both sides
    values = _adversarial()
    assert _rows(values, 3) == _want(values, 3)
    assert _formatted(values) > 0.9 * len(values)


def test_the_numpy_path_leaves_to_repr_what_it_does_not_cover():
    # powers of two, exponent form, subnormals, NaN, infinities, P halfway
    # between two integers and two candidates at the same distance
    left = [0.5, 2.0 ** 40, 9.99e-5, -1e16, 5e-324, _TINY / 3, np.nan, np.inf,
            -np.inf, 1e15 + 0.25, 937730448104794.75]
    assert _formatted(left) == 0
    covered = [0.0, -0.0, 1e-4, -0.1, 2.5, 9999999999999998.0, 1e15 + 0.125,
               0.30000000000000004, 123456.789]
    assert _formatted(covered) == len(covered)


def test_repeats_copy_the_text_above_by_bits():
    # a value equal to the one above reuses its text; a sub-block edge and
    # a NaN or a -0.0 under its equal are formatted afresh
    values = [0.5, 0.5, -0.0, 0.0, 0.0, np.nan, np.nan, 0.1, 0.1, 0.1, -0.1]
    assert _rows(values * 400) == _want(values * 400)


def test_the_writer_holds_about_200_bytes_per_sub_block_cell():
    # about 20 sub-blocks of the 1-D pair's n,x1,x2,b, in the engine's
    # chunks.  The writer holds one sub-block's text, gathered rows and
    # bytes, and the formatting temporaries: about 210 B per cell, where a
    # bool mask of the gathered rows made it 295 B
    spec = parse_config("preset = fig3-left\n", default_experiment="trajectory")
    n_steps = 20 * (rowtext._CELLS // 4) - 1
    blocks = list(_trajectory_columns(
        _Run(spec.model).blocks(n_steps, 1, means_only=True), True))
    list(csv_rows([blocks[0][:2]], 1))  # builds the tables outside the trace
    count = 0
    tracemalloc.start()
    try:
        for text in csv_rows(blocks, 1):
            assert isinstance(text, bytes)
            assert b"\0" not in text and text.endswith(b"\n")
            count += 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count >= 20
    assert peak < 256 * rowtext._CELLS, peak / rowtext._CELLS
