"""Trajectory CSV rows in numpy, with repr's shortest round-trip digits.

csv_rows turns blocks of float64 columns into bytes objects of CSV rows
n,c1,c2,...: every cell is byte for byte floattext.fmt's text, repr's
correctly rounded shortest conversion (Gay 1990): the shortest digits that
read back as the same double, and of those the nearest to it.

The numpy path covers +-0.0 and the finite normal x with 1e-4 <= |x| < 1e16
(repr's positional range) whose mantissa is not an exact power of two, so
the reals that read back as x fill an interval symmetric about it.  For
such an x:

- k = 16 - floor(log10|x|), read from tables by binary exponent, puts
  P = |x| 10^k in [1e16, 1e17).  k lies in [1, 20], so 10^k is an exact
  double, and Dekker's split product (numpy has no fma) holds P exactly
  as hi + lo, with hi >= 2^53 an integer.  D = hi + rint(lo) is P's nearest
  integer; the remainder f = P - D is exact and |f| <= 0.5.
- half = spacing(x) 10^k / 2, the interval's half width in units of D, is
  exact (a power of two times 10^k) and lies in (0.55, 11.1], because
  spacing(x) / x is in (2^-53, 2^-52].  A multiple of 10^j reads back as x
  iff its distance to P is below half, or equal to it for an even mantissa
  (Python's rule).
- With R = D mod 10^j, the multiple below is R + f away, and the test
  f < half - R is exact while R <= half + 0.5, where half - R is a
  representable double; for a larger R, half - R rounds to at most -0.5
  and the test fails, as it should.  The multiple above, U = 10^j - R above
  D, is tested as -f < half - U.
- The tests need no case for an end of the interval: an end is a midpoint
  x +- spacing(x) / 2, and a midpoint times 10^k is a whole number only
  for k = 1 and spacing(x) >= 1.  With spacing 1 it ends in 5, so it is no
  multiple of 10; with spacing 2 it is a multiple of 10 but not of 100, and
  then P = 10 x is itself a multiple of 10, nearer than the end.
- As 2 half < 100, both neighbouring multiples of 10^j can fit only at
  j = 1, and at most one multiple of 100 fits.  So the shortest digits are
  the multiple of 100 that fits, else the nearer multiple of 10 that fits,
  else D, whose distance |f| <= 0.5 < half always fits; trailing zeros
  dropped.
- No candidate carries to a power of ten: the only double that reads back
  from 10^m is the one nearest to it, and its P is not below 1e16.

Everything else goes to fmt: subnormals, the values repr writes with an
exponent, powers of two, NaN and infinities, and exact ties: two multiples
of 10 that fit at the same distance, or, where no multiple of 10 fits, P
halfway between two integers (|f| = 0.5).
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np

from .floattext import fmt

# cells per sub-block, the step column included: 1024 rows of n,x1,x2,b, a
# quarter of the engine's 4096-step chunk at stride 1.  5464 to 6144 cells
# split the chunk in 3 and ran trajectory-csv 3 % faster, but raised its
# peak RSS by 0.03-0.06 MB; 5120 split it in 4 as well, no faster
_CELLS = 1 << 12
# bytes per cell: fmt's longest text, '-2.2250738585072014e-308', then ','
_WIDTH = 25
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter for 53-bit doubles
_MANTISSA = (1 << 52) - 1


@functools.cache
def _tables():
    """Lookup tables, built on first use.

    Per biased binary exponent E, for the binade [2^e, 2^(e + 1)) with
    e = E - 1023: k0, the k of its low end, 16 for E outside the numpy path;
    above, its power of ten if it holds one, at and above which k is
    k0 - 1, else inf; and half, spacing / 2.  Per k: pow10 = 10^k and its
    Veltkamp halves pow_hi + pow_lo.  quads: the 4 ASCII digits of 0..9999
    as one uint32, and zeros, their trailing zeros.  keep, after, point:
    per layout class, see _layouts.
    """
    k0 = np.full(2048, 16, np.intp)
    above = np.full(2048, np.inf)
    for e in range(-14, 54):
        m = len(str(2 ** e)) - 1 if e >= 0 else -len(str(2 ** -e))  # floor(log10 2^e)
        k0[1023 + e] = 16 - m
        # 10^(m + 1) < 2^(e + 1), in integers; the doubles of 1e-4..1e-1
        # lie above the reals, so x >= above iff x >= 10^(m + 1)
        if (10 ** max(m + 1, 0) * 2 ** max(-e - 1, 0)
                < 2 ** max(e + 1, 0) * 10 ** max(-m - 1, 0)):
            above[1023 + e] = float(f"1e{m + 1}")
    pow10 = 10.0 ** np.arange(23)
    big = _SPLIT * pow10
    pow_hi = big - (big - pow10)

    digits = np.empty((10, 10, 10, 10, 4), np.uint8)
    ten = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    digits[..., 0] = ten[:, None, None, None]
    digits[..., 1] = ten[:, None, None]
    digits[..., 2] = ten[:, None]
    digits[..., 3] = ten
    digits = digits.reshape(10000, 4)
    return SimpleNamespace(
        k0=k0, above=above, half=np.ldexp(1.0, np.maximum(np.arange(2048), 1) - 1076),
        pow10=pow10, pow_hi=pow_hi, pow_lo=pow10 - pow_hi,
        quads=digits.view(np.uint32).ravel(),
        zeros=np.logical_and.accumulate(digits[:, ::-1] == ord("0"), axis=1).sum(
            axis=1, dtype=np.uint8),
        **_layouts())


def _layouts():
    """Byte masks per layout class k * 17 + t, for the digits of exponent
    e10 = 16 - k with t trailing zeros of 17, as 3 uint64 words.

    A value's 24 text bytes are its sign, then of "0000" d0..d16 the
    digits up to the one before the point, q <= p = 4 + e10, at byte q + 1
    (keep), the point at byte p + 2 (point), and the digits after it up
    to the last nonzero one, and at least one, at byte q + 2 (after).  The
    leading "0000" give the zeros of 0.000ddd.
    """
    k = np.arange(23, dtype=np.int16)[:, None, None]
    t = np.arange(17, dtype=np.int16)[None, :, None]
    pos = np.arange(24, dtype=np.int16)
    e10 = np.clip(16 - k, -4, 15)
    p = 4 + e10
    end = np.maximum(21 - t, 6 + e10)
    masks = {"keep": ((pos - 1 >= 4 + np.minimum(e10, 0)) & (pos - 1 <= p)) * np.uint8(255),
             "after": ((pos - 2 > p) & (pos - 2 < end)) * np.uint8(255),
             "point": (pos == p + 2) * np.uint8(ord("."))}
    return {name: np.broadcast_to(mask, (23, 17, 24)).reshape(-1, 24).view(np.uint64)
            for name, mask in masks.items()}


class _Buffers:
    """The arrays a run's sub-blocks of up to `cells` values reuse."""

    def __init__(self, cells):
        self.groups = np.empty((5, cells), np.uint32)
        # per value: "0000", then "000" d0..d16 from groups, then NULs
        self.digits = np.zeros((cells, 8), np.uint32)
        self.digits[:, 0] = _tables().quads[0]


def _shortest(v, text, buf):
    """Write the text of the float64 values v into text, (len(v), 24)
    uint8, NUL-padded; return the mask of the values left to fmt."""
    a = np.abs(v)
    bits = v.view(np.uint64)
    left = ~((a >= 1e-4) & (a < 1e16) & (bits & _MANTISSA != 0))
    left &= a != 0
    k, D, f, half = _scaled(np.where(left, 1.5, a))  # 1.5: any fast value
    c = _nearest(D, f, half, left)
    _layout(c, k, bits >> 63, text, buf)
    return left


def _scaled(x):
    """k, D = rint(x 10^k), f = x 10^k - D and half for finite x >= 0."""
    tables = _tables()
    e = x.view(np.int64) >> 52
    k = tables.k0.take(e)
    k -= x >= tables.above.take(e)
    p = tables.pow10.take(k)
    half = tables.half.take(e)
    half *= p
    hi = x * p
    big = _SPLIT * x
    xh = big - (big - x)
    xl = x - xh
    ph, pl = tables.pow_hi.take(k), tables.pow_lo.take(k)
    lo = ((xh * ph - hi) + xh * pl + xl * ph) + xl * pl
    n = np.rint(lo)
    D = hi.astype(np.int64)
    D += n.astype(np.int64)
    return k, D, lo - n, half


def _nearest(D, f, half, left):
    """The shortest digits as 17 with trailing zeros, from D, f and half;
    marks the exact ties in left."""
    neg_f = -f
    # the multiples of 10 below and above P, R + f and 10 - R - f away
    D10 = D // 10
    R = (D - D10 * 10).astype(np.float64)
    down1 = f < half - R
    up1 = neg_f < half - (10.0 - R)
    five = R == 5
    nearer_up = (R > 5) | (five & (f > 0))
    left |= down1 & five & (f == 0)
    # the multiples of 100; at most one fits
    D100 = D10 // 10
    R = (D - D100 * 100).astype(np.float64)
    down2 = f < half - R
    up2 = neg_f < half - (100.0 - R)
    fit1 = down1 | up1
    fit2 = down2 | up2
    c = np.where(fit2, (D100 + up2) * 100,
                 np.where(fit1, (D10 + (up1 & nearer_up)) * 10, D))
    # P halfway between two integers leaves D, but not the multiples of 10
    # measured from it, in doubt
    left |= (np.abs(f) == 0.5) & ~(fit1 | fit2)
    left |= c >= 10 ** 17  # a carry to 18 digits, which the docstring rules out
    return c


def _layout(c, k, negative, text, buf):
    """Write the text of the digits c, 17 with trailing zeros, of exponent
    16 - k into text, with a '-' where negative is 1."""
    tables = _tables()
    m = len(c)
    groups = buf.groups[:, :m]
    # c's trailing zeros, from its groups of 4 digits
    tail = tables.zeros.take(_digit_groups(c, groups))
    more = np.flatnonzero(tail == 4)
    for shift in (10 ** 4, 10 ** 8, 10 ** 12):
        if not len(more):
            break
        z = tables.zeros.take(c[more] // shift % 10000)
        tail[more] += z
        more = more[z == 4]
    u = buf.digits[:m]
    u[:, 1:6] = groups.T
    # the digits as 4 little-endian words a value; the text takes them 2
    # bytes on up to the point and 1 byte on after it
    w = u.view(np.uint64)
    cls = k * 17
    cls += tail
    out = (w[:, :3] >> 16) | (w[:, 1:] << 48)
    out &= tables.keep.take(cls, axis=0)
    shifted = (w[:, :3] >> 8) | (w[:, 1:] << 56)
    shifted &= tables.after.take(cls, axis=0)
    out |= shifted
    out |= tables.point.take(cls, axis=0)
    out[:, 0] |= negative * ord("-")
    text[...] = out.view(np.uint8)


def csv_rows(blocks, stride):
    """Bytes of the CSV lines n,c1,c2,... of blocks of float64 columns.

    blocks yields (rows, C) arrays, one row per step 0, stride, 2 stride,
    ...; each bytes object yielded holds the whole rows of one sub-block.
    A cell whose bits equal the cell above it in the same sub-block reuses
    its text, so a -0.0 under a 0.0 still prints as -0.0.  The rows are
    gathered as NUL-padded cell slots, and bytes.translate drops the NULs.
    The buffers are made once, on the first block.
    """
    step = 0
    text = None
    for values in blocks:
        values = np.ascontiguousarray(values, np.float64)
        rows, cols = values.shape
        if text is None:
            per = max(1, _CELLS // (cols + 1))
            cells = per * cols
            # the step texts first, then the cells formatted
            text = np.zeros((per + cells, _WIDTH), np.uint8)
            text[:, -1] = ord(",")
            place = np.empty((per, cols + 1), np.intp)
            place[:, 0] = np.arange(per)
            new = np.empty((per, cols), bool)
            buf = _Buffers(max(per, cells))
            out = np.empty((per * (cols + 1), _WIDTH), np.uint8)
        for start in range(0, rows, per):
            block = values[start:start + per]
            r = len(block)
            _step_texts(step, stride, text[:r, :20], buf.groups)
            step += r * stride
            bits = block.view(np.uint64)
            new[0] = True
            np.not_equal(bits[1:], bits[:-1], out=new[1:r])
            flags = new[:r]
            fresh = block[flags]
            mine = text[per:per + len(fresh), :24]
            left = _shortest(fresh, mine, buf)
            if left.any():
                texts = [fmt(v) for v in fresh[left].tolist()]
                mine[left] = np.array(texts, "S24").view(np.uint8).reshape(-1, 24)
            # a cell's text is the last one formatted in its column
            rank = np.cumsum(flags.ravel()).reshape(r, cols)
            rank *= flags
            np.maximum.accumulate(rank, axis=0, out=place[:r, 1:])
            place[:r, 1:] += per - 1
            rowtext = out[:r * (cols + 1)]
            text.take(place[:r].ravel(), axis=0, out=rowtext)
            rowtext.reshape(r, cols + 1, _WIDTH)[:, -1, -1] = ord("\n")
            # cell texts are ASCII, so every NUL is padding
            yield rowtext.tobytes().translate(None, b"\0")


def _digit_groups(n, groups):
    """Write the 4-digit groups of the int64 array n >= 0 into the rows of
    groups, (rows, len(n)) uint32, as ASCII, the lowest group in the last
    row; return the lowest group."""
    quads = _tables().quads
    q = n // 10000
    low = n - q * 10000
    quads.take(low, out=groups[-1])
    for row in range(len(groups) - 2, -1, -1):
        n = q
        q = n // 10000
        quads.take(n - q * 10000, out=groups[row])
    return low


def _step_texts(first, stride, text, groups):
    """Write the decimal digits of the steps first, first + stride, ...,
    one a row of text, (rows, 20) uint8, NUL-padded on the left."""
    rows = len(text)
    low, high = len(str(first)), len(str(first + (rows - 1) * stride))
    g = groups[:, :rows]
    unused = 4 - (high - 1) // 4
    g[:unused] = 0
    _digit_groups(np.arange(first, first + rows * stride, stride), g[unused:])
    text[...] = g.T.copy().view(np.uint8)
    # the steps grow, so each width takes a run of rows
    start = 0
    for width in range(low, high + 1):
        end = rows if width == high else -(-(10 ** width - first) // stride)
        text[start:end, :20 - width] = 0
        start = end
