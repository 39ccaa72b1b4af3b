"""CSV text of large tables, each float64 cell exactly as str() gives it.

``write_csv`` calls ``csv_body`` for tables of 1-D float64 arrays of
at least ``CUTOVER`` cells.  The shortest round-trip digits of each finite,
normal, nonzero float64 are found by Schubfach (R. Giulietti, "The
Schubfach way to render doubles", 2020; cf. Adams 2018, "Ryu: fast
float-to-string conversion", PLDI) in numpy uint64 arithmetic: integer
multiply, shift, compare and division by scalars, so the bytes do not
depend on numpy's SIMD dispatch path.  They are laid out by CPython's
``repr`` rules: fixed notation when -4 < decpt <= 16, with ``.0`` on
integral values, and ``d.ddde±XX`` otherwise.  Zeros, subnormals, ±inf
and nan are str() of the Python value.

A block of rows is one uint8 matrix, a fixed-width slot per cell and
its separator, with a mask of the bytes to keep; the kept bytes, in
order, are the block's text.  A float's slot holds four '0's and its 17
digits with the point put among them, and its exponent field; the mask,
one row of a table per layout (notation, exponent, digit count, sign),
keeps one run of digits and point, the exponent if any, and the
separator.
"""

from __future__ import annotations

import functools

import numpy as np

# Cells from which csv_body beats the join of str() cells.  Writing the
# first rows of an fp solution (r and density) took, best of 300
# interleaved runs on a 2-vCPU x86-64 host (numpy 2.4.6, Python 3.11.7):
#     cells     join    numpy
#       400   0.33 ms  0.44 ms
#       800   0.57 ms  0.53 ms
#      1000   0.70 ms  0.57 ms
#      1600   1.05 ms  0.69 ms
#     24600  17.5  ms  6.3  ms
# The two meet near 700 cells.  Blocks of 2048 rows keep the working set
# of a two-column table near 1 MiB, and were the fastest of 1024-4096.
CUTOVER = 1000
BLOCK_ROWS = 2048

_M32 = np.uint64(0xFFFFFFFF)
_M63 = np.uint64(2 ** 63 - 1)
_1, _2, _10, _32, _52, _63 = (np.uint64(v) for v in (1, 2, 10, 32, 52, 63))
_ONE = np.float64(1).view(np.uint64)          # the bits of 1.0
_K_MIN, _K_MAX = -324, 292
_E8, _E16 = np.uint64(10 ** 8), np.uint64(10 ** 16)

# A float's slot: its sign; its digits with the point among them: four
# '0's, then 17 digits, the point before one of the first 21; a spare
# byte; then, as one 8-byte word, 'e', the exponent's sign and digits,
# right-aligned in 7 bytes, and the separator.
SLOT = 32
_DIGITS, _EXPONENT = 1, 24
_FORMS = 20 * 17 + 17 * 2           # fixed: exponent and digit count; else digit
                                    # count and exponent width


def _floor_log2(numerator: int, denominator: int) -> int:
    """floor(log2(numerator / denominator)) of positive integers."""
    e = numerator.bit_length() - denominator.bit_length()
    return e if (numerator << max(-e, 0)) >= (denominator << max(e, 0)) else e - 1


def _layouts() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """By (exponent + 330) * 18 + n, for the decimal exponents of normal
    floats and digit counts n in 1..17, the layout of a positive float:
    fixed notation by exponent in [-4, 15] and n, then exponent notation
    by n and whether the exponent has three digits.  By layout, the byte
    of the point among the digits; and the slot bytes kept, positive then
    negative."""
    exponent, n = np.arange(-330, 330)[:, None], np.arange(18)
    forms = np.where((exponent >= -4) & (exponent < 16), (exponent + 4) * 17 + n - 1,
                     340 + (n - 1) * 2 + (np.abs(exponent) >= 100)).astype(np.int16)
    exponent, n = np.divmod(np.arange(340), 17)
    exponent, n = exponent - 4, n + 1
    e_n, e_big = np.arange(1, 18).repeat(2), np.tile([False, True], 17)
    point = np.r_[exponent + 5, np.full(34, 5)]     # after four '0's and exponent + 1 digits
    first = np.r_[np.minimum(point[:340] - 1, 4), np.full(34, 4)]
    last = np.r_[np.maximum(n + 4, point[:340] + 1), np.where(e_n > 1, e_n + 4, 4)]
    column = np.arange(22)
    keep = np.zeros((2, _FORMS, SLOT), dtype=bool)
    keep[:, :, _DIGITS:_DIGITS + 22] = (first[:, None] <= column) & (column <= last[:, None])
    keep[:, 340:, _EXPONENT + 2] = e_big
    keep[:, 340:, _EXPONENT + 3:] = True  # 'e', the sign, two digits, the separator
    keep[:, :, -1] = True
    keep[1, :, 0] = True
    return forms.ravel(), point, keep.reshape(2 * _FORMS, SLOT)


@functools.cache
def _multipliers() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Schubfach's g(k) = floor(10**-k / 2**r) + 1, 2**125 <= g < 2**126,
    as g1 = g >> 63 and g0 = g mod 2**63, and h(k) = floor(log2(10**-k)) + 2,
    for k in [-324, 292], built with Python ints."""
    g1, g0, h = [], [], []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10 ** -k, 1) if k <= 0 else (1, 10 ** k)
        log2 = _floor_log2(num, den)
        r = log2 - 125
        g = (num << max(-r, 0)) // (den << max(r, 0)) + 1
        g1.append(g >> 63)
        g0.append(g & (2 ** 63 - 1))
        h.append(log2 + 2)
    return (np.array(g1, dtype=np.uint64), np.array(g0, dtype=np.uint64),
            np.array(h, dtype=np.int64))


@functools.cache
def _glyphs() -> tuple[np.ndarray, ...]:
    """The four ASCII digits of 0..9999 as uint32, and their trailing
    '0's; 'e' and each exponent, right-aligned in the first 7 bytes of a
    uint64; which of the digits 1..20 go before a point at each byte; and
    the float layouts of ``_layouts``."""
    quads = np.arange(10000)[:, None]
    digits = (quads // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8)
    zeros = sum(quads[:, 0] % 10 ** p == 0 for p in range(1, 5)).astype(np.uint8)
    exponents = np.frombuffer(b"".join((b"e%+03d" % e).rjust(7, b"?") + b"?"
                                       for e in range(-330, 330)), dtype=np.uint64)
    before = np.arange(1, 21) < np.arange(21)[:, None]
    return digits.view(np.uint32)[:, 0], zeros, exponents, before, *_layouts()


def _high(a_hi, a_lo, b_hi, b_lo):
    """The high 64 bits of the products a * b, a < 2**63 and b < 2**60,
    from their 32-bit halves: no partial sum reaches 2**64."""
    mid = a_hi * b_lo + a_lo * b_hi + ((a_lo * b_lo) >> _32)
    return a_hi * b_hi + (mid >> _32)


def _rop(g1, g0, cp):
    """Schubfach's rop(g cp / 2**127), g = g1 2**63 + g0: rounded to odd."""
    cp_hi, cp_lo = cp >> _32, cp & _M32
    z = ((g1[2] * cp) >> _1) + _high(*g0, cp_hi, cp_lo)
    return (_high(*g1[:2], cp_hi, cp_lo) + (z >> _63)) | ((z & _M63) != 0)


def _shortest(bits):
    """(x, e): the shortest decimal that rounds to the float64 of each of
    ``bits`` (finite, normal and nonzero), the one nearest it when two are
    as short, as x * 10**(e - 16) with 10**16 <= x < 10**17."""
    g1_table, g0_table, h_table = _multipliers()
    bq = (bits >> _52) & np.uint64(0x7FF)
    frac = bits & np.uint64(2 ** 52 - 1)
    q = bq.astype(np.int64) - 1075
    c = frac | np.uint64(2 ** 52)
    irregular = (frac == 0) & (bq > 1)
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    index = k - _K_MIN
    h = (q + h_table.take(index)).astype(np.uint64)
    g1, g0 = g1_table.take(index), g0_table.take(index)
    g1, g0 = (g1 >> _32, g1 & _M32, g1), (g0 >> _32, g0 & _M32)
    cb = c << _2
    vb = _rop(g1, g0, cb << h)
    vbl = _rop(g1, g0, (cb - _2 + irregular) << h) + (c & _1)     # + out, as vbr - out:
    vbr = _rop(g1, g0, (cb + _2) << h) - (c & _1)                  # an even c's ends count

    s = vb >> _2
    sp10 = s // _10 * _10
    upin = vbl <= sp10 << _2
    wpin = (sp10 + _10) << _2 <= vbr
    tens = (s >= 100) & (upin != wpin)
    uin = vbl <= s << _2
    win = (s + _1) << _2 <= vbr
    mid = (s << _2) + _2                   # 2 (s + t) with t = s + 1
    lower = (uin & ~win) | ((uin == win) & ((vb < mid) | ((vb == mid) & ((s & _1) == 0))))
    d = np.where(tens, np.where(upin, sp10, sp10 + _10), s + ~lower)
    wide = d >= _E16                 # c 2**q >= 2**52 10**k: d has 16 or 17 digits
    return np.where(wide, d, d * _10), k + 15 + wide


def _format(values) -> tuple[np.ndarray, np.ndarray]:
    """(text, keep): str() of each of the float64 ``values`` as the kept
    bytes, in order, of its row of the (cells, SLOT) uint8 matrix ``text``,
    the separator, last, left to the caller."""
    bits = values.view(np.uint64)
    bq = (bits >> _52) & np.uint64(0x7FF)
    usual = (bq != 0) & (bq != 0x7FF)
    x, exponent = _shortest(np.where(usual, bits, _ONE))     # the others are str()'s

    # the 17 digits of x after three '0's, and the count of them that
    # matter: 17 less the trailing zeros of its four last groups of four
    digits, zeros, exponents, before, forms, points, keep_rows = _glyphs()
    top = x // _E16
    x -= top * _E16
    upper = (x // _E8).astype(np.uint32)
    lower = (x - upper * _E8).astype(np.uint32)
    quads = np.empty((len(x), 5), dtype=np.uint32)
    quads[:, 0] = top
    np.floor_divide(upper, 10000, out=quads[:, 1])
    quads[:, 2] = upper - quads[:, 1] * 10000
    np.floor_divide(lower, 10000, out=quads[:, 3])
    quads[:, 4] = lower - quads[:, 3] * 10000
    groups = digits.take(quads).view(np.uint8)
    z = zeros.take(quads[:, 1:].T)
    n = 17 - (z[3] + (z[3] == 4) * (z[2] + (z[2] == 4) * (z[1] + (z[1] == 4) * z[0]))
              ).astype(np.intp)
    form = forms.take((exponent + 330) * 18 + n)
    point = points.take(form)

    # the digits with the point: each digit moves one byte right from the point
    shifted = np.empty((len(x), 20), dtype=np.uint8)
    shifted[:, 0] = ord("0")
    shifted[:, 1:] = groups[:, :19]
    text = np.empty((len(x), SLOT), dtype=np.uint8)
    text[:, 0] = ord("-")
    text[:, _DIGITS] = ord("0")
    text[:, _DIGITS + 1:_DIGITS + 21] = shifted + before.take(point, axis=0) * (groups - shifted)
    text[:, _DIGITS + 21] = groups[:, 19]
    np.put(text, np.arange(_DIGITS, len(x) * SLOT, SLOT) + point, ord("."))
    text.view(np.uint64)[:, _EXPONENT // 8] = exponents.take(exponent + 330)
    keep = keep_rows.take(form + (bits >> _63).astype(np.intp) * _FORMS, axis=0)

    odd = np.flatnonzero(~usual)
    if odd.size:                # str() of each, from the slot's first byte
        cells = [str(v).encode() for v in values[odd].tolist()]
        width = max(map(len, cells))
        text[odd, :width] = np.frombuffer(b"".join(cell.ljust(width) for cell in cells),
                                          dtype=np.uint8).reshape(-1, width)
        keep[odd, :-1] = np.arange(SLOT - 1) < np.array([len(cell) for cell in cells])[:, None]
    return text, keep


def float_cells(columns) -> int:
    """The cells of a table of 1-D float64 arrays, the only tables that
    ``csv_body`` writes; 0 for any other table."""
    if all(type(col) is np.ndarray and col.dtype == np.float64 and col.ndim == 1
           for col in columns):
        return sum(col.size for col in columns)
    return 0


def csv_body(columns, rows: int) -> list:
    """The CSV rows of ``rows``-long 1-D float64 ``columns``, as
    bytes-like blocks whose concatenation is the cell-by-cell join of
    str() of each cell."""
    blocks = []
    for start in range(0, rows, BLOCK_ROWS):
        part = [col[start:start + BLOCK_ROWS] for col in columns]
        text, keep = _format(np.stack(part, axis=1).ravel())
        text = text.reshape(len(part[0]), len(part), SLOT)
        text[:, :, -1] = ord(",")
        text[:, -1, -1] = ord("\n")
        blocks.append(text[keep.reshape(text.shape)])
    return blocks
