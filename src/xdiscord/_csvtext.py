"""The `evolve` CSV text: each float as Python's "%.17g" gives it, computed
for whole arrays at once.

A value x with 1e-29 < |x| < 1e17 prints D, its 17 significant digits,
with decimal exponent E: D = round-half-even(|x| * 10**(16 - E)), and
10**16 <= D < 10**17. The scaling is exact up to ~1e-14 units of the last
digit: |x| * 2**s is exact (`ldexp`), and 5**s (s <= 45) is an exact
double-double, multiplied by Dekker's exact product (Dekker 1971; see
Steele & White, PLDI 1990, on correctly rounded binary-to-decimal
conversion). A value within 1e-6 units of a rounding tie, out of that range
or not finite is formatted by Python's "%.17g" instead, so every value
prints the same bytes as "%.17g" % x. Zeros print "0" and "-0".

Each value is then written into a fixed frame of _WIDTH bytes, whose
unused slots are NUL: sign; the "0." lead and up to three zeros of
0.0001 <= |x| < 1; the 17 digits with a slot for the dot; the exponent
suffix; the separator. One `bytes.translate` deletes the NULs. The frame's
layout depends only on E and on the position of the last nonzero digit, so
it comes from a table.
"""

from __future__ import annotations

import numpy as np

#: Frame columns: 0 sign, 1-5 lead, 6-23 digits and dot, 24-27 exponent
#: suffix, 28 separator. A fallback text ("%.17g" is at most 24 bytes) fits.
_WIDTH = 29
_DIGITS_AT = 6
_SUFFIX_AT = 24
#: Cells per chunk (630 rows of the 13 `evolve` columns): the chunk's
#: temporaries, ~3 MB, stay near a core's L2 cache; 13,000 were slower.
_CHUNK_CELLS = 8192
#: Smallest and largest exponent of a value formatted here (the double
#: 1e-29 is below 10**-29, so 1e-29 itself is not).
_E_MIN, _E_MAX = -29, 16
#: Half-width of the band around a rounding tie, in units of the 17th digit,
#: whose values take Python's "%.17g": the scaling errs by ~1e-14 at most.
_TIE_BAND = 1e-6

# 5**k = hi + lo exactly for k <= 45, and hi = hh + hl split in 26-bit halves.
_POW5_HI = np.array([float(5**k) for k in range(46)])
_POW5_LO = np.array([float(5**k - int(float(5**k))) for k in range(46)])
_POW5_HH = _POW5_HI * 134217729.0 - (_POW5_HI * 134217729.0 - _POW5_HI)
_POW5_HL = _POW5_HI - _POW5_HH


def _quads():
    """The four ASCII digits of each of 0..9999 as one little-endian uint32;
    and, for each group g of digits 4g+1..4g+4 of a 17-digit number, the
    index in the number of the group's last nonzero digit (0 if it has
    none), so that the largest over the four groups is the number's last
    nonzero digit."""
    quad = np.arange(10000)
    text = (quad[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")).astype(np.uint8)
    places = 4 - (quad % 10 == 0) - (quad % 100 == 0) - (quad % 1000 == 0)
    last = [np.where(quad, places + 4 * g, 0).astype(np.int8) for g in range(4)]
    return text.view("<u4").ravel(), last


_QUAD_TEXT, _QUAD_LAST = _quads()


def _layouts():
    """Per (E, last nonzero digit L) of a value: the frame's fixed bytes
    (lead, dot, suffix) and the masks that place digit i at column
    _DIGITS_AT + i (before the dot) or one further (after it). Each is one
    row of _WIDTH bytes, as a void scalar so that a gather copies the row."""
    exps = np.arange(_E_MIN, _E_MAX + 1)[:, None, None]
    last = np.arange(17)[None, :, None]
    col = np.arange(_WIDTH) - _DIGITS_AT
    # Digits 0..ip come before the dot: the integer part of a fixed-form
    # value (none when ip = -1, where the lead holds the dot) or the first
    # digit of an exponent-form one. The dot is printed only if a nonzero
    # digit follows it.
    ip = np.where(exps >= 0, exps, np.where(exps >= -4, -1, 0))
    end = np.maximum(last, ip)
    dot = np.where((last > ip) & (ip >= 0), ip, _WIDTH)
    affixes = bytearray(_WIDTH * (_E_MAX - _E_MIN + 1))
    for row, e in enumerate(range(_E_MIN, 0)):
        at = row * _WIDTH
        if e >= -4:
            affixes[at + 1 : at + 1 + 1 - e] = b"0." + b"0" * (-e - 1)
        else:
            affixes[at + _SUFFIX_AT : at + _SUFFIX_AT + 4] = b"e%+03d" % e
    fixed = np.frombuffer(affixes, np.uint8).reshape(-1, 1, _WIDTH) + (col == dot + 1) * ord(".")
    before = (col >= 0) & (col <= np.minimum(dot, end))
    after = (col >= dot + 2) & (col <= end + 1)
    return tuple(a.astype(np.uint8).view(f"V{_WIDTH}").ravel() for a in (fixed, before, after))


_FIXED, _BEFORE, _AFTER = _layouts()


def _scaled(v, s):
    """v * 10**s as an unevaluated sum p + q, for 0 <= s <= 45."""
    a = np.ldexp(v, s.astype(np.int32))
    p = a * np.take(_POW5_HI, s)
    split = a * 134217729.0
    ah = split - (split - a)
    al = a - ah
    hh, hl = np.take(_POW5_HH, s), np.take(_POW5_HL, s)
    err = ((ah * hh - p) + ah * hl + al * hh) + al * hl
    return p, err + a * np.take(_POW5_LO, s)


def _frames(x: np.ndarray) -> np.ndarray:
    """The frames of a 1-D float64 array, as an (n, _WIDTH) uint8 array
    whose separator column is NUL."""
    n = len(x)
    mag = np.abs(x)
    zero = mag == 0.0
    inside = (mag > 1e-29) & (mag < 1e17)
    v = np.where(inside, mag, 1.0)
    # log10 errs by a few ulps, so nudged up its floor is E or, just below a
    # power of ten, E + 1 (17 for 99999999999999984, hence the cap). An
    # unrounded p + q below 1e16 marks E + 1: the rounded digits would not
    # (they give 1e-28 for 9.9999999999999997e-29).
    exp = np.minimum(np.floor(np.log10(v) + 1e-12), _E_MAX).astype(np.intp)
    p, q = _scaled(v, 16 - exp)
    low = (p - 1e16) + q < 0.0
    exp -= low
    redo = np.flatnonzero(low)
    p[redo], q[redo] = _scaled(v[redo], 16 - exp[redo])
    # Integer and fraction apart: their float sum above 2**53 drops digits.
    whole = np.floor(p)
    frac = (p - whole) + q
    step = np.rint(frac)
    tie = np.abs(frac - step) > 0.5 - _TIE_BAND
    digits = whole.astype(np.int64) + step.astype(np.int64)
    carry = digits == 10**17
    digits[carry] = 10**16
    exp += carry
    digits[zero] = 0

    head, tail = np.divmod(digits, 10**8)
    first, head = np.divmod(head, 10**8)
    quads = (*np.divmod(head, 10**4), *np.divmod(tail, 10**4))
    last = np.maximum.reduce([np.take(t, g) for t, g in zip(_QUAD_LAST, quads)])
    # Digit i at column _DIGITS_AT + i of `unshifted`; `unshifted` one byte
    # further on is `shifted`, with digit i at column _DIGITS_AT + i + 1.
    buf = np.zeros(n * _WIDTH + 1, np.uint8)
    unshifted, shifted = buf[1:], buf[:-1]
    cells = unshifted.reshape(n, _WIDTH)
    cells[:, _DIGITS_AT] = first + ord("0")
    groups = cells[:, _DIGITS_AT + 1 : _DIGITS_AT + 17].view("<u4")
    for g, quad in enumerate(quads):
        groups[:, g] = np.take(_QUAD_TEXT, quad)
    key = (exp - _E_MIN) * 17 + last
    out = np.take(_FIXED, key).view(np.uint8)
    out += unshifted * np.take(_BEFORE, key).view(np.uint8)
    out += shifted * np.take(_AFTER, key).view(np.uint8)
    out = out.reshape(n, _WIDTH)
    out[:, 0] = np.signbit(x) * ord("-")
    for i in np.flatnonzero(~(inside | zero) | tie):
        fallback = b"%.17g" % x[i]
        out[i] = 0
        out[i, : len(fallback)] = list(fallback)
    return out


def csv_rows(table) -> str:
    """The rows of a 2-D float table, fields joined by "," and each row ended
    by a newline, each field the "%.17g" of its value. The rows are formatted
    in chunks of about _CHUNK_CELLS values."""
    table = np.ascontiguousarray(table, dtype=float)
    n_cols = table.shape[1]
    rows = max(1, _CHUNK_CELLS // n_cols)
    separators = np.full(n_cols, ord(","), np.uint8)
    separators[-1] = ord("\n")
    parts = []
    for start in range(0, len(table), rows):
        chunk = table[start : start + rows]
        block = _frames(chunk.ravel()).reshape(len(chunk), n_cols, _WIDTH)
        block[:, :, -1] = separators
        parts.append(block.tobytes().translate(None, b"\0"))
    return b"".join(parts).decode("ascii")
