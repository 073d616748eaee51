"""CSV text of float64 arrays, byte for byte as ``format(x, ".17g")``.

``fmt`` formats one number; the summary rows use it. ``fields`` formats a
whole array at once into a uint8 table, one row per value, and ``rows``
joins such tables into comma-separated, LF-terminated CSV rows. A row holds
its text left to right with NULs where a character is absent; ``compact``
drops every NUL, so text is laid out in fixed columns and squeezed once.

The bulk route scales |x| by 10^k, with k chosen so that the result y lies
in [1e16, 1e17), using powers of ten correctly rounded to numpy's widest
float type. The 17 significant digits are round(y), and the decimal
exponent is 16 - k. Two roundings, the power's and the product's, each
within half an ulp of the wide type (whose operations round correctly, as
IEEE formats do), separate y from the exact |x| 10^k. A value is certified
when y, give or take that error, stays inside [1e16, 1e17) and holds no
half-integer: the exact value then has the same decade and rounds to the
same digits, and exact ties are never certified. Every other value (zeros,
infinities, NaN and the uncertified) is printed by ``format`` itself, so
the text never depends on the platform: a wide type without extra
precision certifies nothing and only sends every value down that route.
With the x87 80-bit type, about 1% of desk's densities fall back.
"""

from __future__ import annotations

import functools

import numpy as np

# the longest ".17g" text of a float64: "-1.2345678901234567e-308"
FIELD = 24

_WIDE = np.longdouble
_BITS = np.finfo(_WIDE).nmant + 1
# the computed y is within 2u + u^2 of the exact value, relative, with u
# the wide type's unit roundoff; 3u covers it relative to the computed value
_REL = _WIDE(1.5) * np.finfo(_WIDE).eps
# the scales 10^k for a float64 in [5e-324, 1.8e308]: k in [-292, 340]
_K_MIN, _K_MAX = -300, 350


def fmt(x) -> str:
    """One number as 17 significant digits, the format of every CSV value."""
    return format(float(x), ".17g")


@functools.cache
def _powers() -> np.ndarray:
    """10^k for k from _K_MIN to _K_MAX, each rounded to nearest, ties to
    even, in the wide type; built on first use, so that commands which
    never format an array do not pay for it."""
    qs, shifts = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        # 10^k ~ q 2^-s with q of exactly _BITS bits
        s = _BITS - (num.bit_length() - den.bit_length())
        q, r = divmod(num << s, den) if s >= 0 else divmod(num, den << -s)
        if q >= 1 << _BITS:
            s -= 1
            q, r = divmod(num << s, den) if s >= 0 else divmod(num, den << -s)
        if 2 * r > den or (2 * r == den and q & 1):
            q += 1
        qs.append(q)
        shifts.append(-s)
    # q from its 32-bit pieces, high first: each partial sum is a prefix of
    # q's bits, so every step is exact
    x = np.zeros(len(qs), dtype=_WIDE)
    for shift in range(_BITS - _BITS % 32, -1, -32):
        x = x * _WIDE(2.0**32) + np.array([(q >> shift) & 0xFFFFFFFF for q in qs], dtype=_WIDE)
    # a wide type with float64's range overflows 10^309 and beyond to inf
    with np.errstate(over="ignore"):
        return np.ldexp(x, shifts)


_E16, _E17 = _WIDE(1e16), _WIDE(1e17)
# The certification reads float64 images of y and of its fraction. y in
# [_LO, _HI) keeps y +- _REL y inside [1e16, 1e17): the bounds are moved in
# by one float64 ulp, more than y's image is off by. A certified y stays
# below 10^17 - 16, so its rounded digits never carry into a new decade.
_LO = float(_E16 * (1 + 2 * _REL)) + 2.0
_HI = float(_E17 * (1 - 2 * _REL)) - 16.0
# the fraction's image is off by at most 2^-54, under 2^-54 / 1e16 of y
_REL_F = float(_REL) + 2.0**-54 / 1e16
# the digit places of the two halves of a 17-digit integer, one row each
_PLACES_HI = 10.0 ** np.arange(8, -1, -1)[:, None]
_PLACES_LO = 10.0 ** np.arange(7, -1, -1)[:, None]

# The source rows of a value's characters, in the order of its exponent
# notation: the sign, the first digit, the point, the other 16 digits, 'e',
# the exponent's sign and its three digits; then a '0' and a NUL for the
# fixed notation.
_SIGN, _POINT, _ZERO, _NUL = 0, 2, 24, 25
_SOURCE = 26


def _digit(j: int) -> int:
    return 1 if j == 0 else j + 2


def _templates() -> np.ndarray:
    """Source rows of the FIELD characters of the fixed notation with
    decimal exponent -4..16, one row each."""
    rows = []
    for e in range(-4, 17):
        if e < 0:
            cols = [_SIGN, _ZERO, _POINT] + [_ZERO] * (-e - 1)
            cols += [_digit(j) for j in range(17)]
        else:
            cols = [_SIGN] + [_digit(j) for j in range(e + 1)] + [_POINT]
            cols += [_digit(j) for j in range(e + 1, 17)]
        rows.append(cols + [_NUL] * (FIELD - len(cols)))
    return np.array(rows, dtype=np.intp)


_TEMPLATES = _templates()


def fields(values) -> np.ndarray:
    """(n, FIELD) uint8 table whose row i, with its NULs dropped, is the
    ASCII of ``fmt(values[i])``."""
    v = np.ascontiguousarray(values, dtype=float).ravel()
    n = v.shape[0]
    a = np.abs(v)
    plain = (a > 0.0) & (a < np.inf)
    a[~plain] = 1.0
    # a wide type without range past float64 overflows the largest scales
    # to inf; such values fail the range test below
    with np.errstate(over="ignore", invalid="ignore"):
        k = 16 - np.floor(np.log10(a)).astype(np.intp)
        w = a.astype(_WIDE)
        powers = _powers()
        y = w * powers[k - _K_MIN]
        yf = y.astype(float)
        # log10 may miss the decade by one next to a power of ten
        off = np.flatnonzero((yf < 1e16) | (yf >= 1e17))
        if off.size:
            k[off] += (yf[off] < 1e16).astype(np.intp) - (yf[off] >= 1e17)
            y[off] = w[off] * powers[k[off] - _K_MIN]
            yf[off] = y[off]
        d = y.astype(np.uint64)
        frac = (y - d.astype(_WIDE)).astype(float)
    ok = plain & (yf >= _LO) & (yf < _HI) & (np.abs(frac - 0.5) > yf * _REL_F)
    d += frac > 0.5
    e = 16 - k
    # the 17 digits, one row per place: exact, since every quotient of the
    # two 9- and 8-digit halves is at least 1e-9 away from the next integer
    hi = d // np.uint64(10**8)
    q = np.empty((17, n))
    np.divide(hi.astype(float), _PLACES_HI, out=q[:9])
    np.divide((d - hi * np.uint64(10**8)).astype(float), _PLACES_LO, out=q[9:])
    np.floor(q, out=q)
    q[1:9] -= 10.0 * q[:8]
    q[10:] -= 10.0 * q[9:16]
    fixed = (e >= -4) & (e <= 16)
    # the digits before the point, which keep their trailing zeros
    whole = np.where(fixed, e + 1, 1)
    q += 48.0
    chars = q.astype(np.uint8)
    # trailing zeros after the point go, and the point with the last
    kept = np.full(n, 17)
    tail = np.flatnonzero(chars[16] == ord("0"))
    if tail.size:
        t = chars[:, tail]
        kept[tail] = np.maximum(17 - np.argmax(t[::-1] != ord("0"), axis=0), whole[tail])
        t[np.arange(17)[:, None] >= kept[tail]] = 0
        chars[:, tail] = t
    # one row of characters per source position, so each write is contiguous
    src = np.empty((_SOURCE, n), dtype=np.uint8)
    src[_SIGN] = (v < 0.0) * ord("-")
    src[1] = chars[0]
    src[_POINT] = (kept > whole) * ord(".")
    src[3:19] = chars[1:]
    src[19] = ord("e")
    src[20] = np.where(e < 0, ord("-"), ord("+"))
    mag = np.abs(e)
    src[21] = (mag >= 100) * (mag // 100 + 48)
    src[22] = mag // 10 % 10 + 48
    src[23] = mag % 10 + 48
    src[_ZERO] = ord("0")
    src[_NUL] = 0
    table = src[:FIELD].T.copy()
    lay = np.flatnonzero(fixed)
    if lay.size:
        cols = _TEMPLATES[e[lay] + 4] * n
        cols += lay[:, None]
        table[lay] = src.ravel().take(cols)
    rest = np.flatnonzero(~ok)
    if rest.size:
        texts = [fmt(x).encode("ascii") for x in v[rest].tolist()]
        table[rest] = np.array(texts, dtype=f"S{FIELD}").view(np.uint8).reshape(-1, FIELD)
    return table


def trim(table: np.ndarray) -> np.ndarray:
    """The table without its all-NUL columns: the same text, narrower."""
    return table[:, table.any(axis=0)]


def rows(parts) -> np.ndarray:
    """Table of CSV rows: the parts' text separated by commas and ended by
    LF. A part is an (n, w) table, or a (w,) text repeated on every row."""
    parts = [np.asarray(p, dtype=np.uint8) for p in parts]
    n = next(p.shape[0] for p in parts if p.ndim == 2)
    table = np.empty((n, sum(p.shape[-1] + 1 for p in parts)), dtype=np.uint8)
    col = 0
    for p in parts:
        table[:, col : col + p.shape[-1]] = p
        col += p.shape[-1]
        table[:, col] = ord(",")
        col += 1
    table[:, -1] = ord("\n")
    return table


def text(s: str) -> np.ndarray:
    """One text as a (w,) part of ``rows``."""
    return np.frombuffer(s.encode("ascii"), dtype=np.uint8)


def compact(table: np.ndarray) -> bytes:
    """The table's text, row after row, with every NUL dropped."""
    return table.tobytes().translate(None, b"\0")
