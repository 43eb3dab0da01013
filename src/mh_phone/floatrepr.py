"""The bytes of `repr(float)` for blocks of float64 values, as numpy kernels.

`rows_text` writes groups of (F, D) rows as the JSON text `json.dumps`
gives their nested lists, each group after its own head: every value is
spelled as `float.__repr__` spells it, the shortest decimal that reads back
as the same double (the nearest one where several do), in fixed notation
from 1e-4 up to 1e16.

`shortest_digits` finds those digits for a whole block at once. |x| times a
power of ten 10^p, p <= 22 (so 10^p is a double), has 17 digits before the
point; Dekker's product gives it exactly as a double-double hi + lo. The
nearest 17-, 16-, 15-, ... digit decimals are read off that one product, on
the shrinking set of values whose last candidate still reads back. A
candidate reads back when it is less than half an ulp of x from x. Every
such decision keeps `_MARGIN` clear of its bound, far more than the float
sums that make it can be off, so the digits are exact. A value that comes
too near a bound, is subnormal, has a power of two as its mantissa (its ulp
below is half the one above), lies outside the table, or needs exponent
notation is left to `float.__repr__`: the fast path with a certified
fallback of Grisu (Loitsch, PLDI 2010).

The tables are built on first use, not when the module is imported.
"""

import functools
from typing import NamedTuple

import numpy as np

# Values a caller should hand `rows_text` at once: about 64 KB per float64
# temporary, as larger ones slow every ufunc down
BLOCK_VALUES = 1 << 13
_MARGIN = 2.0 ** -30  # units of the 17th digit; the sums compared are off by < 2^-47
_P_MAX = 22  # the table's powers of ten 10^0 ... 10^22: |x| from 1e-6 up to 1e17
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split into two 26-bit halves
_WIDTH = 32  # bytes laid out per value, see `_layout`
_EXPONENT = np.uint64(0x7FF << 52)


def _halves(x):
    """Veltkamp's split of float64 `x` into halves of at most 26 bits each,
    so that products of two halves are exact."""
    scaled = x * _SPLIT
    upper = scaled - (scaled - x)
    return upper, x - upper


class _Tables(NamedTuple):
    tens: np.ndarray  # 10^0 ... 10^_P_MAX, each a double, and their Veltkamp halves
    powers: np.ndarray  # 10^0 ... 10^18 as int64
    ascii4: np.ndarray  # "0000" ... "9999" as native uint32 words
    before: np.ndarray  # row point + 3: 0xFF in `_layout`'s columns before 7 + point
    runs: np.ndarray  # row first * (_WIDTH + 1) + stop: True in columns [first, stop)


@functools.cache
def _tables():
    """The module's tables, built on first use; the masks as rows of
    native uint64 words."""
    tens = np.array([float(10 ** p) for p in range(_P_MAX + 1)])  # exact: 5^22 < 2^53
    powers = 10 ** np.arange(19, dtype=np.int64)
    ascii4 = (np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + ord("0")).copy()
    before = np.arange(_WIDTH) < np.arange(4, 24)[:, None]  # point -3 ... 16
    after = np.arange(_WIDTH) >= np.arange(_WIDTH + 1)[:, None]
    runs = after[:, None, :] & ~after[None, :, :]
    return _Tables(np.stack([tens, *_halves(tens)]), powers, ascii4.view(np.uint32).ravel(),
                   (before * np.uint8(0xFF)).view(np.uint64),
                   runs.reshape(-1, _WIDTH).view(np.uint64))


def _scale(x):
    """|x| 10^p for the float64 |x| and the p that gives it 17 digits before
    the point: the whole part `scaled` (int64) and the rest `lo` in [0, 1),
    with `point` = 17 - p, half an ulp of x times 10^p, and whether the
    value is one this module certifies (normal, not a power of two, in the
    table, and with p right)."""
    tables = _tables()
    with np.errstate(divide="ignore"):  # log10(0) is -inf, and 0 is left out below
        power = 16.0 - np.floor(np.log10(x))
    bits = x.view(np.uint64)
    certified = ((bits & _EXPONENT != 0) & (bits << np.uint64(12) != 0)
                 & (power >= 0.0) & (power <= _P_MAX))
    # every other value is computed as 1.5, a harmless stand-in
    x = np.where(certified, x, 1.5)
    p = np.where(certified, power, 16.0).astype(np.intp)
    # Dekker's exact product: hi + lo is |x| 10^p
    b, b_upper, b_lower = (np.take(row, p) for row in tables.tens)
    upper, lower = _halves(x)
    hi = x * b
    lo = upper * b_upper - hi
    lo += upper * b_lower
    lo += lower * b_upper
    lo += lower * b_lower
    whole = np.floor(lo)
    scaled = hi.astype(np.int64) + whole.astype(np.int64)  # hi >= 2^53 is a whole number
    lo -= whole  # hi + lo = scaled + lo
    # log10's decimal exponent holds when 10^16 <= |x| 10^p < 10^17
    certified &= (scaled >= tables.powers[16]) & (scaled < tables.powers[17])
    # half an ulp of x, scaled: 10^p 2^(e - 53), for x in [2^e, 2^(e + 1))
    bound = b * ((x.view(np.uint64) & _EXPONENT) - np.uint64(53 << 52)).view(np.float64)
    return scaled, lo, 17 - p, bound, certified


def shortest_digits(values):
    """The digits `repr` gives the finite float64 `values` (a 1-D array):
    (digits, count, point, certified). A certified nonzero |x| is
    0.d1...dn x 10^point with `digits` = d1...dn (no trailing zero) and
    `count` = n, and -4 < point <= 16, so `repr` writes it in fixed
    notation. A zero, and every value that is not certified, has digits 0,
    count 1 and point 1."""
    powers = _tables().powers
    x = np.abs(values)
    scaled, lo, point, bound, certified = _scale(x)
    low, high = bound - _MARGIN, bound + _MARGIN
    del bound  # a run's temporaries set a save's peak memory, so each goes once spent
    # 17 digits: the nearest whole number always reads back, as half an ulp
    # scaled is more than 10^16 / 2^54 > 0.55; only a near tie is unsure
    digits = scaled + (lo > 0.5)
    certified &= np.abs(lo - 0.5) >= _MARGIN
    count = np.full(len(x), 17, np.int8)
    live = None  # the values whose candidates all read back so far, None for all
    for k in range(16, 0, -1):  # the nearest decimal of k digits: a multiple of q
        q = int(powers[17 - k])
        below = scaled // q
        rest = scaled - below * q
        frac = rest + lo  # scaled + lo - below q, in [0, q)
        up = frac > q / 2
        nearest = below + up
        distance = np.where(up, (q - rest) - lo, frac)
        del below, rest
        ok = distance < low
        unsure = (distance < high) & ~ok
        # half an ulp scaled is below 10^17 / 2^53 < 12, so the two candidates
        # around a tie can both read back only when they are 10 apart
        if q == 10:
            tie = np.abs(frac - 5.0) < _MARGIN
            unsure |= tie & ok
            ok &= ~tie
        if live is None:
            certified &= ~unsure
            chosen = live = np.flatnonzero(ok)
        else:
            certified[live[unsure]] = False
            chosen = np.flatnonzero(ok)
            live = live[chosen]
        digits[live], count[live] = nearest[chosen], k
        if not len(live):
            break
        scaled, lo, low, high = (a[chosen] for a in (scaled, lo, low, high))
    # a nearest candidate of 10^k is the digit 1, one place up
    carry = digits == powers[count]
    digits[carry], count[carry] = 1, 1
    point += carry
    certified &= (point > -4) & (point <= 16)
    digits[~certified], count[~certified], point[~certified] = 0, 1, 1
    certified |= x == 0.0
    return digits, count, point, certified


def _layout(digits, count, point):
    """The (V, _WIDTH) bytes of each value's text, with the column of its
    first digit, and the column after its last.

    Row bytes 0..6 are "0" and 7..23 the 17 digits d1...dn0...0; the point
    goes in at column 7 + point, and the digits from there on move one
    column right. A value's text is the run from the "0" or first digit
    before its point to its last fraction digit ("0" for a whole number);
    the bytes around it are free for a sign and a separator."""
    tables = _tables()
    powers, ascii4 = tables.powers, tables.ascii4
    scaled = digits * np.take(powers, 17 - count)  # 17 digits, d1 first
    words = np.empty((len(digits), _WIDTH // 4), np.uint32)
    words[:, 0] = ascii4[0]
    for g in range(5, 1, -1):  # d14...d17, d10...d13, d6...d9, d2...d5
        high = scaled // 10_000
        words[:, g] = np.take(ascii4, scaled - high * 10_000)
        scaled = high
    words[:, 1] = np.take(ascii4, scaled)  # "000" d1
    chars = words.view(np.uint8)
    moved = np.empty_like(chars)
    moved.reshape(-1)[1:] = chars.reshape(-1)[:-1]  # column 0 is never read
    # each byte from `chars` before the point's column, from `moved` after it
    unmoved = np.take(tables.before, point + 3, axis=0)
    rows = chars.view(np.uint64)
    rows ^= moved.view(np.uint64)
    rows &= unmoved
    rows ^= moved.view(np.uint64)
    chars.reshape(-1)[np.arange(7, len(digits) * _WIDTH, _WIDTH) + point] = ord(".")
    return chars, np.minimum(point + 6, 7), 8 + np.maximum(count, point + 1)


def rows_text(rows, counts, heads, tail):
    """The JSON text of (F, D) float64 `rows` taken as groups of `counts`
    rows, each group written as its bytes from `heads`, the text of
    `json.dumps(group.tolist())` between its "[[" and "]]", and `tail`
    (at most 4 bytes). Every value must be finite; its text is that of
    `float.__repr__`."""
    d = rows.shape[1]
    values = rows.ravel()
    digits, count, point, certified = shortest_digits(values)
    chars, first, stop = _layout(digits, count, point)
    left = np.flatnonzero(~certified)
    first[left] = stop[left] = _WIDTH - 4  # repr's text goes in after the fact
    flat = chars.reshape(-1)
    base = np.arange(0, flat.size, _WIDTH)
    flat[base + first - 1] = ord("-")  # kept where the value is negative
    first -= np.signbit(values) & certified
    # after the last digit a separator: ", " inside a row, "], [" after a
    # row, `tail` after a group
    at = base + stop
    size = np.full(len(values), 2)
    group_end = np.cumsum(counts) * d - 1
    for where, separator in ((slice(None), b", "), (np.arange(d - 1, len(values), d), b"], ["),
                             (group_end, tail)):
        for offset, byte in enumerate(separator):
            flat[at[where] + offset] = byte
        size[where] = len(separator)
    stop += size
    keep = np.take(_tables().runs, first * (_WIDTH + 1) + stop, axis=0).view(bool).reshape(-1)
    text = flat[keep]
    del chars, flat, keep  # not held while the pieces are joined

    # each group's head goes in before its first value, and repr's text of
    # each value left out in its place
    lengths = stop - first
    starts = np.cumsum(lengths) - lengths
    offsets = np.concatenate([starts[group_end + 1 - np.multiply(counts, d)], starts[left]])
    inserts = [*heads, *(float.__repr__(v).encode() for v in values[left].tolist())]
    pieces, done = [], 0
    for i in np.argsort(offsets, kind="stable").tolist():
        pieces += (text[done:offsets[i]], inserts[i])
        done = offsets[i]
    pieces.append(text[done:])
    return b"".join(pieces)
