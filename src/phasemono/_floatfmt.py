"""The CSV text of a float64 table, each float written as ``repr`` writes it.

``csv_text(table)`` gives, for every row of a 2-D float64 table, the bytes
of ``",".join(map(str, row.tolist())) + "\\n"``, computed with numpy
``_CHUNK`` cells at a time, one block of text each.  Formatting one float
at a time through ``repr`` costs about 1 µs a cell, and that is most of the
time it takes to write a large table.

``repr`` writes the shortest digits that read back as the float and, of
those, the ones nearest to it (David Gay's ``dtoa`` in mode 0).  It writes
fixed notation where the decimal exponent lies in [-4, 16), and exponent
notation otherwise.  Here the digits of a finite normal cell with |x| in
[1e-270, 1e270] are found in float arithmetic:

1. |x| is scaled by 10^s, s = 16 - floor(log10 |x|), into v in
   [1e16, 1e17).  v is the double-double p + q: the product of |x| with
   10^s held as T_hi + T_lo, whose T_hi part is Dekker's exact two-product.
   The error of p + q is below 1e-14.  The integer part of v is held as
   ph * 1e8 + pl, both exact in a float.
2. The doubles that read back as x lie within half the gap to each
   neighbour, which scales to h above v and to h below it, or h/2 below at
   a power of two; h lies in (0.55, 11.1].  The shortest digits are those
   of the multiple of the largest power 10^k inside that interval.  Since
   the interval is narrower than 23, k >= 2 exactly when the multiple of
   100 next to v lies inside it, and there is then only one.  Otherwise
   k = 1 when a multiple of 10 does, else k = 0.  Of two candidates inside,
   the nearer one is taken, as ``repr`` takes it.  The trailing zeros of
   the chosen multiple count the digits beyond k that it drops.
3. Every comparison that decides a cell must clear a margin of 1e-9, five
   orders above the error.  A cell within the margin of any of them goes
   to ``repr``, as does a cell whose scaled value misses [1e16, 1e17)
   (``log10`` can round across a power of ten) or whose digits round up to
   1e17.  So does every cell outside that range, other than 0, inf and
   NaN, whose texts are fixed.

So no byte can differ from ``repr``'s.  Each cell then gets a source row
of 32 bytes: "0.e", its 17 digits, the 4 digits of |e|, "-+", its
separator, a NUL and "infa".  A class of cells, fixed by the sign, the
notation, the decimal point's place, the number of digits, and the
exponent's sign and width, has one row of a slot table: for each byte of
its text, and then of its separator and NUL padding, the byte of the source
row it copies.  One flat ``take`` lays out the text of every cell, and the
NUL padding is deleted once per call.  The tables are built on first use,
not at import.
"""

from __future__ import annotations

import functools

import numpy as np

_TINY, _HUGE = 1e-270, 1e270
_E_LO = -272                        # the tables hold one row per e in [_E_LO, -_E_LO]
_MARGIN = 1e-9
# A cell's source row: "0.e", the 17 digits at bytes 3 to 19 (so that their
# last 16 are 4-byte words), |e| at 20 to 23, "-+", the separator at 26, a
# NUL at 27 and "infa".
_SOURCE = np.frombuffer(b"0.e" + bytes(21) + b"-+,\0infa", np.uint8)
_TEXT = 25                          # "-1.2345678901234567e-100" and its separator
# Cells are formatted in chunks of this many.  The largest temporary is the
# gather's index, 200 bytes a cell (500 KiB), and a chunk peaks at about
# 750 KiB (tracemalloc), since temporaries are dropped once used.  Formatting
# the 101 rows of 8197 cells of the 2D benchmark one at a time, in a fresh
# process, took no minor page fault a row and 220-235 ns a cell.  Chunks of
# 1280 cells took 260-275 ns a cell; whole rows took 1.6 faults a row and
# raised the peak RSS by 4.2 MB, against 2.0 MB.
_CHUNK = 2560

# The classes of a cell.  Fixed notation with the point after digit dp
# (dp = e + 1 in [-3, 16]) and n digits is class (dp + 3) * 17 + n - 1;
# exponent notation with n digits is _EXP + (2 * (e < 0) + (|e| >= 100)) * 17
# + n - 1; then 0, inf and NaN.  A negative cell's class is _CLASSES more.
_EXP = 340
_ZERO, _INF, _NAN = 408, 409, 410
_CLASSES = 411


@functools.cache
def _tables():
    """Per decimal exponent e: 10^(16 - e) as T_hi + T_lo and T_hi's
    Dekker halves, the class of e's cells with 17 digits, and the
    ASCII of |e| as 4 digits.  Per 4-digit group: its ASCII, as the uint32
    of its bytes, and its trailing zeros (4 for 0000)."""
    hi, lo = [], []
    for e in range(_E_LO, -_E_LO + 1):
        s = 16 - e
        if s >= 0:
            p = 10 ** s
            h = float(p)
            low = float(p - int(h))
        else:
            d = 10 ** -s
            h = 1 / d                       # int division, correctly rounded
            num, den = h.as_integer_ratio()
            low = (den - num * d) / (den * d)
        hi.append(h)
        lo.append(low)
    hi, lo = np.array(hi), np.array(lo)
    split = hi * 134217729.0                # 2^27 + 1
    hi_hi = split - (split - hi)
    e = np.arange(_E_LO, -_E_LO + 1)
    base = np.where((e >= -4) & (e < 16), (e + 4) * 17,
                    _EXP + 17 * (2 * (e < 0) + (np.abs(e) >= 100)))
    g = np.arange(10000, dtype=np.uint16)
    ascii_ = np.empty((10000, 4), np.uint8)
    for j in range(4):
        ascii_[:, j] = g // 10 ** (3 - j) % 10 + 48
    group = ascii_.view(np.uint32).ravel()
    trailing = sum((g % 10 ** j == 0).astype(np.uint8) for j in range(1, 5))
    return hi, lo, hi_hi, hi - hi_hi, base + 16, group[np.abs(e)], group, trailing


@functools.cache
def _slots():
    """Per class: the bytes of a cell's source row that its text copies,
    then its separator, then NUL padding."""
    slots = []
    d = list(range(3, 20))                          # the 17 digits
    for k in range(2 * _CLASSES):
        neg, c = divmod(k, _CLASSES)
        n = c % 17 + 1
        if c < _EXP:                                # fixed, the point after digit dp
            dp = c // 17 - 3
            if dp <= 0:
                text = [0, 1] + [0] * -dp + d[:n]
            else:
                text = d[:dp] + [1] + (d[dp:n] if dp < n else [0])
        elif c < _ZERO:
            kind = (c - _EXP) // 17                 # 2 * (e < 0) + (|e| >= 100)
            text = (d[:1] + ([1] + d[1:n] if n > 1 else [])
                    + [2, 24 if kind >= 2 else 25] + [21] * (kind % 2) + [22, 23])
        else:
            text = {_ZERO: [0, 1, 0], _INF: [28, 29, 30], _NAN: [29, 31, 29]}[c]
        row = [24] * (neg and c != _NAN) + text + [26]
        slots.append(row + [27] * (_TEXT - len(row)))
    return np.array(slots, np.uint8)


def _shortest(a):
    """For finite normal a in [_TINY, _HUGE]: the row of the tables of the
    decimal exponent of the shortest digits, those digits (trailing zeros
    included) as the 17-digit integer ch * 1e8 + cl, and where the
    arithmetic cannot decide."""
    t_hi, t_lo, b_hi, b_lo = _tables()[:4]
    row = np.floor(np.log10(a)).astype(np.intp)
    row -= _E_LO
    t = t_hi[row]
    # v = a * 10^(16 - e) as p + q: Dekker's exact product of a and T_hi,
    # its terms added in his order, then a * T_lo
    a_hi = a * 134217729.0                  # 2^27 + 1
    a_hi -= a_hi - a
    a_lo = a - a_hi
    p = a * t
    q = a_hi * b_hi[row]
    q -= p
    q += a_hi * b_lo[row]
    q += a_lo * b_hi[row]
    q += a_lo * b_lo[row]
    q += a * t_lo[row]
    del a_hi, a_lo
    # the integer part as ph * 1e8 + pl, and the fraction
    ph = np.floor(p / 1e8)
    whole = np.floor(q)
    frac = q - whole
    pl = p - ph * 1e8
    pl += whole
    carry = np.floor(pl / 1e8)
    ph += carry
    pl -= carry * 1e8
    del p, q, whole, carry
    # the half gaps: h above, and below unless a is a power of two
    bits = a.view(np.uint64)
    h = ((bits & np.uint64(0x7FF0000000000000)) - np.uint64(53 << 52)).view(np.float64)
    h *= t
    h_lo = np.where(bits & np.uint64(0xFFFFFFFFFFFFF), h, 0.5 * h)
    # distances of v above the multiples of 100 and of 10 below it
    low2 = pl - 100.0 * np.floor(pl / 100.0)
    low1 = low2 - 10.0 * np.floor(low2 / 10.0)
    r2 = low2 + frac
    r1 = low1 + frac
    down2 = r2 < h_lo
    k2 = down2 | (r2 > 100.0 - h)
    down1 = r1 < h_lo
    k1 = down1 | (r1 > 10.0 - h)
    cl = np.where(k2, pl - low2 + 100.0 * ~down2,
                  np.where(k1, pl - low1 + 10.0 * ((r1 > 5.0) | ~down1), pl + (frac > 0.5)))
    gap = np.abs(np.stack((r2 - h_lo, r2 + h - 100.0, r1 - h_lo, r1 + h - 10.0,
                           r1 - 5.0, frac - 0.5))).min(axis=0)
    # a multiple of 1e8 carries into ph; a carry to 1e17 goes to repr
    up = cl >= 1e8
    cl -= up * 1e8
    ch = ph + up
    undecided = (gap < _MARGIN) | (ph < 1e8) | (ch >= 1e9)
    return row, ch, cl, undecided


def csv_text(table):
    """The CSV lines of a 2-D float64 table's rows, as ``repr`` writes each
    float, as byte blocks of the text of at most ``_CHUNK`` cells each."""
    rows, cols = table.shape
    x = np.ascontiguousarray(table, dtype=np.float64).ravel()
    if not x.size:
        yield b"\n" * rows
        return
    for lo in range(0, x.size, _CHUNK):
        yield _cells_text(x[lo:lo + _CHUNK], (cols - 1 - lo) % cols, cols)


def _cells_text(x, end, cols):
    """The text of the cells of x, each followed by its separator: a newline
    after cell ``end`` and every ``cols``-th cell after it, else a comma."""
    base, exp_ascii, group, trailing = _tables()[4:]
    a = np.abs(x)
    fast = (a >= _TINY) & (a <= _HUGE)
    if fast.all():
        cells, cls = slice(None), np.empty(x.size, np.intp)
    else:
        # 0, inf and NaN have fixed texts; other cells outside the range go to repr
        cells = np.flatnonzero(fast)
        cls = np.where(a == 0.0, _ZERO, np.where(a == np.inf, _INF, _NAN))
        cls[np.isfinite(a) & (a != 0.0)] = -1
    row, ch, cl, undecided = _shortest(a[cells])
    # the 17 digits as 1 + 4 groups of 4, and their trailing zeros
    ch = ch.astype(np.intp)
    cl = cl.astype(np.intp)
    g0 = ch // 100000000
    rest = ch - g0 * 100000000
    g1 = rest // 10000
    g2 = rest - g1 * 10000
    g3 = cl // 10000
    g4 = cl - g3 * 10000
    zeros = trailing[g4] + (g4 == 0) * (
        trailing[g3] + (g3 == 0) * (trailing[g2] + (g2 == 0) * trailing[g1]))
    cls[cells] = base[row] - zeros
    slow = cls < 0
    slow[cells] |= undecided
    cls[slow] = _ZERO
    cls += _CLASSES * (np.signbit(x) & ~np.isnan(x))
    # each cell's source row, from which one gather takes its class's slots
    src = np.empty((x.size, 32), np.uint8)
    src[:] = _SOURCE
    src[cells, 3] = g0 + 48
    words = src.view(np.uint32)
    for j, g in enumerate((g1, g2, g3, g4), start=1):
        words[cells, j] = group[g]
    words[cells, 5] = exp_ascii[row]
    src[end::cols, 26] = ord("\n")
    del ch, cl, rest, g0, g1, g2, g3, g4, zeros, words
    at = _slots().take(cls, axis=0).astype(np.intp)
    at += 32 * np.arange(x.size)[:, None]
    out = src.ravel().take(at)
    del at
    # the cells handed to repr, each followed by its separator; a repr text
    # holds no NUL, so its length is its count of nonzero bytes
    i = np.flatnonzero(slow)
    texts = np.array([repr(v).encode() for v in x[i].tolist()], f"S{_TEXT}")
    texts = texts.view(np.uint8).reshape(-1, _TEXT)
    out[i] = texts
    out[i, np.count_nonzero(texts, axis=1)] = src[i, 26]
    return out.tobytes().translate(None, b"\0")
