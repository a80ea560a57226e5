"""Byte-exact "%.17g" and "%d" text for blocks of float64 and integer
rows, without a Python call per value.

format_rows(block, sep, prefix) returns, for each row of a 2-D float
block, prefix + sep.join("%.17g" % x for x in row) + "\\n", byte for
byte.  On the fast range 1e-6 < |x| < 1e17 the decimal exponent k comes
from log10 and is corrected exactly.  An exact two-product (Dekker 1971,
"A floating-point technique for extending the available precision") of
|x| and the exact double 10**(16 - k) gives the 17-digit significand,
rounded half to even as Python's dtoa rounds it.  Its digits come from a
table of four-digit chunks, a block at a time.  Zero, |x| <= 1e-6,
|x| >= 1e17 and non-finite values go through "%.17g" itself, one value
at a time.

format_int_rows(block, sep, prefix) does the same for "%d" and integer
rows: 0 <= x < 1e8 is spelled from a table of four-digit chunks with
their leading zeros as NUL, any other value by "%d" itself.

forms2d._write_rows imports this module on its first block, so a process
that writes no CSV or OBJ file neither compiles it nor builds its tables.
"""

from __future__ import annotations

import numpy as np

__all__ = ["format_rows", "format_int_rows"]


def _digit_table() -> np.ndarray:
    """Four ASCII digits per uint32: entry 10000 * v + i spells f"{i:04d}"
    with the trailing zeros after its first v digits as NUL bytes, so
    entries 40000 + i spell i in full."""
    i = np.arange(10000, dtype=np.uint16)
    spelled = np.empty((5, 10000, 4), np.uint8)
    for c, unit in enumerate((1000, 100, 10, 1)):
        spelled[4, :, c] = i // unit % 10
    keep = spelled[4] != 0  # a nonzero digit here or after
    for c in (2, 1, 0):
        keep[:, c] |= keep[:, c + 1]
    spelled[4] += ord("0")
    for v in range(4):
        np.multiply(spelled[4], keep, out=spelled[v])
        keep[:, v] = True
    return spelled.view(np.uint32).ravel()


_DIGITS4 = _digit_table()


def _int_table() -> np.ndarray:
    """Four ASCII digits per uint32: entry i spells f"{i:04d}" with its
    leading zeros as NUL bytes, so entry 0 is all NUL."""
    spelled = _DIGITS4[40000:].view(np.uint8).reshape(10000, 4).copy()
    i = np.arange(10000)
    for c, unit in enumerate((1000, 100, 10, 1)):
        spelled[i < unit, c] = 0
    return spelled.view(np.uint32).ravel()


_INT4 = _int_table()
# the low chunk of an integer below 1e8: entry i spells i alone, 0 as "0",
# and entry 10000 + i spells it in full, after a nonzero high chunk
_INT_LOW = np.concatenate([_INT4, _DIGITS4[40000:]])
_INT_LOW[0] = np.frombuffer(b"\0\0\0" b"0", np.uint32)[0]

# decimal exponents k of the fast range 1e-6 < |x| < 1e17: the scale
# 10**(16 - k) that brings x to 17 integer digits is an exact double
_K_MIN, _K_MAX = -6, 16
_SCALE = np.array([float(10 ** (16 - k)) for k in range(_K_MIN, _K_MAX + 1)])
# per chunk of digits 1-4, 5-8, 9-12, 13-16 and per k: the _DIGITS4 block
# that keeps the chunk's integer-part digits when it ends the significand
_KEPT = (np.clip(np.arange(_K_MIN, _K_MAX + 1) - 4 * np.arange(4)[:, None], 0, 4)
         * 10000).astype(np.uint32)
# widest %.17g text: "-2.2250738585072014e-308"
_FIELD = 24


def _split(a):
    """Dekker's split: a == hi + lo with at most 26 significant bits in each."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_SCALE_HI, _SCALE_LO = _split(_SCALE)


def _scaled(a, a_hi, a_lo, i):
    """hi + lo == a * _SCALE[i] exactly, hi the rounded product (Dekker 1971)."""
    hi = a * _SCALE[i]
    s_hi, s_lo = _SCALE_HI[i], _SCALE_LO[i]
    lo = ((a_hi * s_hi - hi) + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo
    return hi, lo


def _significands(a):
    """17-digit significands n and exponent indices i = k - _K_MIN.

    For 1e-6 < a < 1e17, n is the exact product a * 10**(16 - k) rounded
    half to even, as dtoa rounds it, and k is the decimal exponent of the
    rounded value, so 1e16 <= n < 1e17.
    """
    i = np.floor(np.log10(a)).astype(np.intp)
    i -= _K_MIN
    np.clip(i, 0, _K_MAX - _K_MIN, out=i)
    a_hi, a_lo = _split(a)
    hi, lo = _scaled(a, a_hi, a_lo, i)
    # log10 can miss the decade by one: move it where the exact product
    # falls outside [1e16, 1e17)
    up = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    down = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    fix = np.flatnonzero(up | down)
    i[fix] += up[fix].astype(np.intp) - down[fix]
    hi[fix], lo[fix] = _scaled(a[fix], a_hi[fix], a_lo[fix], i[fix])
    # hi >= 2**53 is an even integer, so hi + rint(lo) rounds half to even
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    carry = n == 10 ** 17
    n[carry] = 10 ** 16
    i += carry
    return n, i


def _digits(n, i) -> np.ndarray:
    """(len(n), 17) ASCII digits of each n, laid out for exponent index i.

    The zeros %g strips, those that end the fraction, are NUL bytes.
    """
    lead = n // 10 ** 16
    rest = n - lead * 10 ** 16
    upper = rest // 10 ** 8
    chunks = []
    for half in (upper, rest - upper * 10 ** 8):
        half = half.astype(np.uint32)
        q = half // 10000
        chunks += [q, half - q * 10000]
    # a lead word, then one uint32 of four digits per chunk; a chunk with
    # only zero chunks after it drops the zeros after its integer digits
    words = np.empty((n.size, 5), np.uint32)
    last = np.ones(n.size, bool)
    for j in (3, 2, 1, 0):
        spelling = np.where(last, np.take(_KEPT[j], i), 40000)
        words[:, j + 1] = np.take(_DIGITS4, spelling + chunks[j])
        last &= chunks[j] == 0
    digits = words.view(np.uint8)[:, 3:]
    digits[:, 0] = lead + ord("0")
    return digits


def _copy(dst, src) -> None:
    """dst[...] = src for 2-D uint8 views with contiguous rows.

    Each row moves as one item: numpy copies short rows of bytes one byte
    at a time, at about three times the cost.
    """
    item = f"V{src.shape[1]}"
    dst.view(item)[...] = src.view(item)


def _lay_out(out, digits, k) -> None:
    """Place the digits of decimal exponent k as %.17g does, after the sign.

    Fixed notation for -4 <= k < 17, else d.ddd with e-05 or e-06.  The
    point is NUL where no fraction digit is left.
    """
    if k >= 0:
        _copy(out[:, :k + 1], digits[:, :k + 1])
        if k < 16:
            np.minimum(digits[:, k + 1], ord("."), out=out[:, k + 1])
            _copy(out[:, k + 2:18], digits[:, k + 1:])
    elif k >= -4:
        zeros = b"0." + b"0" * (-k - 1)
        out[:, :len(zeros)].view(f"V{len(zeros)}")[...] = np.void(zeros)
        _copy(out[:, len(zeros):len(zeros) + 17], digits)
    else:
        out[:, 0] = digits[:, 0]
        np.minimum(digits[:, 1], ord("."), out=out[:, 1])
        _copy(out[:, 2:18], digits[:, 1:])
        out[:, 18:22].view("V4")[...] = np.void(b"e-%02d" % -k)


def format_rows(block, sep: str, prefix: str) -> bytes:
    """Bytes of prefix + sep.join("%.17g" % x for x in row) + newline, per row.

    Each value on the fast range gets a NUL-padded cell in one uint8
    canvas: prefix slot, sign, text, then sep or the newline.  Values are
    sorted by decimal exponent, so each exponent's layout is a few slice
    copies.  Deleting the NULs leaves the text.
    """
    ncols = block.shape[1]
    x = block.ravel()
    a = np.abs(x)
    fast = (a > 1e-6) & (a < 1e17)
    a[~fast] = 1.0
    n, i = _significands(a)
    order = np.argsort(i.astype(np.int8), kind="stable")
    counts = np.bincount(i, minlength=_K_MAX - _K_MIN + 1)
    digits = _digits(n[order], i[order])
    lead, trail = len(prefix), max(len(sep), 1)
    cell = lead + _FIELD + trail
    sorted_cells = np.zeros((x.size, cell), np.uint8)
    sorted_cells[:, lead] = (x[order] < 0) * np.uint8(ord("-"))
    end = 0
    for g in np.flatnonzero(counts):
        start, end = end, end + counts[g]
        _lay_out(sorted_cells[start:end, lead + 1:], digits[start:end], g + _K_MIN)
    where = np.empty(x.size, np.intp)
    where[order] = np.arange(x.size)
    cells = np.take(sorted_cells.view(f"V{cell}").ravel(), where).view(np.uint8)
    cells = cells.reshape(x.size, cell)
    _fall_back(cells[:, lead:lead + _FIELD], x, fast, b"%.17g")
    return _join(cells, ncols, sep, prefix)


def format_int_rows(block, sep: str, prefix: str) -> bytes:
    """Bytes of prefix + sep.join("%d" % x for x in row) + newline, per row.

    On 0 <= x < 1e8 its high and low four-digit chunks are two table
    words in a NUL-padded cell (see format_rows).  Any other value takes
    "%d" % x itself, in a cell as wide as the longest int64.
    """
    ncols = block.shape[1]
    x = block.ravel()
    fast = (x >= 0) & (x < 10 ** 8)
    width = 8 if fast.all() else 20
    lead = len(prefix)
    cells = np.zeros((x.size, lead + width + max(len(sep), 1)), np.uint8)
    v = np.where(fast, x, 0).astype(np.uint32)
    high = v // 10000
    words = np.empty((x.size, 2), np.uint32)
    np.take(_INT4, high, out=words[:, 0])
    np.take(_INT_LOW, v - high * 10000 + (high > 0) * np.uint32(10000), out=words[:, 1])
    _copy(cells[:, lead:lead + 8], words.view(np.uint8))
    _fall_back(cells[:, lead:lead + width], x, fast, b"%d")
    return _join(cells, ncols, sep, prefix)


def _fall_back(fields, x, fast, spec: bytes) -> None:
    """Each field where not fast holds spec % x, NUL-padded: one call per value."""
    slow = np.flatnonzero(~fast)
    if slow.size:
        width = fields.shape[1]
        text = b"".join([(spec % v).ljust(width, b"\0") for v in x[slow].tolist()])
        fields[slow] = np.frombuffer(text, np.uint8).reshape(-1, width)


def _join(cells, ncols: int, sep: str, prefix: str) -> bytes:
    """The text of the cells, ncols to a row: the prefix in the first cell's
    leading slot, sep or the newline in each cell's trailing one, NULs deleted."""
    grid = cells.reshape(-1, ncols, cells.shape[1])
    grid[:, 0, :len(prefix)] = np.frombuffer(prefix.encode(), np.uint8)
    grid[:, :-1, grid.shape[2] - len(sep):] = np.frombuffer(sep.encode(), np.uint8)
    grid[:, -1, -1] = ord("\n")
    return cells.tobytes().translate(None, b"\0")
