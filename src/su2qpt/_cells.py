"""The CLI's tables as text: CSV cells, format(x, '.17g') for a whole array at once, and JSON.

A finite nonzero |x| is m * 2**ex with m in [0.5, 1) (np.frexp, exact for
subnormals too).  Its decimal exponent E = floor(log10|x|) is e_low or
e_low + 1, told apart exactly by one compare of m with a threshold per ex,
so N = |x| * 10**(16 - E) lies in [1e16, 1e17).  N is m times the constant
C = 2**ex * 10**(16 - E), held as the double-double ch + cl; Dekker's
two-product splits m * ch exactly into p + err, and N = p + r with
r = err + m * cl to within 2**-47 (README, Library).  p > 2**53 is an
integer, so the 17 digits are p + rint(r) unless r lies within
_TIE_MARGIN of a half: such cells, and the non-finite ones, take '%.17g'.

``csv_text`` writes a table as CSV and ``json_text`` a report as json.dumps(indent=2)
does, each ``Table`` in it a row chunk at a time from one '%' template over float.__repr__.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from collections.abc import Iterator

import numpy as np

_EX_MIN, _EX_MAX = -1073, 1024  # np.frexp's exponents of the finite nonzero floats
_SPLIT = 134217729.0  # 2**27 + 1
_TIE_MARGIN = 2.0**-30
_CHUNK_CELLS = 1 << 14  # cells rendered per pass, to bound the temporaries
_BLOCK_CELLS = 1 << 12  # cells of one layout laid out per pass: bounds the copy of their text
# A cell's layout code: E + 4 in fixed notation (-4 <= E < 17), else these.
_EXP2, _EXP3, _ZERO, _FALLBACK = 21, 22, 23, 24
_E_MIN = -324  # the decimal exponent of the smallest subnormal
_KEYS = 18 * (_FALLBACK + 1)  # a cell's layout key: code * 18 + its digit count
SLOT = "\0"  # a table's place in a report, and a value's in a row's template
_SLOT_JSON = json.dumps(SLOT)


def _ratio(k: int, b: int) -> tuple[int, int]:
    """10**k * 2**b as an integer numerator and denominator."""
    return 10 ** max(k, 0) << max(b, 0), 10 ** max(-k, 0) << max(-b, 0)


def _scale(ex: int) -> tuple[int, float, list]:
    """The exact constants for the floats m * 2**ex, m in [0.5, 1).

    e_low is the largest E with 10**E <= 2**(ex - 1), and a float's E is
    e_low + 1 where m >= thr, the least float with thr * 2**ex >= 10**(e_low + 1).
    Row j holds (ch, chh, chl, cl) for C = 2**ex * 10**(16 - e_low - j): ch and
    cl are correctly rounded (as int / int is), and chh + chl splits ch.
    """
    # the digit count of 2**(ex - 1), less one; for ex < 1, minus that of 2**(1 - ex) - 1
    e_low = len(str(2 ** (ex - 1))) - 1 if ex >= 1 else -len(str(2 ** (1 - ex) - 1))
    num, den = _ratio(e_low + 1, -ex)
    thr = 1.0  # where 10**(e_low + 1) >= 2**ex, which no m reaches
    if num < den:
        thr = num / den
        p, q = thr.as_integer_ratio()
        if p * den < num * q:
            thr = math.nextafter(thr, 1.0)
    rows = []
    for e in (e_low, e_low + 1):
        num, den = _ratio(16 - e, ex)
        ch = num / den
        p, q = ch.as_integer_ratio()
        t = ch * _SPLIT
        chh = t - (t - ch)
        rows.append((ch, chh, ch - chh, (num * q - p * den) / (den * q)))
    return e_low, thr, rows


@functools.cache
def _scale_tables() -> tuple[np.ndarray, ...]:
    """Per-exponent tables of ``_scale``, filled in by ``_scales`` as exponents turn up."""
    span = _EX_MAX - _EX_MIN + 1
    e = np.zeros((span, 2), np.int16)  # e_low + (m >= thr)
    return np.zeros(span, bool), e, np.zeros(span), np.zeros((4, span, 2))


def _scales(ex: np.ndarray) -> tuple[np.ndarray, ...]:
    """E and C's constants by row 2 * (ex - _EX_MIN) + (m >= thr), and thr, for the ex given."""
    built, e, thr, consts = _scale_tables()
    seen = np.zeros_like(built)
    seen[ex - _EX_MIN] = True
    for i in np.flatnonzero(seen & ~built).tolist():
        e_low, thr[i], rows = _scale(i + _EX_MIN)
        e[i] = e_low, e_low + 1
        consts[:, i] = np.transpose(rows)
    built |= seen
    return e.reshape(-1), thr, consts.reshape(4, -1)


@functools.cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """The ASCII digits of 0000..9999, one uint32 each, and their trailing zero counts."""
    axis = [(10,) + (1,) * (3 - j) for j in range(4)]  # digit j of a group varies along axis j
    digits = np.empty((10, 10, 10, 10, 4), np.uint8)
    for j in range(4):
        digits[..., j] = np.arange(ord("0"), ord("9") + 1).reshape(axis[j])
    zero = [(np.arange(10) == 0).reshape(shape) for shape in axis]
    zeros = zero[3] * (1 + zero[2] * (1 + zero[1] * (1 + zero[0])))
    return digits.view(np.uint32).ravel(), zeros.ravel().astype(np.uint8)


@functools.cache
def _codes() -> np.ndarray:
    """18 times the layout code of each decimal exponent from _E_MIN up."""
    e = np.arange(_E_MIN, 309)  # up to the largest float's, 308
    codes = np.where((e >= -4) & (e < 17), e + 4, np.where(np.abs(e) < 100, _EXP2, _EXP3))
    return (codes * 18).astype(np.uint16)


@functools.cache
def _layout(key: int) -> tuple[np.ndarray, tuple, tuple]:
    """The cell text of a layout key, ',' included: a template and what fills it.

    The template holds '?' at the digits, which runs of (at, first, count) copy
    in.  An exponent's sign is at exp[0] and its exp[1] digits follow it.
    """
    code, nd = divmod(key, 18)
    runs, exp = (), ()
    if code == _ZERO:
        text = "0"
    elif code >= _EXP2:
        text, runs = "?", ((0, 0, 1),)
        if nd > 1:
            text, runs = text + "." + "?" * (nd - 1), runs + ((2, 1, nd - 1),)
        exp = (len(text) + 1, 2 if code == _EXP2 else 3)
        text += "e+" + "0" * exp[1]
    elif code >= 4:  # E >= 0: E + 1 digits before the point
        k = code - 3
        text, runs = "?" * k, ((0, 0, k),)
        if nd > k:
            text, runs = text + "." + "?" * (nd - k), runs + ((k + 1, k, nd - k),)
    else:  # E < 0: "0.", then -E - 1 zeros
        text = "0." + "0" * (3 - code) + "?" * nd
        runs = ((len(text) - nd, 0, nd),)
    return np.frombuffer((text + ",").encode("ascii"), np.uint8), runs, exp


def _decimal(x: np.ndarray, skip: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """|x| as d * 10**(e - 16), d its 17 digits rounded half-even; a cell in skip reads as 1.0.

    Returns d (in [1e16, 1e17)), e, and where d is too near a tie to vouch for.
    r = (((mh*chh - p) + mh*chl + ml*chh) + ml*chl) + m*cl is summed a term at
    a time in one buffer, each constant taken as needed: at most six floats a cell.
    """
    m, ex = np.frexp(np.where(skip, 1.0, np.abs(x)))
    e, thr, consts = _scales(ex)
    ex = ex.astype(np.intp) - _EX_MIN  # intp: take() reads it without a converted copy
    ex = 2 * ex + (m >= thr.take(ex))  # each cell's row of e and consts
    ch, chh, chl, cl = consts
    p = ch.take(ex) * m
    mh = m * _SPLIT
    mh -= mh - m  # Dekker's split m = mh + ml
    r = chh.take(ex) * mh - p
    c = np.empty_like(m)  # each term; take's out= is unbuffered in clip mode, and ex is in range
    r += np.multiply(chl.take(ex, out=c, mode="clip"), mh, out=c)
    ml = np.subtract(m, mh, out=mh)
    r += np.multiply(chh.take(ex, out=c, mode="clip"), ml, out=c)
    r += np.multiply(chl.take(ex, out=c, mode="clip"), ml, out=c)
    r += np.multiply(cl.take(ex, out=c, mode="clip"), m, out=c)
    del m, mh, ml, c
    near = np.rint(r)
    tie = np.abs(r - near) > 0.5 - _TIE_MARGIN
    del r
    d = p.astype(np.int64) + near.astype(np.int64)
    carry = d == 10**17
    d[carry] = 10**16
    return d, e.take(ex) + carry, tie


def _lay_out(out: np.ndarray, at: np.ndarray, key: int, groups: np.ndarray, e: np.ndarray) -> None:
    """Write the text of cells of one layout key into out from at, from their digit groups and E."""
    template, runs, exp = _layout(key)
    digits = _digit_tables()[0].take(groups).view(np.uint8)[:, 3:]  # the leading group reads "000d"
    block = np.empty((len(e), template.size), np.uint8)
    block[:] = template
    for col, digit, n in runs:
        block[:, col : col + n] = digits[:, digit : digit + n]
    if exp:
        col, n = exp
        block[e < 0, col] = ord("-")
        q = np.abs(e)
        for j in range(n):
            block[:, col + n - j] = q // 10**j % 10 + ord("0")
    w = f"V{template.size}"  # each row of block to its window of out
    np.ndarray((out.size - template.size + 1,), w, out, strides=(1,))[at] = block.view(w)[:, 0]


def _render(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """format(v, '.17g') + ',' for each v of the flat float64 array x, as ASCII.

    Returns the text as a uint8 array and where each cell's text ends, just
    past its ','.  Each temporary is the narrowest dtype that holds it and is
    dropped once read, and cells are laid out _BLOCK_CELLS at a time: the
    peak is about 55 bytes a cell, of which the text is about 20.
    """
    zero = x == 0
    fallback = ~np.isfinite(x)
    d, e, tie = _decimal(x, zero | fallback)
    fallback |= tie

    # the 17 digits: a leading one and four groups of four
    groups = np.empty((x.size, 5), np.uint16)
    for j in range(4, 0, -1):
        q = d // 10**4
        d -= q * 10**4
        groups[:, j] = d
        d = q
    groups[:, 0] = d
    del d, q
    zeros4 = _digit_tables()[1]
    nd = 17 - zeros4.take(groups[:, 4])
    rest = np.flatnonzero(groups[:, 4] == 0)  # the cells whose later groups are all zero
    for j in range(3, 0, -1):
        g = groups[rest, j]
        nd[rest] -= zeros4.take(g)
        rest = rest[g == 0]

    key = _codes().take(e - _E_MIN) + nd
    del nd, rest, g
    key[zero] = _ZERO * 18
    key[fallback] = _FALLBACK * 18
    counts = np.bincount(key, minlength=_KEYS)
    present = np.flatnonzero(counts[: _FALLBACK * 18]).tolist()
    widths = np.zeros(_KEYS, np.uint8)
    widths[present] = [_layout(k)[0].size for k in present]

    # the cells of each key are laid out together, taken in stable key order
    order = np.argsort(key, kind="stable")
    groups, e = groups[order], e[order]

    fb = np.flatnonzero(fallback)
    texts = [b"%.17g," % v for v in x[fb].tolist()]
    signed = np.signbit(x) & ~fallback
    width = widths.take(key) + signed
    width[fb] = [len(s) for s in texts]
    end = np.cumsum(width, dtype=np.int32)
    at = end - widths.take(key)  # where each cell's digits start, past any sign
    minus = at[signed] - 1
    at = at[order]
    del order, key, width, signed, zero, fallback
    out = np.empty(end[-1], np.uint8)
    out[minus] = ord("-")
    del minus
    for j, s in zip(fb.tolist(), texts):
        out[end[j] - len(s) : end[j]] = np.frombuffer(s, np.uint8)

    first = np.cumsum(counts) - counts
    for k in present:
        for lo in range(first[k], first[k] + counts[k], _BLOCK_CELLS):
            rows = slice(lo, min(lo + _BLOCK_CELLS, first[k] + counts[k]))
            _lay_out(out, at[rows], k, groups[rows], e[rows])
    return out, end


def _lines(values, lo: int, cols: int) -> str:
    """CSV lines of a table's _CHUNK_CELLS cells from flat index lo, its arrays freed on return."""
    top = lo // cols
    cells = values[top : (lo + _CHUNK_CELLS - 1) // cols + 1].ravel()[lo - top * cols :]
    text, end = _render(cells[:_CHUNK_CELLS])
    text[end[(cols - 1 - lo) % cols :: cols] - 1] = ord("\n")
    return str(text, "ascii")


def csv_lines(values) -> Iterator[str]:
    """The rows of a 2-D table as CSV lines, one chunk of _CHUNK_CELLS cells at a time.

    values is a float64 array, or any table with a shape whose row slices
    ``values[a:b]`` are one.  A chunk is rendered from the rows it spans when
    it is asked for, so the text is never held whole, nor one chunk while the
    next renders.
    """
    rows, cols = values.shape  # read at the call, so a shape not 2-D fails there
    chunks = range(0, rows * cols, _CHUNK_CELLS)
    return (_lines(values, lo, cols) for lo in chunks) if cols else iter(["\n" * rows])


def csv_text(names, values) -> Iterator[str]:
    """A header line of the names, then ``csv_lines(values)``; values has a column per name."""
    if values.shape[-1:] != (len(names),):
        raise ValueError(f"values must have shape (rows, {len(names)})")
    return itertools.chain([",".join(names) + "\n"], csv_lines(values))


class Table:
    """1-D columns under their names, rendered as they are written; ``csv_text(names, table)``.

    Its JSON is a list of records keyed by the names, unless ``row`` gives an
    item as JSON sees it, ``SLOT`` at each value in column order (``SLOT`` alone
    for a list of values).  A row slice stacks the columns, for ``csv_lines``.
    """

    def __init__(self, names, columns, row=None):
        self.columns = list(columns)
        self.row = dict.fromkeys(names, SLOT) if row is None else row
        self.shape = (len(self.columns[0]), len(self.columns))

    def __getitem__(self, rows: slice) -> np.ndarray:
        return np.column_stack([c[rows] for c in self.columns])

    def checked(self) -> "Table":
        """self, else json's own error at its first non-finite value in document order."""
        ok = [np.isfinite(c) for c in self.columns]
        bad = sorted((np.argmin(f), j) for j, f in enumerate(ok) if not f.all())
        json.dumps([self.columns[j][i].item() for i, j in bad], allow_nan=False)
        return self

    def json_list(self, before: str) -> Iterator[str]:
        """The list's JSON, as ``json.dumps(..., indent=2)`` lays out a value after ``before``."""
        line = before[before.rfind("\n") + 1 :]
        pad = "\n" + " " * (len(line) - len(line.lstrip(" ")) + 2)
        template = json.dumps(self.row, indent=2).replace("%", "%%").replace(_SLOT_JSON, "%r")
        template, (rows, cols) = template.replace("\n", pad), self.shape
        step = max(1, _CHUNK_CELLS // cols)
        for lo in range(0, rows, step):
            values = zip(*(c[lo : lo + step].tolist() for c in self.columns))
            yield ("," if lo else "[") + pad
            yield ("," + pad).join(map(template.__mod__, values))
        yield pad[:-2] + "]" if rows else "[]"


def json_text(obj) -> Iterator[str]:
    """``json.dumps(obj, indent=2, allow_nan=False) + "\\n"`` as chunks, each ``Table`` streamed.

    All else is dumped, and each table checked, before the first chunk: NaN
    and inf have no JSON spelling, so one raises json's ValueError here.
    """
    tables = []  # json.dumps hands each Table to default, in document order
    text = json.dumps(
        obj, indent=2, allow_nan=False, default=lambda t: tables.append(t.checked()) or SLOT
    )
    *pieces, last = text.split(_SLOT_JSON)
    streamed = [itertools.chain([p], table.json_list(p)) for p, table in zip(pieces, tables)]
    return itertools.chain(*streamed, [last + "\n"])
