"""The CSV cells of ``transitions.csv_text``: format(x, '.17g'), for a whole array at once.

A finite nonzero |x| is m * 2**ex with m in [0.5, 1) (np.frexp, exact for
subnormals too).  Its decimal exponent E = floor(log10|x|) is e_low or
e_low + 1, told apart exactly by one compare of m with a threshold per ex,
so N = |x| * 10**(16 - E) lies in [1e16, 1e17).  N is m times the constant
C = 2**ex * 10**(16 - E), held as the double-double ch + cl; Dekker's
two-product splits m * ch exactly into p + err, and N = p + r with
r = err + m * cl to within 2**-47 (README, Library).  p > 2**53 is an
integer, so the 17 digits are p + rint(r) unless r lies within
_TIE_MARGIN of a half: such cells, and the non-finite ones, take '%.17g'.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator

import numpy as np

_EX_MIN, _EX_MAX = -1073, 1024  # np.frexp's exponents of the finite nonzero floats
_SPLIT = 134217729.0  # 2**27 + 1
_TIE_MARGIN = 2.0**-30
_CHUNK_CELLS = 1 << 14  # cells rendered per pass, to bound the temporaries
# A cell's layout code: E + 4 in fixed notation (-4 <= E < 17), else these.
_EXP2, _EXP3, _ZERO, _FALLBACK = 21, 22, 23, 24
_E_MIN = -324  # the decimal exponent of the smallest subnormal
_KEYS = 18 * (_FALLBACK + 1)  # a cell's layout key: code * 18 + its digit count


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
    return np.zeros(span, bool), np.zeros(span, np.int64), np.zeros(span), np.zeros((4, span, 2))


def _scales(ex: np.ndarray) -> tuple[np.ndarray, ...]:
    """e_low, thr and the constants of ``_scale`` by exponent, built for those in ex."""
    built, e_low, thr, consts = _scale_tables()
    seen = np.zeros_like(built)
    seen[ex - _EX_MIN] = True
    for i in np.flatnonzero(seen & ~built).tolist():
        e_low[i], thr[i], rows = _scale(i + _EX_MIN)
        consts[:, i] = np.transpose(rows)
    built |= seen
    return e_low, thr, consts.reshape(4, -1)


@functools.cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """The ASCII digits of 0000..9999, one uint32 each, and their trailing zero counts."""
    axis = [(10,) + (1,) * (3 - j) for j in range(4)]  # digit j of a group varies along axis j
    digits = np.empty((10, 10, 10, 10, 4), np.uint8)
    for j in range(4):
        digits[..., j] = np.arange(ord("0"), ord("9") + 1).reshape(axis[j])
    zero = [(np.arange(10) == 0).reshape(shape) for shape in axis]
    zeros = zero[3] * (1 + zero[2] * (1 + zero[1] * (1 + zero[0])))
    return digits.view(np.uint32).ravel(), zeros.ravel()


@functools.cache
def _codes() -> np.ndarray:
    """The layout code of each decimal exponent from _E_MIN up."""
    e = np.arange(_E_MIN, 309)  # up to the largest float's, 308
    return np.where((e >= -4) & (e < 17), e + 4, np.where(np.abs(e) < 100, _EXP2, _EXP3))


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


def _scatter(out: np.ndarray, at: np.ndarray, block: np.ndarray) -> None:
    """Copy each row of the uint8 block into out, starting at its entry of at."""
    w = block.shape[1]
    windows = np.ndarray((out.size - w + 1,), f"V{w}", out, strides=(1,))
    windows[at] = block.view(f"V{w}")[:, 0]


def _decimal(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Finite positive a as d * 10**(e - 16), d its 17 digits rounded half-even.

    Returns d (in [1e16, 1e17)), e, and where d is too near a tie to vouch for.
    """
    m, ex = np.frexp(a)
    e_low, thr, consts = _scales(ex)
    i = ex - _EX_MIN
    bump = m >= thr[i]
    ch, chh, chl, cl = consts.take(2 * i + bump, axis=1)
    t = m * _SPLIT
    mh = t - (t - m)
    ml = m - mh
    p = m * ch
    r = (((mh * chh - p) + mh * chl + ml * chh) + ml * chl) + m * cl
    near = np.rint(r)
    d = p.astype(np.int64) + near.astype(np.int64)
    carry = d == 10**17
    d[carry] = 10**16
    return d, e_low[i] + bump + carry, np.abs(r - near) > 0.5 - _TIE_MARGIN


def _render(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """format(v, '.17g') + ',' for each v of the flat float64 array x, as ASCII.

    Returns the text as a uint8 array and the index of each cell's ','.
    """
    a = np.abs(x)
    zero = a == 0
    fallback = ~np.isfinite(a)
    d, e, tie = _decimal(np.where(zero | fallback, 1.0, a))
    fallback |= tie

    # the 17 digits: a leading one and four groups of four
    groups = []
    for unit in (10**16, 10**12, 10**8, 10**4):
        groups.append(d // unit)
        d = d - groups[-1] * unit
    groups.append(d)
    ascii4, zeros4 = _digit_tables()
    nd = 17 - zeros4[groups[4]]
    rest = np.flatnonzero(groups[4] == 0)  # the cells whose later groups are all zero
    for g in groups[3:0:-1]:
        nd[rest] -= zeros4[g[rest]]
        rest = rest[g[rest] == 0]

    key = _codes()[e - _E_MIN] * 18 + nd
    key[zero] = _ZERO * 18
    key[fallback] = _FALLBACK * 18
    counts = np.bincount(key, minlength=_KEYS)
    present = np.flatnonzero(counts[: _FALLBACK * 18]).tolist()
    widths = np.zeros(_KEYS, np.int64)
    widths[present] = [_layout(k)[0].size for k in present]

    fb = np.flatnonzero(fallback)
    texts = [b"%.17g," % v for v in x[fb].tolist()]
    signed = np.signbit(x) & ~fallback
    width = widths[key] + signed
    width[fb] = [len(s) for s in texts]
    end = np.cumsum(width)
    out = np.empty(end[-1], np.uint8)
    out[(end - width)[signed]] = ord("-")
    for j, s in zip(fb.tolist(), texts):
        out[end[j] - len(s) : end[j]] = np.frombuffer(s, np.uint8)

    # the cells of each key are laid out together, taken in stable key order
    order = np.argsort(key.astype(np.uint16), kind="stable")
    at = (end - widths[key])[order]
    e = e[order]
    digits = np.empty((x.size, 5), np.uint32)
    for col, g in enumerate(groups):
        digits[:, col] = ascii4[g[order]]
    digits = digits.view(np.uint8)[:, 3:]  # the leading group reads "000d"
    first = np.cumsum(counts) - counts
    for k in present:
        rows = slice(first[k], first[k] + counts[k])
        template, runs, exp = _layout(k)
        block = np.empty((counts[k], template.size), np.uint8)
        block[:] = template
        for col, digit, n in runs:
            block[:, col : col + n] = digits[rows, digit : digit + n]
        if exp:
            col, n = exp
            block[:, col] = np.where(e[rows] < 0, ord("-"), ord("+"))
            q = np.abs(e[rows])
            for j in range(n):
                block[:, col + n - j] = q // 10**j % 10 + ord("0")
        _scatter(out, at[rows], block)
    return out, end - 1


def csv_lines(values: np.ndarray) -> Iterator[str]:
    """The rows of a 2-D float64 array as CSV lines, one chunk of _CHUNK_CELLS cells at a time.

    A chunk is rendered when it is asked for, so the text is never held whole.
    """
    rows, cols = values.shape
    if not cols:
        yield "\n" * rows
        return
    flat = values.ravel()
    for lo in range(0, flat.size, _CHUNK_CELLS):
        text, ends = _render(flat[lo : lo + _CHUNK_CELLS])
        text[ends[(cols - 1 - lo) % cols :: cols]] = ord("\n")
        yield text.tobytes().decode("ascii")
