"""Gaussian-cube text of density values, byte-identical to "%13.5E" per value.

grid-export writes its grid values through _cube_text: six 13-byte cells to
a row, each formatted from numpy digits and lookup tables of 4-byte words
rather than by one Python format call per value.  The tables are built when
this module is imported, which only grid-export does.
"""

from __future__ import annotations

import numpy as np

# cube values: 6 per row of 13-byte cells, formatted a block of whole rows at a time
CUBE_BLOCK = 6 * 1365
_CUBE_ROW = np.frombuffer(b"  0.00000E+00" * 6 + b"\n", dtype=np.uint8)
# 10^(5-e) at e + 100, correctly rounded
_SCALE = np.array([float(10**k) if k >= 0 else 1 / 10**-k for k in range(105, -96, -1)])
# a cell's bytes 2-5, 6-9 and 9-12 as 4-byte words: "d.dd" and "dddE" for the
# digit triples 000-999, "E+ee" for the exponents -99 to +99; little-endian
# here and in the stores, so the host's byte order cannot matter
_LEAD = np.array([f"{i // 100}.{i % 100:02d}" for i in range(1000)], dtype="S4").view("<u4")
_TAIL = np.array([f"{i:03d}E" for i in range(1000)], dtype="S4").view("<u4")
_EXPONENT = np.array([f"E{i:+03d}" for i in range(-99, 100)], dtype="S4").view("<u4")


def _cube_block(v: np.ndarray, cells: np.ndarray, words: list, work: tuple) -> None:
    """Write the values v into the cells (r, 6, 13) of whole rows, which hold
    the row template, each cell as "%13.5E" writes it; a partial last row is
    filled up with 1.0.  words are the cells' little-endian 4-byte words at
    bytes 2, 6 and 9, (r, 6) each; work is _cube_text's float and int arrays,
    one block long, that every block reuses."""
    m = len(cells) * 6
    x, s, d = work[0][:, :m]
    e, lead, tail = work[1][:, :m]
    x[: len(v)] = v
    x[len(v) :] = 1.0
    # two-digit exponents and +0.0 only; 1.0 stands in for every other cell
    zero = x.view(np.int64) == 0  # +0.0 alone: -0.0 prints its sign
    slow = ~((x > 1e-98) & (x < 1e98))
    x[slow] = 1.0
    np.floor(np.log10(x, out=s), out=s)
    e[:] = s
    np.take(_SCALE, np.add(e, 100, out=lead), out=s)
    s *= x
    np.rint(s, out=d)
    carry = d == 1e6
    e += carry
    d[carry] = 1e5
    d[zero] = 0.0  # with e = 0 the words spell "  0.00000E+00"
    lead[:] = d
    np.divmod(lead, 1000, out=(lead, tail))
    e += 99
    for table, index, word in zip((_LEAD, _TAIL, _EXPONENT), (lead, tail, e), words):
        word[...] = table.take(index).reshape(word.shape)
    # the distance of s from a .5 tie, in x
    np.subtract(s, np.floor(s, out=x), out=x)
    x -= 0.5
    tie = np.abs(x, out=x) < 1e-6
    for i in np.flatnonzero((slow & ~zero) | tie):
        cells[i // 6, i % 6] = np.frombuffer(b"%13.5E" % v[i], dtype=np.uint8)


def _cube_text(header: str, values: np.ndarray) -> str:
    """header, then the values 6 to a row, byte-identical to "%13.5E" per value.

    For 1e-98 < v < 1e98 the cell comes from numpy digits: e = floor(log10 v)
    and d = rint(s), s = v 10^(5-e), with d = 1e6 carried into e.  The power of
    ten and the product each round once, so s is within 2.3e-10 (< 1e-9) of
    its exact value, and d is the correctly rounded digit string wherever s
    is farther than 1e-6 from a .5 tie: a 1000x margin.  log10 is one off only
    within about 1e-13 of a power of ten, where s is within 1e-7 of 1e5 (d =
    1e5) or of 1e6 (carried), so e needs no other fix.  A +0.0 cell takes d = 0
    and e = 0, which the same tables spell "  0.00000E+00".  Cells within the
    tie margin, and every -0.0, negative, non-finite or out-of-range value, go
    through "%13.5E" itself; such a cell is also 13 bytes, so it overwrites its
    own slot.  log10 sees only values in range, and e only indexes inside the
    tables, so no floating-point warning can arise.

    The text is built in one byte buffer, filled with the row template once
    and decoded once.  Each cell's digits go in as three 4-byte word stores
    (bytes 2-5 "d.dd", 6-9 "dddE", 9-12 "E+ee"), through strided views of
    the buffer, rather than as byte copies of 1-3 bytes each; the float and
    int work arrays of one block are allocated once and reused by every block.
    """
    n, width = len(values), _CUBE_ROW.size
    if not n:
        return header
    head = header.encode("utf-8")
    nrows = -(-n // 6)
    buf = np.empty(len(head) + nrows * width, dtype=np.uint8)
    buf[: len(head)] = np.frombuffer(head, dtype=np.uint8)
    rows = buf[len(head) :].reshape(-1, width)
    rows[:] = _CUBE_ROW
    cells = rows[:, :-1].reshape(nrows, 6, 13)
    words = [np.ndarray((nrows, 6), "<u4", buf, len(head) + k, (width, 13)) for k in (2, 6, 9)]
    work = (np.empty((3, CUBE_BLOCK)), np.empty((3, CUBE_BLOCK), dtype=np.intp))
    block = CUBE_BLOCK // 6
    for r in range(0, nrows, block):
        rs = slice(r, r + block)
        _cube_block(values[6 * r : 6 * r + CUBE_BLOCK], cells[rs], [w[rs] for w in words], work)
    end = len(head) + n // 6 * width + n % 6 * 13
    if n % 6:
        buf[end] = 10  # "\n" after a partial last row
        end += 1
    return str(buf[:end].data, "utf-8")
