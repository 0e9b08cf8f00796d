"""Family file format.

Plain text: a header line ``q n k m``, then m blocks of k lines, each line
n element encodings (the RREF rows of one subspace), every number an ASCII
``-?[0-9]+`` between U+0020 spaces; lines of spaces, or whose first other
character is ``#``, are comments.  Every block must already be an RREF
basis and blocks must be pairwise distinct; the writer emits exactly this
shape, so construct -> file -> verify round-trips byte-identically.  Both
directions work on the family's (m, k, n) basis array; the reader checks
all blocks at once and reports the first offending one.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import InvalidArgs
from .gfq import field_new
from .subspaces import SubspaceFamily, is_rref

# a data line: int() and split() would also take "+1", "0_1", U+0661 or a tab
_DATA_LINE = re.compile(r"-?[0-9]+( +-?[0-9]+)*")
# the line ends text-mode open() reads; str.splitlines also breaks at U+000B, U+000C, ...
_NEWLINE = re.compile(r"\r\n?|\n")


def format_rows(rows: np.ndarray) -> str:
    """One data line of element encodings per row of an (..., n) basis array."""
    return "\n".join(" ".join(map(str, row)) for row in rows.reshape(-1, rows.shape[-1]).tolist())


def format_family(q: int, n: int, k: int, family: SubspaceFamily, comments=()) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append(f"{q} {n} {k} {len(family)}")
    if len(family):
        dim, cols = family.bases.shape[1:]
        if (dim, cols) != (k, n):
            raise InvalidArgs(f"family member has shape {dim}x{cols}, header says {k}x{n}")
        if family.ctx.q != q:
            raise InvalidArgs(f"family member is over GF({family.ctx.q}), header says {q}")
        lines.append(format_rows(family.bases))
    return "\n".join(lines) + "\n"


def parse_family(text: str) -> tuple:
    """Returns (ctx, n, k, SubspaceFamily)."""
    data = []
    for ln, raw in enumerate(_NEWLINE.split(text), 1):
        line = raw.strip(" ")
        if not line or line.startswith("#"):
            continue
        try:
            if not _DATA_LINE.fullmatch(line):
                raise ValueError
            data.append([int(tok) for tok in line.split()])
        except ValueError:  # int() also refuses a token of over 4300 digits
            raise InvalidArgs(f"line {ln}: non-integer token in {raw!r}")
    if not data:
        raise InvalidArgs("empty family file")
    header = data[0]
    if len(header) != 4:
        raise InvalidArgs(f"header must be `q n k m`, got {header}")
    q, n, k, m = header
    if k < 1 or n < k or m < 0:
        raise InvalidArgs(f"bad header values q={q} n={n} k={k} m={m}")
    body = data[1:]
    if len(body) != m * k:
        raise InvalidArgs(f"expected {m * k} basis rows, found {len(body)}")
    ctx = field_new(q)
    # the blocks before the first one holding a row of another length
    whole = next((i // k for i, row in enumerate(body) if len(row) != n), m)
    # entries clipped to [-1, q]: a token beyond int64 is outside the field like any other
    rows = np.array([[min(max(x, -1), q) for x in row] for row in body[:whole * k]],
                    dtype=np.int64)
    try:
        blocks = rows.reshape(whole, k, n)
    except ValueError:  # no complete block, and no array is k x n: an empty family's shape
        blocks = rows.reshape(0, 0, 0)
    outside = (blocks < 0) | (blocks >= q)
    bad = np.flatnonzero(outside.any(axis=(1, 2)) | ~is_rref(blocks))
    # a block repeating an earlier one is the first fault if no bad block precedes it
    valid = bad[0] if len(bad) else whole
    try:
        fam = SubspaceFamily.from_bases(ctx, blocks[:valid])
    except InvalidArgs as e:
        raise InvalidArgs(f"duplicate blocks: {e}")
    if len(bad):
        b = bad[0]
        if outside[b].any():
            entry = next(x for row in body[b * k:(b + 1) * k] for x in row if not 0 <= x < q)
            raise InvalidArgs(f"block {b}: entry {entry} is not a GF({q}) encoding")
        raise InvalidArgs(f"block {b}: basis rows are not in reduced row echelon form")
    if whole < m:
        raise InvalidArgs(f"block {whole}: data shape does not match {k}x{n}")
    return ctx, n, k, fam
