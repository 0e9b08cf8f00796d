"""Family file format.

Plain text: a header line ``q n k m`` (space-separated decimals), then m
blocks of k lines, each line n space-separated element encodings — the
RREF rows of one subspace.  Lines starting with ``#`` and blank lines are
comments.  Every block must already be a reduced row echelon basis and
blocks must be pairwise distinct; the writer emits exactly this shape, so
construct -> file -> verify round-trips byte-identically.  Both directions
work on the family's (m, k, n) basis array; the reader checks all blocks
at once and reports the first offending one.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgs
from .gfq import field_new
from .subspaces import SubspaceFamily, is_rref


def format_family(q: int, n: int, k: int, family: SubspaceFamily, comments=()) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append(f"{q} {n} {k} {len(family)}")
    if len(family):
        dim, cols = family.bases.shape[1:]
        if (dim, cols) != (k, n):
            raise InvalidArgs(f"family member has shape {dim}x{cols}, header says {k}x{n}")
        if family.ctx.q != q:
            raise InvalidArgs(f"family member is over GF({family.ctx.q}), header says {q}")
        lines.extend(" ".join(map(str, row)) for row in family.bases.reshape(-1, n).tolist())
    return "\n".join(lines) + "\n"


def parse_family(text: str) -> tuple:
    """Returns (ctx, n, k, SubspaceFamily)."""
    data = []
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            data.append([int(tok) for tok in line.split()])
        except ValueError:
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
    blocks = np.array([[min(max(x, -1), q) for x in row] for row in body[:whole * k]],
                      dtype=np.int64).reshape(whole, k, n)
    outside = (blocks < 0) | (blocks >= q)
    bad = np.flatnonzero(outside.any(axis=(1, 2)) | ~is_rref(blocks))
    # a block repeating an earlier one is the first fault if no bad block precedes it
    valid = bad[0] if len(bad) else whole
    try:
        fam = SubspaceFamily.from_bases(ctx, blocks[:valid]) if m else SubspaceFamily([])
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
