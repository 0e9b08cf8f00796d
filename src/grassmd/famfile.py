"""Family file format.

Plain text: a header line ``q n k m`` (space-separated decimals), then m
blocks of k lines, each line n space-separated element encodings — the
RREF rows of one subspace.  Lines starting with ``#`` and blank lines are
comments.  Every block must already be a reduced row echelon basis and
blocks must be pairwise distinct; the writer emits exactly this shape, so
construct -> file -> verify round-trips byte-identically.
"""

from __future__ import annotations

from .errors import InvalidArgs
from .gfq import field_new
from .linalg import MatGFq
from .subspaces import Subspace, SubspaceFamily


def format_family(q: int, n: int, k: int, family: SubspaceFamily, comments=()) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append(f"{q} {n} {k} {len(family)}")
    for sub in family:
        if sub.dim != k or sub.n != n:
            raise InvalidArgs(
                f"family member has shape {sub.dim}x{sub.n}, header says {k}x{n}"
            )
        if sub.ctx.q != q:
            raise InvalidArgs(f"family member is over GF({sub.ctx.q}), header says {q}")
        lines.append(sub.to_text())
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
    members = []
    for b in range(m):
        try:  # MatGFq checks the row lengths and entries, Subspace the RREF
            sub = Subspace(ctx, n, MatGFq(ctx, k, n, body[b * k : (b + 1) * k]))
        except InvalidArgs as e:
            raise InvalidArgs(f"block {b}: {e}")
        members.append(sub)
    try:
        fam = SubspaceFamily(members)
    except InvalidArgs as e:
        raise InvalidArgs(f"duplicate blocks: {e}")
    return ctx, n, k, fam
