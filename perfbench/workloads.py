"""Job lists, seeded inputs and output checks for the three workloads.

A job is one `grassmd` CLI call.  The seed decides the job order and, for
`reject`, the candidate families; `grassmd` itself only ever sees the
family files and the arguments.  Checks run after a pass, outside the
timed region, and return an error string or None.

This module imports `grassmd` (from the checkout's `src/`) to generate the
`reject` families and to re-check outputs independently of the CLI.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import grassmd
from grassmd import gaussian_binomial as qbinom
from grassmd.linalg import mat_mul

# construct -> verify -> rank instances: (method, q, n, k).  Together they
# reach all three code-table kernels (q = 2 bitmask; numpy for prime q with
# k = 2; the general table loop for q = 4) and the incremental Bareiss that
# the greedy construction runs.
CERTIFY_GRID = (
    ("spread", 2, 6, 2),
    ("spread", 3, 6, 2),
    ("partition", 2, 7, 2),
    ("partition", 3, 5, 2),
    ("partition", 4, 4, 2),
    ("greedy", 4, 4, 2),
)

# SHA-256 of each `construct` output: constructions are deterministic and
# the family file is a byte-identical contract.
CONSTRUCT_SHA256 = {
    ("spread", 2, 6, 2):
        "eb4da157e319abe814dc3b6f6791242df219b1aab69e2eaee55e585a6e23f056",
    ("spread", 3, 6, 2):
        "197a378cc5ad5196ca53be6890b960d928df4656017cba7e16456fc70dd86803",
    ("partition", 2, 7, 2):
        "b759690e03b0d352da2548e85a67cd9abc68be48da14bbf3a31a0ea5d7fd8fc5",
    ("partition", 3, 5, 2):
        "8244833244b32c62933a6e013c03752e5fa80405a6eef2841350777ec8842009",
    ("partition", 4, 4, 2):
        "1ef2f6b6f13d70d98c7ec9b6d7fc7974a7bb0c936b6482886ea7236bed1682d1",
    ("greedy", 4, 4, 2):
        "7616b05d525e14998a4922cb724d0a00efef2f3775ed924ab4ba1456df4a5c0f",
}

# (q, n, k, m): m k-subspaces of one random hyperplane, m > [n-1 1]_q.
REJECT_GRID = (
    (2, 7, 3, 80),
    (3, 6, 2, 150),
    (4, 5, 2, 100),
    (3, 5, 2, 60),
)

SEARCH_EXACT = ((2, 4, 2),)
SEARCH_GREEDY = ((3, 4, 2), (2, 5, 2), (4, 4, 2))
EXACT_MU = {(2, 4, 2): 6}

@dataclass
class Job:
    kind: str                 # construct | verify | rank | metricdim
    argv: tuple               # arguments after `grassmd`
    expect_rc: int
    check: object             # check(job, stdout_text) -> error or None
    info: dict = field(default_factory=dict)


# --- certify -----------------------------------------------------------------

def _expected_size(method, q, n, k):
    if method == "spread":
        return qbinom(n, 1, q)
    if method == "partition" and n % (k + 1) == 1:
        return qbinom(n, 1, q) + q ** (n - k) * qbinom(k - 1, 1, q)
    return None


def _check_construct(job, out):
    path = Path(job.info["file"])
    data = path.read_bytes()
    key = job.info["instance"]
    digest = hashlib.sha256(data).hexdigest()
    if digest != CONSTRUCT_SHA256[key]:
        return f"construct {key}: sha256 {digest} differs from the pinned value"
    header = next(ln for ln in data.decode().splitlines() if not ln.startswith("#"))
    m = int(header.split()[3])
    want = _expected_size(*key)
    if want is not None and m != want:
        return f"construct {key}: {m} members, closed form says {want}"
    return None


def _check_verify_yes(job, out):
    doc = json.loads(out)
    if not doc["resolving"]:
        return f"verify {job.argv}: not resolving, collision {doc['collision']}"
    job.info["cells"] = qbinom(doc["n"], doc["k"], doc["q"]) * doc["family_size"]
    return None


def _check_rank_yes(job, out):
    doc = json.loads(out)
    q, n = job.info["q"], job.info["n"]
    if not doc["certified"] or doc["rank"] != doc["required"] or doc["required"] != qbinom(n, 1, q):
        return f"rank {job.argv}: {doc}"
    job.info["cells"] = doc["m"] * doc["N"]
    return None


def certify_jobs(rng: random.Random, workdir: Path) -> list:
    instances = list(CERTIFY_GRID)
    rng.shuffle(instances)
    jobs = []
    for inst in instances:
        method, q, n, k = inst
        f = str(workdir / f"certify_{method}_{q}_{n}_{k}.txt")
        qnk = (str(q), str(n), str(k))
        info = {"instance": inst, "file": f, "q": q, "n": n}
        jobs.append(Job("construct", ("construct", method, *qnk, "-o", f), 0,
                        _check_construct, dict(info)))
        jobs.append(Job("verify", ("verify", *qnk, "-f", f, "--json"), 0,
                        _check_verify_yes, dict(info)))
        jobs.append(Job("rank", ("rank", "-f", f, "--json"), 0,
                        _check_rank_yes, dict(info)))
    return jobs


# --- reject ------------------------------------------------------------------

def reject_family(rng: random.Random, q: int, n: int, k: int, m: int):
    """m distinct k-subspaces of one random hyperplane H of V(n,q).

    Two k-subspaces A != B outside H with A ∩ H = B ∩ H have the same
    distance to every member, so the family is never resolving; its
    incidence rows live on the [n-1 1]_q points of H, so the rank stays
    below [n 1]_q.
    """
    if not qbinom(n - 1, 1, q) < m <= qbinom(n - 1, k, q):
        raise ValueError(f"m={m} must lie in ([{n-1} 1]_{q}, [{n-1} {k}]_{q}]")
    ctx = grassmd.field_new(q)
    hyper = rng.choice(grassmd.enumerate_k_subspaces(ctx, n, n - 1))
    coeffs = rng.sample(grassmd.enumerate_k_subspaces(ctx, n - 1, k), m)
    members = [grassmd.Subspace.from_rows(ctx, n, mat_mul(c.basis, hyper.basis).data)
               for c in coeffs]
    return grassmd.SubspaceFamily(members)


class RejectChecker:
    """Re-checks `reject` answers with `grassmd.distance`, not the CLI's
    code table; vertex lists are enumerated once per (q, n, k)."""

    def __init__(self):
        self._vertices = {}

    def vertices(self, q, n, k):
        if (q, n, k) not in self._vertices:
            ctx = grassmd.field_new(q)
            self._vertices[(q, n, k)] = grassmd.enumerate_k_subspaces(ctx, n, k)
        return self._vertices[(q, n, k)]

    def check_verify(self, job, out):
        doc = json.loads(out)
        if doc["resolving"] or not doc["collision"]:
            return f"verify {job.argv}: expected a collision, got {doc}"
        q, n, k, fam = job.info["q"], job.info["n"], job.info["k"], job.info["family"]
        i, j = doc["collision"]
        verts = self.vertices(q, n, k)
        a, b = verts[i], verts[j]
        if a == b or any(grassmd.distance(a, u) != grassmd.distance(b, u) for u in fam):
            return f"verify {job.argv}: collision {i} {j} is not a real collision"
        job.info["cells"] = len(verts) * len(fam)
        return None

    @staticmethod
    def check_rank(job, out):
        doc = json.loads(out)
        q, n = job.info["q"], job.info["n"]
        if doc["certified"] or doc["rank"] > qbinom(n - 1, 1, q):
            return f"rank {job.argv}: expected rank <= [{n-1} 1]_{q}, got {doc}"
        job.info["cells"] = doc["m"] * doc["N"]
        return None


def reject_jobs(rng: random.Random, workdir: Path) -> list:
    checker = RejectChecker()
    grid = list(REJECT_GRID)
    rng.shuffle(grid)
    jobs = []
    for q, n, k, m in grid:
        fam = reject_family(rng, q, n, k, m)
        f = workdir / f"reject_{q}_{n}_{k}.txt"
        f.write_text(grassmd.format_family(q, n, k, fam, comments=["reject candidate"]))
        info = {"q": q, "n": n, "k": k, "family": fam}
        qnk = (str(q), str(n), str(k))
        jobs.append(Job("verify", ("verify", *qnk, "-f", str(f), "--json"), 1,
                        checker.check_verify, dict(info)))
        jobs.append(Job("rank", ("rank", "-f", str(f), "--json"), 1,
                        checker.check_rank, dict(info)))
    return jobs


# --- search ------------------------------------------------------------------

def _witness_resolves(doc) -> bool:
    q, n, k = doc["q"], doc["n"], doc["k"]
    ctx = grassmd.field_new(q)
    fam = grassmd.SubspaceFamily(grassmd.Subspace.from_rows(ctx, n, rows)
                                 for rows in doc["witness"])
    g = grassmd.GrassmannGraph(ctx, n, k)
    return len(fam) == doc["size"] and grassmd.is_resolving(fam, g).resolving


def _check_metricdim(job, out):
    doc = json.loads(out)
    key = (doc["q"], doc["n"], doc["k"])
    if doc["method"] == "exact" and doc["mu"] != EXACT_MU[key]:
        return f"metricdim {job.argv}: mu={doc['mu']}, expected {EXACT_MU[key]}"
    if doc["method"] == "exact" and doc["size"] != doc["mu"]:
        return f"metricdim {job.argv}: witness size {doc['size']} is not mu={doc['mu']}"
    if not _witness_resolves(doc):
        return f"metricdim {job.argv}: witness does not resolve G_{key}"
    return None


def search_jobs(rng: random.Random, workdir: Path) -> list:
    jobs = [Job("metricdim", ("metricdim", method, str(q), str(n), str(k), "--json"),
                0, _check_metricdim, {"q": q, "n": n, "k": k})
            for method, grid in (("exact", SEARCH_EXACT), ("greedy", SEARCH_GREEDY))
            for q, n, k in grid]
    rng.shuffle(jobs)
    return jobs


def make_jobs(workload: str, seed: int, workdir: Path) -> list:
    builders = {"certify": certify_jobs, "reject": reject_jobs, "search": search_jobs}
    return builders[workload](random.Random(seed), workdir)
