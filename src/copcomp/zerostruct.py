"""Zero-set structure of a copositive matrix.

Enumerates the vertices of the convex hull of the normalized zero set,
their contact sets, the maximal mutually-compatible blocks with their
supports, and per-block basis subsets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cones import CopVerdict, is_copositive, principal_blocks
from .symcore import Tolerances, null_eigenvalues, rank_of_vectors, symmetrize


class ZeroStructureError(ValueError):
    """Raised when structural verification fails (tolerance trouble upstream)."""


@dataclass
class ZeroStructure:
    """Vertices tau(j), contact sets M(j), blocks J(s), supports P_*(s),
    and basis subsets J_b(s) for one copositive matrix.

    All index sets are 0-based internally; JSON serialization is 1-based.
    """

    x: np.ndarray
    vertices: list  # list of simplex vectors
    contact_sets: list  # list of sorted index tuples, one per vertex
    blocks: list  # list of sorted vertex-index tuples J(s)
    supports: list  # list of sorted index tuples P_*(s)
    basis: list  # list of sorted vertex-index tuples J_b(s)
    cond_c_witnesses: dict = field(default_factory=dict)
    overlapping_blocks: bool = False

    @property
    def p(self) -> int:
        return self.x.shape[0]

    def block_vectors(self, s: int) -> list[np.ndarray]:
        """The vertices tau(j), j in J(s), restricted to P_*(s)."""
        idx = np.asarray(self.supports[s])
        return [self.vertices[j][idx] for j in self.blocks[s]]

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "vertices": [v.tolist() for v in self.vertices],
            "contact_sets": [[k + 1 for k in m] for m in self.contact_sets],
            "blocks": [[j + 1 for j in b] for b in self.blocks],
            "supports": [[k + 1 for k in ps] for ps in self.supports],
            "basis": [[j + 1 for j in b] for b in self.basis],
            "overlapping_blocks": self.overlapping_blocks,
        }


def pair_index_set(indices) -> list[tuple[int, int]]:
    """V(I) = {(i, j): i, j in I, i <= j} in lexicographic order."""
    idx = sorted(indices)
    return [(i, j) for a, i in enumerate(idx) for j in idx[a:]]


def pair_sums(vectors, indices) -> list[np.ndarray]:
    """The pair sums vectors[a] + vectors[b], (a, b) in V(indices), in
    :func:`pair_index_set` order."""
    return [vectors[a] + vectors[b] for a, b in pair_index_set(indices)]


def support_of(t: np.ndarray, tol: Tolerances) -> tuple[int, ...]:
    return tuple(int(k) for k in np.nonzero(np.abs(t) > tol.zero_tol)[0])


def _is_zero_with_kkt(x: np.ndarray, t: np.ndarray, bound: float) -> bool:
    if abs(float(t @ x @ t)) > bound:
        return False
    return bool(np.min(x @ t) >= -bound)


def enumerate_zero_vertices(x: np.ndarray, tol: Tolerances = Tolerances(),
                            verdict: CopVerdict | None = None) -> list[np.ndarray]:
    """Vertices of conv T_a(X) for a copositive X.

    For each support I the zeros with full support I lie in the kernel of
    the principal submatrix X_I; a vertex with that exact support exists
    iff the kernel is one-dimensional with a strictly positive generator.
    All supports of one size share one stacked ``eigh`` call.

    Every candidate is a vertex, so no hull test is needed: if
    t = sum lam_j t_j (lam_j > 0, t_j zeros of X), then supp(t_j) is in I,
    X t_j >= 0 (KKT at a zero) and (X t)_I = 0 give (X t_j)_I = 0, so
    (t_j)_I lies in ker X_I = span(v) and t_j = t on the simplex.

    ``verdict`` is ``is_copositive(x, tol)`` when the caller already holds
    it; it is computed here when absent.
    """
    x = symmetrize(x)
    if verdict is None:
        verdict = is_copositive(x, tol)
    if not verdict.member:
        raise ZeroStructureError(
            f"matrix is not copositive (min {verdict.min_value:.3e}); "
            "zero structure undefined"
        )
    p = x.shape[0]
    candidates: list[np.ndarray] = []
    for size in range(1, p + 1):
        supports, xi = principal_blocks(x, size)
        lam, vecs = np.linalg.eigh(xi)
        null = null_eigenvalues(lam, tol)
        for m in np.nonzero(np.count_nonzero(null, axis=1) == 1)[0]:
            v = vecs[m][:, np.argmax(null[m])]
            if v.sum() < 0:
                v = -v
            if np.min(v) <= tol.zero_tol:
                continue  # kernel vector not strictly positive on the support
            t = np.zeros(p)
            t[supports[m]] = v / v.sum()
            if not _is_zero_with_kkt(x, t, min(tol.slack, 0.99)):
                continue
            if all(np.linalg.norm(t - c, ord=np.inf) > tol.zero_tol for c in candidates):
                candidates.append(t)
    candidates.sort(key=lambda v: tuple(np.round(v, 12)))
    return candidates


def compute_contact_set(x: np.ndarray, tau: np.ndarray, tol: Tolerances = Tolerances()) -> tuple[int, ...]:
    """M(j) = {k : e_k' X tau = 0} for a zero tau of X."""
    x = symmetrize(x)
    tau = np.asarray(tau, dtype=float)
    if abs(float(tau @ x @ tau)) > tol.slack:
        raise ZeroStructureError("tau is not a zero of X within tolerance")
    g = x @ tau
    contact = tuple(int(k) for k in np.nonzero(np.abs(g) <= tol.zero_tol)[0])
    supp = support_of(tau, tol)
    if not set(supp) <= set(contact):
        raise ZeroStructureError("contact set does not contain supp(tau)")
    return contact


def _maximal_cliques(n: int, adj: list[set]) -> list[tuple[int, ...]]:
    """Bron-Kerbosch with pivoting on the compatibility graph."""
    cliques: list[tuple[int, ...]] = []

    def expand(r: set, p: set, x: set) -> None:
        if not p and not x:
            cliques.append(tuple(sorted(r)))
            return
        pivot = max(p | x, key=lambda v: len(adj[v] & p))
        for v in sorted(p - adj[pivot]):
            expand(r | {v}, p & adj[v], x & adj[v])
            p = p - {v}
            x = x | {v}

    expand(set(), set(range(n)), set())
    cliques.sort()
    return cliques


def partition_blocks(vertices: list, contact_sets: list, tol: Tolerances = Tolerances()):
    """Blocks J(s) as maximal cliques of the mutual-compatibility graph.

    Edge {i, j} iff supp(tau(i)) <= M(j) and supp(tau(j)) <= M(i); the
    cover conditions a)-c) are re-verified on the output and separation
    witnesses (i0, j0, k0) recorded for condition c).
    """
    n = len(vertices)
    supp = [set(support_of(v, tol)) for v in vertices]
    contact = [set(m) for m in contact_sets]
    adj = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if supp[i] <= contact[j] and supp[j] <= contact[i]:
                adj[i].add(j)
                adj[j].add(i)
    blocks = _maximal_cliques(n, adj) if n else []

    # condition a): every index covered
    covered = set().union(*[set(b) for b in blocks]) if blocks else set()
    if covered != set(range(n)):
        raise ZeroStructureError("block cover misses vertex indices (condition a)")
    # condition b): union of supports inside every member's contact set
    for b in blocks:
        union_supp = set().union(*[supp[j] for j in b])
        for i in b:
            if not union_supp <= contact[i]:
                raise ZeroStructureError(
                    f"condition b) fails for block {b}, member {i}"
                )
    # condition c): pairwise separation witnesses
    witnesses = {}
    for a in range(len(blocks)):
        for bidx in range(len(blocks)):
            if a == bidx:
                continue
            sa, sb = set(blocks[a]), set(blocks[bidx])
            only_a = sa - sb
            only_b = sb - sa
            if not only_a or not only_b:
                raise ZeroStructureError(
                    f"blocks {blocks[a]} and {blocks[bidx]} violate condition c)"
                )
            for i0 in sorted(only_a):
                found = None
                for j0 in sorted(only_b):
                    bad = sorted(supp[i0] - contact[j0])
                    if bad:
                        found = (i0, j0, bad[0])
                        break
                if found is None:
                    raise ZeroStructureError(
                        f"no condition-c witness for index {i0} against block {blocks[bidx]}"
                    )
                witnesses[(a, bidx, i0)] = found
    return blocks, witnesses


def basis_subset(vertices: list, block, tol: Tolerances = Tolerances()) -> tuple[int, ...]:
    """Greedy (ascending index) maximal independent subset of a block's vertices."""
    block = sorted(block)
    if not block:
        raise ZeroStructureError("block must be nonempty")
    chosen: list[int] = []
    for j in block:
        cand = [vertices[i] for i in chosen] + [vertices[j]]
        if rank_of_vectors(cand, tol) == len(cand):
            chosen.append(j)
    return tuple(chosen)


def compute_zero_structure(x: np.ndarray, tol: Tolerances = Tolerances(),
                           verdict: CopVerdict | None = None) -> ZeroStructure:
    """Full pipeline: vertices, contact sets, blocks, supports, bases.

    ``verdict`` is passed on to :func:`enumerate_zero_vertices`.
    """
    x = symmetrize(x)
    vertices = enumerate_zero_vertices(x, tol, verdict)
    contact_sets = [compute_contact_set(x, v, tol) for v in vertices]
    blocks, witnesses = partition_blocks(vertices, contact_sets, tol)
    supports = []
    basis = []
    for b in blocks:
        union_supp = sorted(set().union(*[set(support_of(vertices[j], tol)) for j in b]))
        supports.append(tuple(union_supp))
        basis.append(basis_subset(vertices, b, tol))
    seen = set()
    overlap = False
    for b in blocks:
        if seen & set(b):
            overlap = True
        seen |= set(b)
    return ZeroStructure(
        x=x,
        vertices=vertices,
        contact_sets=contact_sets,
        blocks=blocks,
        supports=supports,
        basis=basis,
        cond_c_witnesses=witnesses,
        overlapping_blocks=overlap,
    )
