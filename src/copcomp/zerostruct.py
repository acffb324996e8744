"""Zero-set structure of a copositive matrix.

Reads the vertices of the convex hull of the normalized zero set and their
contact sets from the copositivity sweep; builds the maximal mutually-
compatible blocks, their supports and per-block basis subsets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cones import CopVerdict, is_copositive
from .symcore import Tolerances, rank_of_vectors, symmetrize


class ZeroStructureError(ValueError):
    """Raised when structural verification fails (tolerance trouble upstream)."""


@dataclass
class ZeroStructure:
    """Vertices tau(j), contact sets M(j), blocks J(s), supports P_*(s),
    and basis subsets J_b(s) for one copositive matrix.

    All index sets are 0-based; the analyze report writes them 1-based.
    """

    x: np.ndarray
    vertices: list  # list of simplex vectors
    contact_sets: list  # list of sorted index tuples, one per vertex
    blocks: list  # list of sorted vertex-index tuples J(s)
    supports: list  # list of sorted index tuples P_*(s)
    basis: list  # list of sorted vertex-index tuples J_b(s)
    overlapping_blocks: bool = False

    @property
    def p(self) -> int:
        return self.x.shape[0]

    def block_vectors(self, s: int) -> list[np.ndarray]:
        """The vertices tau(j), j in J(s), restricted to P_*(s)."""
        idx = np.asarray(self.supports[s])
        return [self.vertices[j][idx] for j in self.blocks[s]]


def pair_index_set(indices) -> list[tuple[int, int]]:
    """V(I) = {(i, j): i, j in I, i <= j} in lexicographic order."""
    idx = sorted(indices)
    return [(i, j) for a, i in enumerate(idx) for j in idx[a:]]


def pair_sums(vectors, indices) -> list[np.ndarray]:
    """The pair sums vectors[a] + vectors[b], (a, b) in V(indices), in
    :func:`pair_index_set` order."""
    return [vectors[a] + vectors[b] for a, b in pair_index_set(indices)]


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


def partition_blocks(vertices: list, contact_sets: list):
    """Blocks J(s) and their supports P_*(s), as ``(blocks, supports)``.

    The blocks are the maximal cliques of the compatibility graph, edge
    {i, j} iff supp(tau(i)) <= M(j) and supp(tau(j)) <= M(i); P_*(s) is
    the union of its members' supports, each support read exactly as the
    nonzero entries of tau, which the sweep of :func:`is_copositive` leaves
    exactly 0.0 off its face.  Cover conditions a) and b) hold
    by construction: a) since every vertex lies in some maximal clique,
    b) since clique members are pairwise compatible and the sweep of
    :func:`is_copositive` keeps no tau with supp(tau) not in M(tau).
    Condition c) does not follow from maximality and raises
    :class:`ZeroStructureError` when it fails: for blocks J(a) != J(b),
    every i0 in J(a) - J(b) needs a j0 in J(b) - J(a) with
    supp(tau(i0)) not in M(j0).  Both differences are nonempty, since no
    maximal clique contains another.
    """
    n = len(vertices)
    supp = [set(np.flatnonzero(v).tolist()) for v in vertices]
    contact = [set(m) for m in contact_sets]
    adj = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if supp[i] <= contact[j] and supp[j] <= contact[i]:
                adj[i].add(j)
                adj[j].add(i)
    blocks = _maximal_cliques(n, adj) if n else []
    for a in blocks:
        for b in blocks:
            for i0 in sorted(set(a) - set(b)):
                if all(supp[i0] <= contact[j0] for j0 in set(b) - set(a)):
                    raise ZeroStructureError(
                        f"no condition-c witness for index {i0} against block {b}")
    supports = [tuple(sorted(set().union(*(supp[j] for j in b)))) for b in blocks]
    return blocks, supports


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

    ``verdict`` is ``is_copositive(x, tol)``, computed here when absent;
    its ``zeros`` and ``contact_sets`` are the vertices of conv T_a(X) and
    their contact sets, in its order.  A verdict of another order raises
    ValueError, a non-copositive X :class:`ZeroStructureError`.

    For a zero tau of X with support I these are equivalent: (a) tau is a
    vertex; (b) ker X_I = span(v), v > 0; (c) the KKT system 2 X_I t = lam 1,
    1't = 1 has a unique solution, strictly positive and of value 0.  So the
    vertices are the faces of (c) that :func:`is_copositive` keeps from its
    sweep (it tests (b) at psd_tol, and the zero and sign rules on X tau at
    zero_tol, see its docstring).  They have distinct supports and entries
    above zero_tol, so no two coincide.

    (a) => (b): X tau >= 0 and tau'X tau = 0 give X_I tau_I = 0; a w != 0
    in ker X_I with 1'w = 0 would make tau the midpoint of zeros tau +- eps w.
    (b) => (a): if tau = sum lam_j t_j (lam_j > 0, t_j zeros), supp(t_j) is
    in I, and X t_j >= 0 with (X tau)_I = 0 gives (X t_j)_I = 0: t_j = tau.
    (b) <=> (c): two solutions differ by some (w, mu), 2 X_I w = mu 1,
    1'w = 0.  Under (b), v'(2 X_I w) = 0 gives mu = 0, so w is in span(v),
    w = 0, and v / 1'v solves it with lam = 0.  Under (c), lam = 2 t'X_I t
    = 0 gives X_I t = 0, and a w in ker X_I with 1'w = 0 would give t + w.
    """
    x = symmetrize(x)
    if verdict is None:
        verdict = is_copositive(x, tol)
    if len(verdict.argmin) != x.shape[0]:
        raise ValueError(f"verdict of order {len(verdict.argmin)} for x of order {x.shape[0]}")
    if not verdict.member:
        raise ZeroStructureError(
            f"matrix is not copositive (min {verdict.min_value:.3e}); "
            "zero structure undefined"
        )
    vertices, contact_sets = verdict.zeros, verdict.contact_sets
    blocks, supports = partition_blocks(vertices, contact_sets)
    return ZeroStructure(
        x=x,
        vertices=vertices,
        contact_sets=contact_sets,
        blocks=blocks,
        supports=supports,
        basis=[basis_subset(vertices, b, tol) for b in blocks],
        # the blocks cover all n vertices, so they overlap iff their sizes sum past n
        overlapping_blocks=sum(map(len, blocks)) > len(vertices),
    )
