"""Chain fragments and fragmentation trees.

The state of the fragmentation process on the chain of links 1..n is the set
G of removed links. Removing G splits the chain into |G|+1 fragments, the
maximal runs of surviving links read left to right; fragments may be empty
(two adjacent removed links, or a removed link at an end of the chain), and
empty fragments at different positions are distinct.

A fragmentation tree for a state G is a planted plane binary tree on the
vertex set G with the search-tree property: the left child of alpha is a
smaller link, the right child a larger one. Every vertex alpha carries the
interval I_alpha of links it was cut out of; the root carries the full
chain, and the interval splits at alpha into the left part I'_alpha and the
right part I''_alpha, each passed to the child on that side or left as an
external fragment when the side has no child. The externals, read in
symmetric (in-)order, are exactly the fragments of G. There are Catalan(|G|)
fragmentation trees for a given G.

Every FragTree is a trees.RootedTree on G, its children ordered left then
right, and the empty one (G = ()) is the rooted tree with no vertices: the
vertex bitmasks, the edge masks and the pruning order with its Mobius
function (poset.py) all apply to it directly. Bitmasks follow the
rooted tree's vertex order (root first, depth-first), while G and edges stay
in ascending link order.
"""

import functools
import math

from .errors import DEFAULT_BUDGET, BudgetError, _chain_n, _links
from .trees import RootedTree


@functools.total_ordering
class Fragment:
    """A run of consecutive links lo..hi; hi = lo-1 encodes the empty run
    sitting at position lo. Identity is the (lo, hi) pair, which orders and
    hashes fragments; the anchor metadata (owning vertex and side) is
    carried for display only. Fragments are immutable."""

    def __init__(self, lo, hi, vertex=None, side=None):
        if hi < lo - 1:
            raise ValueError(f"bad fragment bounds ({lo}, {hi})")
        self.__dict__.update(lo=lo, hi=hi, vertex=vertex, side=side)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __repr__(self):
        return f"Fragment(lo={self.lo!r}, hi={self.hi!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.lo, self.hi) == (other.lo, other.hi)

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.lo, self.hi) < (other.lo, other.hi)

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __len__(self):
        return self.hi - self.lo + 1

    def __contains__(self, link):
        return self.lo <= link <= self.hi

    def __iter__(self):
        return iter(range(self.lo, self.hi + 1))

    @property
    def empty(self):
        return self.hi < self.lo

    def label(self):
        return "{" + ",".join(str(k) for k in self) + "}"


def chain_fragments(lo, hi, removed):
    """Fragments of the interval lo..hi left by a sorted iterable of removed
    links, in left-to-right order. len(result) == len(removed) + 1."""
    out = []
    prev = lo
    for r in removed:
        if not lo <= r <= hi or r < prev:
            raise ValueError("removed links must be sorted and lie in the interval")
        out.append(Fragment(prev, r - 1))
        prev = r + 1
    out.append(Fragment(prev, hi))
    return out


def fragments_of(G, n):
    """The |G|+1 fragments of the chain 1..n after removing the link set G."""
    g = sorted(_links(G, _chain_n(n)))
    if len(set(g)) != len(g):
        raise ValueError("duplicate links")
    return chain_fragments(1, n, g)


def catalan(k):
    return math.comb(2 * k, k) // (k + 1)


class FragTree(RootedTree):
    """A fragmentation tree: plane binary search tree on G inside chain 1..n.

    Constructed from the child maps. It is the rooted tree of its edges,
    left child first, whose one walk gives both orders, so the pruning-order
    and Mobius functions take it as it is; the intervals follow parents
    first. The empty tree (root None, G = ()) is the rooted tree with no
    vertices; its single external fragment is the whole chain.
    """

    def __init__(self, n, root, left=None, right=None):
        left, right = dict(left or {}), dict(right or {})
        self.n = _chain_n(n)
        # every left edge before every right one, so children are (left, right)
        edges = [(a, c) for m in (left, right) for a, c in m.items() if c is not None]
        _links([*([] if root is None else [root]), *(c for _, c in edges)], n)
        super().__init__(root, edges)
        self.G = tuple(sorted(self.vertices))
        self.left = {a: left.get(a) for a in self.G}
        self.right = {a: right.get(a) for a in self.G}
        # parents first: the root carries the chain, each child its side
        self.lo = dict.fromkeys(self.vertices[:1], 1)
        self.hi = dict.fromkeys(self.vertices[:1], n)
        for a in self.vertices:
            alo, ahi = self.lo[a], self.hi[a]
            if not alo <= a <= ahi:
                raise ValueError(f"vertex {a} outside its interval ({alo},{ahi})")
            lc, rc = self.left[a], self.right[a]
            if lc is not None:
                if not lc < a:
                    raise ValueError(f"left child {lc} not below {a}")
                self.lo[lc], self.hi[lc] = alo, a - 1
            if rc is not None:
                if not rc > a:
                    raise ValueError(f"right child {rc} not above {a}")
                self.lo[rc], self.hi[rc] = a + 1, ahi
        self._key = (n, tuple((a, self.parent.get(a)) for a in self.G))
        self._externals = None
        self._slots = self._coupled = None  # simulate's slot program and coupled kernel

    def __getstate__(self):  # simulate's caches hold generated code
        return {**vars(self), "_slots": None, "_coupled": None}

    # -- basics ----------------------------------------------------------

    @property
    def edges(self):
        """Non-root vertices in ascending order; each names the edge to its
        parent."""
        return tuple(a for a in self.G if a != self.root)

    def interval(self, alpha):
        """I_alpha with its side intervals: (Fragment I, I', I'')."""
        lo, hi = self.lo[alpha], self.hi[alpha]
        return (Fragment(lo, hi, vertex=alpha),
                Fragment(lo, alpha - 1, vertex=alpha, side="L"),
                Fragment(alpha + 1, hi, vertex=alpha, side="R"))

    def subtree_links(self, alpha):
        """All links in the subtree of alpha (alpha included), ascending."""
        return tuple(sorted(self.mask_vertices(self._desc[alpha])))

    def structure_key(self):
        """Hashable identity: (n, sorted (vertex, parent) pairs)."""
        return self._key

    def __eq__(self, other):
        return isinstance(other, FragTree) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"FragTree(n={self.n}, G={self.G}, root={self.root})"

    # -- fragments ---------------------------------------------------------

    def externals(self):
        """External fragments in left-to-right order; equals the fragments of
        G in the chain, with anchor metadata attached."""
        if self._externals is None:
            # G is the in-order, and a vertex's childless sides border it
            out = []
            for a in self.G:
                if self.left[a] is None:
                    out.append(Fragment(self.lo[a], a - 1, vertex=a, side="L"))
                if self.right[a] is None:
                    out.append(Fragment(a + 1, self.hi[a], vertex=a, side="R"))
            self._externals = out or [Fragment(1, self.n, side="root")]
        return list(self._externals)

    def family(self):
        """The family S: externals plus the internal intervals I_alpha."""
        return self.externals() + [self.interval(a)[0] for a in self.postorder]


def fragment_family(tree, alpha, H):
    """The fragments of I_alpha left by G_alpha(H), left to right.

    H is a set of cut edges named by upper ends. The removed links are the
    vertices of alpha's component after the cuts; their fragments inside
    I_alpha include the empty runs, position-tagged by their bounds.
    """
    comp = tree.component_masks(tree.edge_mask(H))
    removed = sorted(tree.mask_vertices(comp[alpha]))
    return chain_fragments(tree.lo[alpha], tree.hi[alpha], removed)


def enumerate_fragmentation_trees(G, n, budget=DEFAULT_BUDGET):
    """All fragmentation trees of the state G in the chain 1..n.

    Ordered by root ascending, then left subtree, then right subtree,
    recursively. Rejects G whose count of trees times cut sets,
    catalan(|G|) * 2^(|G|-1), exceeds the budget.
    """
    g = tuple(sorted(set(_links(G, _chain_n(n)))))
    m = len(g)
    cost = catalan(m) * (1 << max(m - 1, 0))
    if cost > budget:
        raise BudgetError(
            f"|G|={m} needs {cost} terms, over the budget of {budget}")
    # sub[i, j]: the trees on the run g[i:j] as (root, left pairs, right
    # pairs), filled by run length. A root g[r] joins each tree of g[i:r] to
    # each of g[r+1:j], with a (parent, child) pair to each subtree's root
    # unless that subtree is the empty run's one tree, whose root is None
    sub = {(i, i): [(None, (), ())] for i in range(m + 1)}
    for length in range(1, m + 1):
        for i in range(m - length + 1):
            j = i + length
            sub[i, j] = [(a, ((a, lc),)[:lc is not None] + ll + rl,
                          ((a, rc),)[:rc is not None] + lr + rr)
                         for r, a in enumerate(g[i:j], i)
                         for lc, ll, lr in sub[i, r] for rc, rl, rr in sub[r + 1, j]]
    return [FragTree(n, a, left, right) for a, left, right in sub[0, m]]
