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

A nonempty FragTree is a trees.RootedTree on G, its children ordered left
then right: the vertex bitmasks, the edge masks and the pruning order with
its Mobius function (poset.py) all apply to it directly. Bitmasks follow the
rooted tree's vertex order (root first, depth-first), while G and edges stay
in ascending link order.
"""

import functools
import math

from .errors import DEFAULT_BUDGET, BudgetError
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
    g = sorted(G)
    if len(set(g)) != len(g):
        raise ValueError("duplicate links")
    if g and not (1 <= g[0] and g[-1] <= n):
        raise ValueError("links must lie in 1..n")
    return chain_fragments(1, n, g)


def catalan(k):
    return math.comb(2 * k, k) // (k + 1)


class FragTree(RootedTree):
    """A fragmentation tree: plane binary search tree on G inside chain 1..n.

    Constructed from the child maps; intervals and traversals are
    precomputed. It is the rooted tree of its edges, listed in preorder with
    the left child first, so the pruning-order and Mobius functions take it
    as it is. The empty tree (G = ()) is allowed and has a single external
    fragment, the whole chain; it has no vertices to build a rooted tree on.
    """

    def __init__(self, n, root, left=None, right=None):
        left = dict(left or {})
        right = dict(right or {})
        self.n = n
        if root is None:
            if left or right:
                raise ValueError("empty tree cannot have children")
            self.G = ()
            self.root = None
            self.parent = {}
            self.left = {}
            self.right = {}
            self.lo = {}
            self.hi = {}
            self.postorder = ()
            self._key = (n, ())
            self._externals = [Fragment(1, n, vertex=None, side="root")]
            return
        if not 1 <= root <= n:
            raise ValueError("root link outside the chain")
        lo, hi = {}, {}
        order = []
        edges = []

        def walk(a, alo, ahi):
            if not alo <= a <= ahi:
                raise ValueError(f"vertex {a} outside its interval ({alo},{ahi})")
            lo[a], hi[a] = alo, ahi
            lc, rc = left.get(a), right.get(a)
            if lc is not None:
                if not lc < a:
                    raise ValueError(f"left child {lc} not below {a}")
                edges.append((a, lc))
                walk(lc, alo, a - 1)
            if rc is not None:
                if not rc > a:
                    raise ValueError(f"right child {rc} not above {a}")
                edges.append((a, rc))
                walk(rc, a + 1, ahi)
            order.append(a)

        walk(root, 1, n)
        super().__init__(root, edges)
        for m in (left, right):
            for a, c in m.items():
                if c is not None and (a not in lo or c not in lo):
                    raise ValueError("child map mentions unknown vertex")
        self.G = tuple(sorted(order))
        self.left = {a: left.get(a) for a in self.G}
        self.right = {a: right.get(a) for a in self.G}
        self.lo = lo
        self.hi = hi
        self.postorder = tuple(order)
        self._key = (n, tuple((a, self.parent.get(a)) for a in self.G))
        self._externals = None

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
            out = []

            def visit(a):
                lc, rc = self.left[a], self.right[a]
                if lc is None:
                    out.append(Fragment(self.lo[a], a - 1, vertex=a, side="L"))
                else:
                    visit(lc)
                if rc is None:
                    out.append(Fragment(a + 1, self.hi[a], vertex=a, side="R"))
                else:
                    visit(rc)

            visit(self.root)
            self._externals = out
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
    recursively. Rejects G whose full-distribution term count
    catalan(|G|) * 2^(|G|-1) exceeds the budget.
    """
    g = tuple(sorted(set(G)))
    if g and (g[0] < 1 or g[-1] > n):
        raise ValueError("links must lie in 1..n")
    m = len(g)
    cost = catalan(m) * (1 << max(m - 1, 0))
    if cost > budget:
        raise BudgetError(
            f"|G|={m} needs {cost} terms, over the budget of {budget}")
    if m == 0:
        return [FragTree(n, None)]

    cache = {}

    def build(members):
        if members not in cache:
            if not members:
                cache[members] = [None]
            else:
                out = []
                for i, a in enumerate(members):
                    for lt in build(members[:i]):
                        for rt in build(members[i + 1:]):
                            out.append((a, lt, rt))
                cache[members] = out
        return cache[members]

    trees = []
    for node in build(g):
        left, right = {}, {}

        def collect(nd):
            a, lt, rt = nd
            if lt is not None:
                left[a] = lt[0]
                collect(lt)
            if rt is not None:
                right[a] = rt[0]
                collect(rt)

        collect(node)
        trees.append(FragTree(n, node[0], left, right))
    return trees
