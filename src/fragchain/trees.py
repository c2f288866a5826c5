"""Rooted trees, stump sets, stump cut sets, and the antichain structure.

Vertices are arbitrary hashable labels (ints in practice). Each non-root
vertex identifies the edge to its parent, so edge sets are sets of upper
ends and inherit the vertex partial order: the root is the unique minimum,
and a <= b when a lies on the path from the root to b.

Deleting an edge set H from a tree T leaves a forest. The stump set
V_gamma(H) is the vertex set of the component containing the root: the
vertices still reachable from the root once the edges H are gone. H is a
stump cut set when every edge of H has its lower end inside the stump,
which happens exactly when H is an antichain of the edge order; then H is
the full edge boundary of its stump set, and stump cut sets biject with
the order ideals of the vertex set that contain the root.

Internally subsets of vertices are bitmasks over a fixed vertex order
(root first, then depth-first), so all set operations are int arithmetic.
"""

from functools import cached_property, lru_cache

from .errors import _is_int


def _bits(mask):
    """The bit positions of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class RootedTree:
    """A finite rooted tree with ordered children.

    Built from the root label and an iterable of (parent, child) edges.
    Children keep the order in which their edges appear. One depth-first
    walk records each vertex on entry, in vertices (root first), and on exit,
    in postorder (children first, left to right). RootedTree(None) is the
    empty tree: no vertices, no edges and every mask 0.
    """

    def __init__(self, root, edges=()):
        parent = {}
        children = {} if root is None else {root: []}
        for a, b in edges:
            if b == root or b in parent:
                raise ValueError(f"vertex {b!r} has two parent edges")
            parent[b] = a
            children.setdefault(a, []).append(b)
            children.setdefault(b, [])
        # every vertex an edge names must be reached
        order, post = [], []
        stack = [] if root is None else [(root, False)]
        while stack:
            v, leaving = stack.pop()
            if leaving:
                post.append(v)
                continue
            order.append(v)
            stack.append((v, True))
            stack.extend([(c, False) for c in reversed(children[v])])
        if len(order) != len(children):
            raise ValueError(f"edges do not form a tree rooted at {root!r}")
        self.root = root
        self.vertices = tuple(order)
        self.postorder = tuple(post)
        self.parent = parent
        self.children = {v: tuple(children[v]) for v in order}
        self._bit = {v: i for i, v in enumerate(order)}
        self.all_mask = (1 << len(order)) - 1
        self.edge_mask_all = self.all_mask & ~1

    # built on first use: tree enumeration and classification never read them
    @cached_property
    def _anc(self):
        anc = dict.fromkeys(self.vertices[:1], 1)  # the root's, if any
        for v in self.vertices[1:]:
            anc[v] = anc[self.parent[v]] | (1 << self._bit[v])
        return anc

    @cached_property
    def _desc(self):
        desc = {v: 1 << self._bit[v] for v in self.vertices}
        for v in reversed(self.vertices[1:]):
            desc[self.parent[v]] |= desc[v]
        return desc

    # -- size and order ------------------------------------------------

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_edges(self):
        return len(self.parent)

    @property
    def edge_labels(self):
        """Upper ends of all edges, in vertex order."""
        return self.vertices[1:]

    def leq(self, a, b):
        """True when a is on the path from the root to b (a <= b)."""
        return bool(self._anc[b] >> self._bit[a] & 1)

    # -- mask plumbing ---------------------------------------------------

    def vertex_mask(self, vs):
        if _is_int(vs):
            if vs & ~self.all_mask:
                raise ValueError("mask has bits outside the vertex set")
            return vs
        m = 0
        for v in vs:
            try:
                m |= 1 << self._bit[v]
            except KeyError:
                raise ValueError(f"unknown vertex {v!r}") from None
        return m

    def edge_mask(self, es):
        m = self.vertex_mask(es)
        if m & 1:
            raise ValueError("the root has no parent edge")
        return m

    def vertex_set(self, mask):
        return frozenset(self.mask_vertices(mask))

    def mask_vertices(self, mask):
        """Vertices of a mask, in the fixed vertex order."""
        return tuple(self.vertices[i] for i in _bits(mask))

    def component_masks(self, hmask):
        """For each vertex v, the mask of v's component of the tree minus the
        edges of hmask, restricted to v's subtree, in one children-first pass."""
        comp = {}
        for v in reversed(self.vertices):
            m = 1 << self._bit[v]
            for c in self.children[v]:
                if not (hmask >> self._bit[c]) & 1:
                    m |= comp[c]
            comp[v] = m
        return comp


def _need_vertices(tree):
    # the empty tree has no root, so no order and no cut sets
    if not tree.vertices:
        raise ValueError("the empty tree has no vertices")


def stump_mask(tree, hmask):
    """Bitmask of the stump set of the edge mask hmask."""
    gone = 0
    for i in _bits(hmask):
        gone |= tree._desc[tree.vertices[i]]
    return tree.all_mask & ~gone


def stump_set(tree, H):
    """Vertex set of the root component of tree minus the edges H."""
    return tree.vertex_set(stump_mask(tree, tree.edge_mask(H)))


def subtree(tree, alpha, H=()):
    """The component of tree minus the edges H that contains alpha, rooted there.

    Only edges strictly inside the component are kept, so alpha's own parent
    edge never appears.
    """
    comp = tree.component_masks(tree.edge_mask(H))[alpha]
    # alpha is an ancestor of the rest of its component, so it comes first
    return RootedTree(alpha, [(tree.parent[v], v) for v in tree.mask_vertices(comp)[1:]])


def component_mask(tree, alpha, hmask):
    """Bitmask of the vertices of subtree(tree, alpha, H), mask arguments."""
    return tree.component_masks(hmask)[alpha]


def _minimal(tree, mask):
    """The mask of the minimal elements of a vertex mask in the tree order:
    its members with no other member among their ancestors."""
    out = 0
    for i in _bits(mask):
        if not tree._anc[tree.vertices[i]] & mask & ~(1 << i):
            out |= 1 << i
    return out


def minimal_edges(tree, H):
    """The minimal elements of the edge set H in the edge order."""
    return tree.vertex_set(_minimal(tree, tree.edge_mask(H)))


def minimal_vertices(tree, S):
    """The minimal elements of a vertex set S in the tree order."""
    return tree.vertex_set(_minimal(tree, tree.vertex_mask(S)))


def is_stump_cut_set(tree, H):
    """True when H equals its own minimal edges, i.e. H is an antichain."""
    hmask = tree.edge_mask(H)
    return _minimal(tree, hmask) == hmask


def stump_cut_set(tree, R):
    """The edge boundary of a root-containing order ideal R of the vertex set.

    Inverse of stump_set on stump cut sets: stump_set(T, stump_cut_set(T, R))
    recovers R. Rejects R when it does not contain the root or is not closed
    downward (some member's parent missing).
    """
    rset = set(R)
    if tree.root not in rset:
        raise ValueError("a stump set must contain the root")
    # sorted, and in vertex order below: one message under any hash seed
    for v in sorted(rset - tree._bit.keys(), key=repr):
        raise ValueError(f"unknown vertex {v!r}")
    for v in tree.vertices[1:]:
        if v in rset and tree.parent[v] not in rset:
            raise ValueError(f"not an order ideal: parent of {v!r} is missing")
    return frozenset(c for c in tree.vertices[1:]
                     if tree.parent[c] in rset and c not in rset)


def enumerate_stump_cut_sets(tree):
    """All stump cut sets (= antichains of the edge order), deterministically.

    Built by the product rule, children first: independently per child edge,
    either cut it or take one of the child's own cut sets below it. Output is
    sorted by size then by vertex-order mask.
    """
    _need_vertices(tree)
    below = {}
    for v in reversed(tree.vertices):
        acc = [0]
        for c in tree.children[v]:
            opts = [1 << tree._bit[c]] + below.pop(c)
            acc = [a | b for a in acc for b in opts]
        below[v] = acc
    masks = sorted(below[tree.root], key=lambda m: (m.bit_count(), m))
    return [tree.vertex_set(m) for m in masks]


# -- shape catalogs ------------------------------------------------------


@lru_cache(maxsize=None)
def _shapes(n_vertices):
    # canonical forms: a shape is the sorted tuple of its children's shapes
    if n_vertices == 1:
        return ((),)
    return tuple(sorted(_forests(n_vertices - 1)))


@lru_cache(maxsize=None)
def _forests(total):
    # sorted tuples of shapes whose vertex counts sum to total
    if total == 0:
        return ((),)
    seen = set()
    for k in range(1, total + 1):
        for s in _shapes(k):
            for rest in _forests(total - k):
                seen.add(tuple(sorted((s,) + rest)))
    return tuple(sorted(seen))


def _shape_edges(shape, label, edges):
    me = label
    nxt = label + 1
    for child in shape:
        edges.append((me, nxt))
        nxt = _shape_edges(child, nxt, edges)
    return nxt


def enumerate_tree_shapes(max_edges):
    """All rooted tree shapes with up to max_edges edges, one per isomorphism
    class, with integer vertex labels 0..k in depth-first order."""
    out = []
    for n in range(1, max_edges + 2):
        for shape in _shapes(n):
            edges = []
            _shape_edges(shape, 0, edges)
            out.append(RootedTree(0, edges))
    return out


def random_tree(n_edges, rng):
    """A uniform random recursive tree with vertices 0..n_edges, root 0."""
    edges = []
    for v in range(1, n_edges + 1):
        edges.append((rng.randrange(v), v))
    return RootedTree(0, edges)
