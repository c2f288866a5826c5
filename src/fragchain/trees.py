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


class RootedTree:
    """A finite rooted tree with ordered children.

    Built from the root label and an iterable of (parent, child) edges.
    Children keep the order in which their edges appear.
    """

    def __init__(self, root, edges=()):
        edges = [(a, b) for a, b in edges]
        parent = {}
        children = {root: []}
        for a, b in edges:
            if b == root or b in parent:
                raise ValueError(f"vertex {b!r} has two parent edges")
            parent[b] = a
            children.setdefault(a, []).append(b)
            children.setdefault(b, [])
        # depth-first order, root first; also validates connectivity
        order = []
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(reversed(children[v]))
        if len(order) != len(parent) + 1:
            raise ValueError(f"edges do not form a tree rooted at {root!r}")
        self.root = root
        self.vertices = tuple(order)
        self.parent = parent
        self.children = {v: tuple(children[v]) for v in order}
        self._bit = {v: i for i, v in enumerate(order)}
        self.all_mask = (1 << len(order)) - 1
        self.edge_mask_all = self.all_mask & ~1

    # built on first use: tree enumeration and classification never read them
    @cached_property
    def _anc(self):
        anc = {self.root: 1}
        for v in self.vertices[1:]:
            anc[v] = anc[self.parent[v]] | (1 << self._bit[v])
        return anc

    @cached_property
    def _desc(self):
        desc = {v: 1 << self._bit[v] for v in self.vertices}
        for v in reversed(self.vertices[1:]):
            desc[self.parent[v]] |= desc[v]
        return desc

    # descendant masks indexed by bit position, for mask-only loops
    _desc_by_bit = cached_property(lambda self: [self._desc[v] for v in self.vertices])

    # -- size and order ------------------------------------------------

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_edges(self):
        return len(self.vertices) - 1

    @property
    def edge_labels(self):
        """Upper ends of all edges, in vertex order."""
        return self.vertices[1:]

    def leq(self, a, b):
        """True when a is on the path from the root to b (a <= b)."""
        return bool(self._anc[b] >> self._bit[a] & 1)

    # -- mask plumbing ---------------------------------------------------

    def vertex_mask(self, vs):
        if isinstance(vs, int) and not isinstance(vs, bool):
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
        out = []
        while mask:
            low = mask & -mask
            out.append(self.vertices[low.bit_length() - 1])
            mask ^= low
        return tuple(out)

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

    def _strict_edge_ancestors(self, bit):
        # ancestor edges of the edge at this bit, excluding itself and the root
        v = self.vertices[bit]
        return self._anc[v] & ~(1 << bit) & ~1


def stump_mask(tree, hmask):
    """Bitmask of the stump set of the edge mask hmask."""
    gone = 0
    m = hmask
    while m:
        low = m & -m
        gone |= tree._desc_by_bit[low.bit_length() - 1]
        m ^= low
    return tree.all_mask & ~gone


def stump_set(tree, H):
    """Vertex set of the root component of tree minus the edges H."""
    return tree.vertex_set(stump_mask(tree, tree.edge_mask(H)))


def subtree(tree, alpha, H=()):
    """The component of tree minus the edges H that contains alpha, rooted there.

    Only edges strictly inside the component are kept, so alpha's own parent
    edge never appears.
    """
    hmask = tree.edge_mask(H)
    edges = []
    stack = [alpha]
    while stack:
        v = stack.pop()
        for c in tree.children[v]:
            if not (hmask >> tree._bit[c]) & 1:
                edges.append((v, c))
                stack.append(c)
    return RootedTree(alpha, edges)


def component_mask(tree, alpha, hmask):
    """Bitmask of the vertices of subtree(tree, alpha, H), mask arguments."""
    return tree.component_masks(hmask)[alpha]


def minimal_edges(tree, H):
    """The minimal elements of the edge set H in the edge order."""
    hmask = tree.edge_mask(H)
    out = 0
    m = hmask
    while m:
        low = m & -m
        if not tree._strict_edge_ancestors(low.bit_length() - 1) & hmask:
            out |= low
        m ^= low
    return tree.vertex_set(out)


def is_stump_cut_set(tree, H):
    """True when H equals its own minimal edges, i.e. H is an antichain."""
    hmask = tree.edge_mask(H)
    m = hmask
    while m:
        low = m & -m
        if tree._strict_edge_ancestors(low.bit_length() - 1) & hmask:
            return False
        m ^= low
    return True


def stump_cut_set(tree, R):
    """The edge boundary of a root-containing order ideal R of the vertex set.

    Inverse of stump_set on stump cut sets: stump_set(T, stump_cut_set(T, R))
    recovers R. Rejects R when it does not contain the root or is not closed
    downward (some member's parent missing).
    """
    rset = set(R)
    if tree.root not in rset:
        raise ValueError("a stump set must contain the root")
    for v in rset:
        if v not in tree._bit:
            raise ValueError(f"unknown vertex {v!r}")
        if v != tree.root and tree.parent[v] not in rset:
            raise ValueError(f"not an order ideal: parent of {v!r} is missing")
    return frozenset(c for c in tree.vertices[1:]
                     if tree.parent[c] in rset and c not in rset)


def enumerate_stump_cut_sets(tree):
    """All stump cut sets (= antichains of the edge order), deterministically.

    Built by the product rule: independently per child edge, either cut it or
    recurse below it. Output is sorted by size then by vertex-order mask.
    """

    def below(v):
        acc = [0]
        for c in tree.children[v]:
            opts = [1 << tree._bit[c]] + below(c)
            acc = [a | b for a in acc for b in opts]
        return acc

    masks = sorted(below(tree.root), key=lambda m: (m.bit_count(), m))
    return [tree.vertex_set(m) for m in masks]


def minimal_vertices(tree, S):
    """The minimal elements of a vertex set S in the tree order."""
    smask = tree.vertex_mask(S)
    out = 0
    m = smask
    while m:
        low = m & -m
        v = tree.vertices[low.bit_length() - 1]
        if not (tree._anc[v] & ~low) & smask:
            out |= low
        m ^= low
    return tree.vertex_set(out)


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
