"""Finite permutation groups backed by a deterministic stabilizer chain.

A group is built from generating permutations with the deterministic
Schreier-Sims procedure.  The chain stores, for each base point, a
transversal of coset representatives; these give the group order, a
membership test by sifting, exact uniform sampling, and a factorization
of the group into a cartesian product of small sets (one per base point)
that the commutant projection uses to average over the whole group at a
cost proportional to the sum of transversal sizes instead of the group
order.

Points are 0-based.  A level of the chain is created at the smallest point
its first strong generator moves, and levels are only ever inserted in
base order, never re-rooted or removed.  Each new strong generator
therefore grows one orbit, which keeps the strong generating set small
(n generators for S_n).  The base is canonical: the level at point k ends
up generating the pointwise stabilizer of 0..k-1, so the base points are
the smallest points moved by the successive stabilizers, whatever the
order in which generators are given.
"""

from __future__ import annotations

import itertools
from functools import cached_property, reduce
from operator import itemgetter


class Permutation:
    """A permutation of {0, ..., d-1}, stored as the tuple of images.

    ``images[k]`` is the image of point ``k``.  Composition follows the
    usual function convention: ``(p * q)(k) = p(q(k))``, i.e. ``q`` acts
    first.
    """

    __slots__ = ("_images",)

    def __init__(self, images):
        imgs = tuple(int(x) for x in images)
        n = len(imgs)
        if n == 0:
            raise ValueError("a permutation needs degree >= 1")
        seen = [False] * n
        for x in imgs:
            if not 0 <= x < n or seen[x]:
                raise ValueError(f"images {imgs!r} are not a permutation of 0..{n - 1}")
            seen[x] = True
        self._images = imgs

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(degree))

    @property
    def images(self) -> tuple:
        return self._images

    @property
    def degree(self) -> int:
        return len(self._images)

    def __call__(self, point: int) -> int:
        return self._images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if not isinstance(other, Permutation):
            return NotImplemented
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} != {other.degree}")
        p, q = self._images, other._images
        return _trusted(tuple(p[x] for x in q))

    def inverse(self) -> "Permutation":
        return _trusted(_inverse_images(self._images))

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self._images))

    def __eq__(self, other):
        return isinstance(other, Permutation) and self._images == other._images

    def __hash__(self):
        return hash(self._images)

    def __repr__(self):
        return f"Permutation({list(self._images)!r})"


def identity(degree: int) -> Permutation:
    return Permutation.identity(degree)


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Composition applying ``q`` first, then ``p``."""
    return p * q


def inverse(p: Permutation) -> Permutation:
    return p.inverse()


# ---------------------------------------------------------------------------
# Stabilizer chain construction.
#
# The builder works on (images, word) pairs, where ``word`` expresses the
# permutation as a product of the *original* generators.  A word is a node
# of a product DAG (a straight-line program) built from plain tuples:
# ``None`` is the identity, an int i is generator i, ``(w,)`` is the inverse
# of w and ``(wa, wb)`` is the product wa * wb, wb applied first.  Products
# and inverses are O(1) and share their operands instead of copying letters;
# nodes that only a discarded Schreier generator holds are freed with it.
# Words are what later lets a representation evaluate the image of any
# transversal element from the generator images alone (:func:`evaluate_words`).
# ---------------------------------------------------------------------------


def _word_mul(wa, wb):
    if wa is None:
        return wb
    if wb is None:
        return wa
    return (wa, wb)


def _word_inv(w):
    if w is None:
        return None
    if type(w) is tuple and len(w) == 1:
        return w[0]
    return (w,)


def evaluate_words(words, gen_values, one, mul, inv):
    """Value of each word node under the given generator values.

    ``mul(a, b)`` is the value of the product (b applied first), ``inv``
    the inverse and ``one()`` the identity.  Shared subwords are evaluated
    once: every product or inverse node reachable from ``words`` costs one
    ``mul`` or ``inv`` call, however many letters the words spell.
    """
    memo = {}  # id(node) -> value; the nodes stay alive through ``words``

    def value(node):
        return gen_values[node] if type(node) is int else memo[id(node)]

    out = []
    for root in words:
        if root is None:
            out.append(one())
            continue
        stack = [root]
        while stack:  # iterative post-order: DAGs can be thousands deep
            node = stack[-1]
            if type(node) is int or id(node) in memo:
                stack.pop()
                continue
            pending = [c for c in node if type(c) is not int and id(c) not in memo]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            memo[id(node)] = (inv(value(node[0])) if len(node) == 1
                              else mul(value(node[0]), value(node[1])))
        out.append(value(root))
    return out


class _Level:
    __slots__ = ("point", "gens", "transversal", "inverses")

    def __init__(self, point, gens):
        self.point = point
        self.gens = gens        # strong generators fixing every point below ``point``
        self.transversal = {}   # orbit point -> (images, word), word maps base point there
        self.inverses = {}      # orbit point -> inverse of its transversal element


def _min_moved(images):
    for i, j in enumerate(images):
        if i != j:
            return i
    return None


def _inverse_images(p):
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def _build_transversal(lvl, ident):
    """Breadth-first orbit of the base point under the level's generators.

    Inverses are chained along the orbit, inv(s t_a) = inv(t_a) inv(s), so
    each generator is inverted once.  Returns the tree edges (a, index of s)
    that reached a new point b: their Schreier generators inv(t_b) s t_a are
    the identity by construction.
    """
    inv_gens = [itemgetter(*_inverse_images(ps)) for ps, _ in lvl.gens]
    t = {lvl.point: (ident, None)}
    inv = {lvl.point: ident}
    tree = set()
    frontier = [lvl.point]
    while frontier:
        grown = []
        for a in frontier:
            pa, wa = t[a]
            for g, (ps, ws) in enumerate(lvl.gens):
                b = ps[a]
                if b not in t:
                    t[b] = itemgetter(*pa)(ps), _word_mul(ws, wa)
                    inv[b] = inv_gens[g](inv[a])
                    tree.add((a, g))
                    grown.append(b)
        frontier = sorted(set(grown))
    lvl.transversal = t
    lvl.inverses = {b: (inv[b], _word_inv(w)) for b, (_, w) in t.items()}
    return tree


def _sift(levels, wp, start):
    """Strip ``(images, word)`` through ``levels[start:]``.

    Returns the residue; it is the identity exactly when ``wp`` lies in the
    group those levels describe (once they are verified).
    """
    p, w = wp
    for lvl in itertools.islice(levels, start, None):
        b = p[lvl.point]
        if b == lvl.point:
            continue
        u = lvl.inverses.get(b)
        if u is None:
            break
        p, w = itemgetter(*p)(u[0]), _word_mul(u[1], w)
    return p, w


def _trusted(images):
    """A Permutation of images the chain already knows to be one."""
    p = object.__new__(Permutation)
    p._images = images
    return p


def _build_chain(degree, gen_words):
    """Levels of the chain and the number of strong generators.

    Deterministic Schreier-Sims (Seress 2003; Holt, Eick and O'Brien
    2005, section 4.4).  The level at point k holds the strong generators
    that fix every point below k.  Levels are only inserted, in base order,
    so every new strong generator grows one orbit: there are at most
    sum(|orbit| - 1) of them beyond the given generators.
    """
    ident = tuple(range(degree))
    levels: list[_Level] = []

    def assign(wp, start):
        """Register a strong generator from level ``start`` on.

        With m the smallest point ``wp`` moves, it joins every level below
        m and the level at m, which is inserted if missing; the level takes
        a copy of the next deeper level's generators, which all fix m.
        Returns the index of the level at m, where verification resumes.
        """
        m = _min_moved(wp[0])
        l = start
        while l < len(levels) and levels[l].point < m:
            levels[l].gens.append(wp)
            l += 1
        if l < len(levels) and levels[l].point == m:
            levels[l].gens.append(wp)
        else:
            deeper = levels[l].gens if l < len(levels) else []
            levels.insert(l, _Level(m, [*deeper, wp]))
        return l

    for wp in gen_words:
        if wp[0] != ident:
            assign(wp, 0)

    # Verify Schreier's condition level by level, deepest first; a failed
    # sift adds the residue as a new strong generator and resumes at the
    # level it was added to.  Generators stay few, so a level's transversal
    # is simply rebuilt at every visit.
    l = len(levels) - 1
    while l >= 0:
        lvl = levels[l]
        tree = _build_transversal(lvl, ident)
        t, inverses = lvl.transversal, lvl.inverses
        residue = None
        for a in sorted(t):
            pa, wa = t[a]
            for g, (ps, ws) in enumerate(lvl.gens):
                if (a, g) in tree:
                    continue
                pv, wv = inverses[ps[a]]
                sg = itemgetter(*itemgetter(*pa)(ps))(pv)
                if sg != ident:
                    res = _sift(levels, (sg, _word_mul(wv, _word_mul(ws, wa))), l + 1)
                    if res[0] != ident:
                        residue = res
                        break
            if residue is not None:
                break
        if residue is not None:
            l = assign(residue, l + 1)
        else:
            l -= 1

    strong = {id(s) for lvl in levels for s in lvl.gens}
    return levels, len(strong)


class PermutationGroup:
    """Permutation group with a deterministic stabilizer chain.

    Instances are immutable once constructed and safe to share across
    threads; random-number state is owned by callers and passed into
    :meth:`sample`.

    Attributes
    ----------
    degree : int
    generators : tuple of Permutation
        The generators as given (identities included).
    base : tuple of int
        Increasing sequence of base points; ``base[i]`` is the smallest
        point moved by the stabilizer of ``base[:i]``.
    transversals : tuple of dict
        One map per base point, sending each orbit point ``b`` to a coset
        representative ``u`` with ``u(base[i]) == b``.
    transversal_nodes : tuple of dict
        The same representatives as nodes of one shared product DAG over
        the original generators (see :func:`evaluate_words`).
        :meth:`transversal_images` evaluates them under any generator
        images, which carries a representation along the chain.
    strong_generators : tuple of tuple of Permutation
        One tuple per level: the strong generators that fix ``base[:i]``
        and generate the stabilizer of those points, so ``base[i]``'s orbit
        under them is ``transversals[i]``.  With the transversals they give
        the chain's Schreier relators (see
        :func:`~repblock.reps.rep_from_generator_images`).
    strong_generator_count : int
        Size of the strong generating set the chain was built from.
    """

    def __init__(self, degree: int, generators):
        degree = int(degree)
        if degree < 1:
            raise ValueError("degree must be >= 1")
        gens = tuple(generators)
        for g in gens:
            if not isinstance(g, Permutation):
                raise TypeError(f"not a Permutation: {g!r}")
            if g.degree != degree:
                raise ValueError(f"generator degree {g.degree} != group degree {degree}")
        self.degree = degree
        self.generators = gens

        levels, self.strong_generator_count = _build_chain(
            degree, [(g.images, i) for i, g in enumerate(gens)])
        self.base = tuple(lvl.point for lvl in levels)
        self.strong_generators = tuple(tuple(_trusted(imgs) for imgs, _ in lvl.gens)
                                       for lvl in levels)
        self._inverses = tuple({b: u for b, (u, _) in lvl.inverses.items()}
                               for lvl in levels)
        transversals = []
        nodes = []
        for lvl in levels:
            tmap, wmap = {}, {}
            for point, (imgs, word) in lvl.transversal.items():
                tmap[point] = _trusted(imgs)
                wmap[point] = word
            transversals.append(tmap)
            nodes.append(wmap)
        self.transversals = tuple(transversals)
        self.transversal_nodes = tuple(nodes)
        self._orbits = tuple(tuple(sorted(t)) for t in self.transversals)

    def transversal_images(self, gen_values, one, mul, inv):
        """Every transversal representative evaluated under generator values.

        Returns one dict per level, orbit point -> value, where ``mul``,
        ``inv`` and ``one`` are as in :func:`evaluate_words`.  All levels
        are walked together, so a subword shared anywhere in the chain is
        evaluated once.
        """
        nodes = [w for level in self.transversal_nodes for w in level.values()]
        values = iter(evaluate_words(nodes, gen_values, one, mul, inv))
        return [{b: next(values) for b in level} for level in self.transversal_nodes]

    @cached_property
    def transversal_words(self):
        """The representatives as letter tuples, expanded from the DAG on first use.

        Letter +i is generator i-1, -i its inverse, leftmost applied last.
        The expansion has no bound while the DAG stays small: three random
        generators of S_12 can give words of a million letters, and of S_30
        exhaust memory.  Kept for the benchmark's word-length metric only,
        and to be retired with it: the library evaluates
        :attr:`transversal_nodes`.
        """
        letters = [(i + 1,) for i in range(len(self.generators))]
        return tuple(self.transversal_images(
            letters, tuple, lambda a, b: a + b,
            lambda w: tuple(-x for x in reversed(w))))

    def order(self) -> int:
        n = 1
        for t in self.transversals:
            n *= len(t)
        return n

    def _strip(self, p: Permutation):
        """Strip ``p`` through the chain.

        Returns the residue's images and the orbit point ``p`` sends each
        base point to, level by level; the strip stops at the first level
        whose orbit misses that point.
        """
        if p.degree != self.degree:
            raise ValueError(f"degree mismatch: {p.degree} != {self.degree}")
        cur = p.images
        points = []
        for point, inverses in zip(self.base, self._inverses):
            b = cur[point]
            if b != point:
                if b not in inverses:
                    break
                cur = itemgetter(*cur)(inverses[b])
            points.append(b)
        return cur, points

    def sift(self, p: Permutation) -> Permutation:
        """Strip ``p`` through the chain; members reduce to the identity."""
        return Permutation(self._strip(p)[0])

    def contains(self, p: Permutation) -> bool:
        return self.sift(p).is_identity()

    __contains__ = contains

    def factorize(self, p: Permutation):
        """Decompose a member into chain coordinates.

        Returns one ``(level, orbit_point)`` pair per chain level, such
        that ``p`` equals the left-to-right product of the corresponding
        transversal representatives.  Raises ValueError for non-members.
        """
        residue, points = self._strip(p)
        if len(points) < len(self.base) or _min_moved(residue) is not None:
            raise ValueError(f"{p!r} is not a member of this group")
        return list(enumerate(points))

    def sample(self, rng) -> Permutation:
        """Exactly uniform random element.

        Draws one coset representative uniformly and independently per
        transversal and composes them; uniqueness of the factorization
        makes the product uniform over the group.
        """
        factors = []
        for orbit, t in zip(self._orbits, self.transversals):
            factors.append(t[orbit[rng.integers(len(orbit))]])
        if not factors:
            return Permutation.identity(self.degree)
        return reduce(lambda a, b: a * b, factors)

    def transversal_sets(self):
        """Factorization of the group into a product of transversal sets.

        Returns sets ``[T_1, ..., T_v]`` such that every group element is
        uniquely a product ``t_v * ... * t_1`` with ``t_i`` in ``T_i``;
        element order inside each set follows the sorted orbit points.
        ``T_v`` is the top of the chain, so nesting partial averages from
        ``T_1`` outward reproduces the full group average.
        """
        sets = []
        for orbit, t in zip(self._orbits, self.transversals):
            sets.append([t[b] for b in orbit])
        sets.reverse()
        return sets

    def elements(self):
        """Iterate over all elements (deterministic order, lazily)."""
        if not self.transversals:
            yield Permutation.identity(self.degree)
            return
        pools = [[t[b] for b in orbit] for orbit, t in zip(self._orbits, self.transversals)]
        for combo in itertools.product(*pools):
            yield reduce(lambda a, b: a * b, combo)

    def __repr__(self):
        return (f"PermutationGroup(degree={self.degree}, order={self.order()}, "
                f"base={list(self.base)})")


def group_from_generators(degree: int, gens) -> PermutationGroup:
    """Build the group generated by ``gens`` acting on 0..degree-1."""
    return PermutationGroup(degree, gens)
