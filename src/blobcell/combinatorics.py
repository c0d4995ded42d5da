"""Multipartition and tableau combinatorics for one-column shapes.

Conventions
-----------
* A *node* is a triple ``(row, col, comp)``, all 1-based.
* A *multicomposition* is a tuple of components, each component a tuple of
  row lengths; a one-column multipartition has all row lengths equal to 1,
  so ``((1, 1, 1), (), (1,))`` stands for ((1^3), emptyset, (1)).
* A *tableau* of shape lam is stored as nested tuples
  ``t[comp-1][row-1][col-1] = entry``; it is a bijection {1..n} -> [lam].
* A *weighting* theta is a tuple of l integers.  The node order puts
  gamma = (r, c, b) strictly below gamma' = (r', c', b') when the key
  theta_b + c - r is smaller, with ties broken by the LARGER component
  index being smaller.
* Permutations w of {1..n} are tuples with ``w[k-1] = w(k)``; tableaux
  carry a right action ``(t w)(k) = t(w(k))``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

Node = tuple[int, int, int]
Shape = tuple[tuple[int, ...], ...]
Tableau = tuple[tuple[tuple[int, ...], ...], ...]
Perm = tuple[int, ...]
Weighting = tuple


# ---------------------------------------------------------------------------
# Weightings
# ---------------------------------------------------------------------------


def theta_zero(l: int) -> Weighting:
    return (0,) * l


def theta_sep(l: int, n: int) -> Weighting:
    """A separated weighting with theta_i > theta_{i+1} + n; realizes the
    column-reading order on tableaux."""
    return tuple((l - 1 - i) * (n + 1) for i in range(l))


# ---------------------------------------------------------------------------
# Nodes and the theta-order
# ---------------------------------------------------------------------------


def node_key(a: Node, theta: Weighting):
    r, c, b = a
    return theta[b - 1] + c - r


def node_cmp(a: Node, b: Node, theta: Weighting) -> str:
    """Compare two nodes in the theta-order.

    Returns one of "less", "equal", "greater", "incomparable".  Equal key
    with the same component but distinct nodes is incomparable (can only
    happen off column 1).
    """
    if a == b:
        return "equal"
    ka, kb = node_key(a, theta), node_key(b, theta)
    if ka < kb:
        return "less"
    if ka > kb:
        return "greater"
    if a[2] > b[2]:
        return "less"
    if a[2] < b[2]:
        return "greater"
    return "incomparable"


def node_lt(a: Node, b: Node, theta: Weighting) -> bool:
    return node_cmp(a, b, theta) == "less"


def node_leq(a: Node, b: Node, theta: Weighting) -> bool:
    return node_cmp(a, b, theta) in ("less", "equal")


# ---------------------------------------------------------------------------
# Shapes
# ---------------------------------------------------------------------------


def shape_size(shape: Shape) -> int:
    return sum(sum(comp) for comp in shape)


def nodes_of_shape(shape: Shape) -> list[Node]:
    out = []
    for m, comp in enumerate(shape, start=1):
        for r, length in enumerate(comp, start=1):
            for c in range(1, length + 1):
                out.append((r, c, m))
    return out


def is_one_column(shape: Shape) -> bool:
    return all(all(x == 1 for x in comp) for comp in shape)


def one_column_shape(heights: Sequence[int]) -> Shape:
    return tuple((1,) * a for a in heights)


def column_heights(shape: Shape) -> tuple[int, ...]:
    if not is_one_column(shape):
        raise ValueError("not a one-column shape")
    return tuple(len(comp) for comp in shape)


def mu_max(n: int, l: int) -> Shape:
    """The balanced one-column multipartition: n = q*l + r gives r
    components of height q+1 followed by l-r of height q."""
    q, r = divmod(n, l)
    return one_column_shape([q + 1] * r + [q] * (l - r))


def mu_max_sep(n: int, l: int) -> Shape:
    """The maximum for a separated weighting: everything in component 1."""
    return one_column_shape([n] + [0] * (l - 1))


def one_column_shapes(n: int, l: int) -> list[Shape]:
    """All one-column l-multipartitions of n, in lex order of heights."""
    out = []

    def rec(rem: int, parts: list[int], k: int):
        if k == 1:
            out.append(one_column_shape(parts + [rem]))
            return
        for a in range(rem + 1):
            rec(rem - a, parts + [a], k - 1)

    rec(n, [], l)
    return out


def _partitions(n: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    def rec(rem: int, maxpart: int, acc: list[int]):
        if rem == 0:
            yield tuple(acc)
            return
        for a in range(min(rem, maxpart), 0, -1):
            yield from rec(rem - a, a, acc + [a])
    yield from rec(n, n, [])


def all_multipartitions(n: int, l: int) -> list[Shape]:
    """All l-multipartitions of n (components arbitrary partitions)."""
    out = []

    def rec(rem: int, comps: list[tuple[int, ...]], k: int):
        if k == 0:
            if rem == 0:
                out.append(tuple(comps))
            return
        for a in range(rem + 1):
            for part in _partitions(a):
                rec(rem - a, comps + [part], k - 1)

    rec(n, [], l)
    return out


def addable_nodes(shape: Shape) -> list[Node]:
    out = []
    for m, comp in enumerate(shape, start=1):
        rows = len(comp)
        for r in range(1, rows + 2):
            c = (comp[r - 1] if r <= rows else 0) + 1
            if r == 1 or (r - 1 <= rows and comp[r - 2] >= c):
                out.append((r, c, m))
    return out


def removable_nodes(shape: Shape) -> list[Node]:
    out = []
    for m, comp in enumerate(shape, start=1):
        rows = len(comp)
        for r in range(1, rows + 1):
            c = comp[r - 1]
            if c >= 1 and (r == rows or comp[r] < c):
                out.append((r, c, m))
    return out


def add_node(shape: Shape, node: Node) -> Shape:
    r, c, m = node
    comp = list(shape[m - 1])
    if r == len(comp) + 1:
        comp.append(1)
    else:
        comp[r - 1] += 1
    return shape[: m - 1] + (tuple(comp),) + shape[m:]


def remove_node(shape: Shape, node: Node) -> Shape:
    r, c, m = node
    comp = list(shape[m - 1])
    comp[r - 1] -= 1
    while comp and comp[-1] == 0:
        comp.pop()
    return shape[: m - 1] + (tuple(comp),) + shape[m:]


# ---------------------------------------------------------------------------
# Dominance order (counting condition on node sets)
# ---------------------------------------------------------------------------


def node_set_dominates(upper: Iterable[Node], lower: Iterable[Node],
                       theta: Weighting) -> bool:
    """True iff for every probe node g0 the number of nodes of `lower`
    strictly above g0 is at most the corresponding number for `upper`.

    This is the counting form of the dominance order: lower <= upper.  The
    probe ranges over all nodes; it suffices to probe each occurring key
    level at every component, plus one key below the minimum.
    """
    A = list(lower)
    B = list(upper)
    l = len(theta)
    keys = sorted({node_key(g, theta) for g in A + B})
    if not keys:
        return True
    probes = [(k, b) for k in keys for b in range(1, l + 1)]
    probes.append((keys[0] - 1, l))

    def above(nodes, k, b):
        cnt = 0
        for g in nodes:
            kg = node_key(g, theta)
            if kg > k or (kg == k and g[2] < b):
                cnt += 1
        return cnt

    for k, b in probes:
        if above(A, k, b) > above(B, k, b):
            return False
    return True


def dominates(lhs: Shape, rhs: Shape, theta: Weighting) -> bool:
    """lhs >=_theta rhs in the dominance order (equal total size required)."""
    if shape_size(lhs) != shape_size(rhs):
        raise ValueError("dominance requires equal sizes")
    return node_set_dominates(nodes_of_shape(lhs), nodes_of_shape(rhs), theta)


def strictly_dominates(lhs: Shape, rhs: Shape, theta: Weighting) -> bool:
    return lhs != rhs and dominates(lhs, rhs, theta)


def exists_dominating_bijection(lam: Shape, mu: Shape,
                                theta: Weighting) -> bool:
    """Brute-force oracle: is there a bijection Theta:[lam]->[mu] with
    Theta(g) >=_theta g for every g?  (Bipartite matching.)"""
    A = nodes_of_shape(lam)
    B = nodes_of_shape(mu)
    if len(A) != len(B):
        return False
    ok = [[node_leq(a, b, theta) for b in B] for a in A]
    match: list[Optional[int]] = [None] * len(B)

    def augment(i: int, seen: list[bool]) -> bool:
        for j in range(len(B)):
            if ok[i][j] and not seen[j]:
                seen[j] = True
                if match[j] is None or augment(match[j], seen):
                    match[j] = i
                    return True
        return False

    for i in range(len(A)):
        if not augment(i, [False] * len(B)):
            return False
    return True


def hasse_edges(shapes: Sequence[Shape], theta: Weighting
                ) -> set[tuple[Shape, Shape]]:
    """Cover relations (upper, lower) of strict dominance on `shapes`."""
    edges = set()
    for up in shapes:
        for lo in shapes:
            if not strictly_dominates(up, lo, theta):
                continue
            if any(strictly_dominates(up, mid, theta)
                   and strictly_dominates(mid, lo, theta) for mid in shapes):
                continue
            edges.add((up, lo))
    return edges


# ---------------------------------------------------------------------------
# Tableaux
# ---------------------------------------------------------------------------


def shape_of(t: Tableau) -> Shape:
    return tuple(tuple(len(row) for row in comp) for comp in t)


def tableau_size(t: Tableau) -> int:
    return sum(len(row) for comp in t for row in comp)


def entry_at(t: Tableau, node: Node) -> int:
    r, c, m = node
    return t[m - 1][r - 1][c - 1]


def node_map(t: Tableau) -> dict[int, Node]:
    out = {}
    for m, comp in enumerate(t, start=1):
        for r, row in enumerate(comp, start=1):
            for c, entry in enumerate(row, start=1):
                out[entry] = (r, c, m)
    return out


def tableau_from_map(shape: Shape, mapping: dict[int, Node]) -> Tableau:
    inv = {node: k for k, node in mapping.items()}
    return tuple(
        tuple(
            tuple(inv[(r, c, m)] for c in range(1, length + 1))
            for r, length in enumerate(comp, start=1))
        for m, comp in enumerate(shape, start=1))


def is_standard(t: Tableau) -> bool:
    for comp in t:
        for row in comp:
            if any(row[i] >= row[i + 1] for i in range(len(row) - 1)):
                return False
        for r in range(len(comp) - 1):
            for c in range(min(len(comp[r]), len(comp[r + 1]))):
                if comp[r][c] >= comp[r + 1][c]:
                    return False
    return True


def restrict_tableau(t: Tableau, k: int) -> Tableau:
    return tuple(
        tuple(prow for prow in
              (tuple(e for e in row if e <= k) for row in comp) if prow)
        for comp in t)


def apply_perm(t: Tableau, w: Perm) -> Tableau:
    """Right action: (t w)(k) = t(w(k))."""
    nm = node_map(t)
    return tableau_from_map(shape_of(t), {k: nm[w[k - 1]]
                                          for k in range(1, len(w) + 1)})


def apply_simple(t: Tableau, i: int) -> Tableau:
    """t s_i: swap the entries i and i+1."""
    nm = node_map(t)
    nm[i], nm[i + 1] = nm[i + 1], nm[i]
    return tableau_from_map(shape_of(t), nm)


def t_lambda(shape: Shape, theta: Weighting) -> Tableau:
    """The greedy maximal tableau: entry i sits at the largest theta-addable
    node of the partial shape that stays inside [shape]."""
    target = set(nodes_of_shape(shape))
    cur: Shape = ((),) * len(shape)
    mapping: dict[int, Node] = {}
    for i in range(1, shape_size(shape) + 1):
        cands = [g for g in addable_nodes(cur) if g in target]
        best = cands[0]
        for g in cands[1:]:
            if node_lt(best, g, theta):
                best = g
        mapping[i] = best
        cur = add_node(cur, best)
    return tableau_from_map(shape, mapping)


def std_tableaux(shape: Shape) -> list[Tableau]:
    """All standard tableaux of a multipartition shape, deterministically
    ordered (recursion removes the largest entry from each removable node,
    nodes sorted by (comp, row, col))."""
    n = shape_size(shape)
    if n == 0:
        return [tuple(() for _ in shape)]
    out = []
    for node in sorted(removable_nodes(shape), key=lambda g: (g[2], g[0], g[1])):
        for sub in std_tableaux(remove_node(shape, node)):
            nm = node_map(sub)
            nm[n] = node
            out.append(tableau_from_map(shape, nm))
    return out


def std_tableaux_count(shape: Shape) -> int:
    """n! / (h_1! ... h_l!), the number of standard tableaux of a
    one-column shape with column heights h_1, ..., h_l, without listing."""
    return math.factorial(shape_size(shape)) // math.prod(
        math.factorial(h) for h in column_heights(shape))


def all_tableaux(shape: Shape) -> list[Tableau]:
    nodes = nodes_of_shape(shape)
    n = len(nodes)
    out = []
    for perm in itertools.permutations(nodes):
        out.append(tableau_from_map(shape,
                                    {k: perm[k - 1] for k in range(1, n + 1)}))
    return out


# ---------------------------------------------------------------------------
# Orders on tableaux
# ---------------------------------------------------------------------------


def tableau_dominates(s: Tableau, t: Tableau, theta: Weighting) -> bool:
    """s >=_theta t: every restriction shape of s dominates that of t."""
    ns, nt = tableau_size(s), tableau_size(t)
    smap, tmap = node_map(s), node_map(t)
    snodes: list[Node] = []
    tnodes: list[Node] = []
    for k in range(1, min(ns, nt) + 1):
        snodes.append(smap[k])
        tnodes.append(tmap[k])
        if not node_set_dominates(snodes, tnodes, theta):
            return False
    return True


def tableau_strictly_dominates(s: Tableau, t: Tableau,
                               theta: Weighting) -> bool:
    return s != t and tableau_dominates(s, t, theta)


def lex_cmp(s: Tableau, t: Tableau, theta: Weighting) -> str:
    """Lexicographic comparison by the first entry sitting at different
    nodes; returns "less" when s <_theta t."""
    ns, nt = tableau_size(s), tableau_size(t)
    smap, tmap = node_map(s), node_map(t)
    for k in range(1, min(ns, nt) + 1):
        if smap[k] != tmap[k]:
            return node_cmp(smap[k], tmap[k], theta)
    if ns == nt:
        return "equal"
    return "less" if ns < nt else "greater"


def shape_lex_cmp(lam: Shape, mu: Shape, theta: Weighting) -> str:
    """Lexicographic order on shapes of possibly different sizes, via the
    greedy maximal tableaux: lam < mu iff T^lam <= T^mu restricted."""
    m = min(shape_size(lam), shape_size(mu))
    return lex_cmp(restrict_tableau(t_lambda(lam, theta), m),
                   restrict_tableau(t_lambda(mu, theta), m), theta)


# ---------------------------------------------------------------------------
# Permutations
# ---------------------------------------------------------------------------


def perm_identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def perm_mult(u: Perm, v: Perm) -> Perm:
    """(u v)(k) = u(v(k))."""
    return tuple(u[v[k] - 1] for k in range(len(u)))


def perm_inverse(w: Perm) -> Perm:
    out = [0] * len(w)
    for k, wk in enumerate(w, start=1):
        out[wk - 1] = k
    return tuple(out)


def perm_length(w: Perm) -> int:
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def simple(n: int, i: int) -> Perm:
    w = list(range(1, n + 1))
    w[i - 1], w[i] = w[i], w[i - 1]
    return tuple(w)


def perm_from_word(n: int, word: Sequence[int]) -> Perm:
    w = perm_identity(n)
    for a in word:
        w = perm_mult(w, simple(n, a))
    return w


def official_word(w: Perm) -> tuple[int, ...]:
    """The fixed reduced expression: lexicographically smallest reduced
    word, built greedily from the smallest left descent."""
    winv = perm_inverse(w)
    word = []
    w = tuple(w)
    while True:
        desc = None
        for i in range(1, len(w)):
            if winv[i - 1] > winv[i]:
                desc = i
                break
        if desc is None:
            return tuple(word)
        word.append(desc)
        w = perm_mult(simple(len(w), desc), w)
        winv = perm_inverse(w)


def bruhat_leq(u: Perm, w: Perm) -> bool:
    """Bruhat order with the identity smallest, via the descent recursion."""
    if perm_length(u) > perm_length(w):
        return False
    if u == w:
        return True
    # find a right descent of w
    s = None
    for i in range(1, len(w)):
        if w[i - 1] > w[i]:
            s = i
            break
    if s is None:
        return u == w
    ws = perm_mult(w, simple(len(w), s))
    us = perm_mult(u, simple(len(u), s))
    if perm_length(us) < perm_length(u):
        return bruhat_leq(us, ws)
    return bruhat_leq(u, ws)


def bruhat_leq_subword(u: Perm, w: Perm) -> bool:
    """Independent oracle for the Bruhat order: u <= w iff some reduced word
    of u is a subword of a fixed reduced word of w (set-valued DP)."""
    n = len(w)
    reachable = {perm_identity(n)}
    for a in official_word(w):
        s = simple(n, a)
        new = set()
        for v in reachable:
            vs = perm_mult(v, s)
            if perm_length(vs) > perm_length(v):
                new.add(vs)
        reachable |= new
    return u in reachable


def d_perm(t: Tableau, theta: Weighting) -> Perm:
    """The permutation d(t) with T^lam_theta d(t) = t for the right action."""
    tl = t_lambda(shape_of(t), theta)
    nm = node_map(t)
    return tuple(entry_at(tl, nm[k]) for k in range(1, tableau_size(t) + 1))


def ehresmann_agree(s: Tableau, t: Tableau, theta: Weighting) -> bool:
    """Check the order-reversing match between tableau dominance and the
    Bruhat order on the d-permutations: s strictly below t iff d(t) is
    strictly below d(s) with the identity smallest."""
    lhs = tableau_strictly_dominates(t, s, theta)
    ds, dt = d_perm(s, theta), d_perm(t, theta)
    rhs = ds != dt and bruhat_leq(dt, ds)
    return lhs == rhs


# ---------------------------------------------------------------------------
# Weak order
# ---------------------------------------------------------------------------


def raising_neighbors(t: Tableau, theta: Weighting) -> list[Tableau]:
    out = []
    n = tableau_size(t)
    for i in range(1, n):
        s = apply_simple(t, i)
        if tableau_strictly_dominates(s, t, theta):
            out.append(s)
    return out


def weak_upset(t: Tableau, theta: Weighting) -> set[Tableau]:
    """All tableaux strictly above t in the weak order (reachable by
    dominance-raising simple transpositions), excluding t itself."""
    seen = {t}
    stack = [t]
    while stack:
        cur = stack.pop()
        for nxt in raising_neighbors(cur, theta):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    seen.discard(t)
    return seen


def weak_less(t: Tableau, s: Tableau, theta: Weighting) -> bool:
    """t strictly below s in the weak order."""
    return s in weak_upset(t, theta)


# ---------------------------------------------------------------------------
# Residues and multicharges
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Multicharge:
    hat_kappa: tuple[int, ...]
    e: int

    @property
    def l(self) -> int:
        return len(self.hat_kappa)

    @property
    def kappa(self) -> tuple[int, ...]:
        return tuple(k % self.e for k in self.hat_kappa)


def residue(node: Node, mc: Multicharge) -> int:
    r, c, m = node
    return (mc.kappa[m - 1] + c - r) % mc.e


def hat_content(node: Node, mc: Multicharge) -> int:
    """The integral content hat_kappa_m + c - r (no reduction mod e)."""
    r, c, m = node
    return mc.hat_kappa[m - 1] + c - r


def swap_entries(seq: Sequence[int], r: int) -> tuple:
    """s_r applied to a sequence: entries r and r + 1 (from 1) exchanged."""
    s = tuple(seq)
    return s[:r - 1] + (s[r], s[r - 1]) + s[r + 1:]


def residue_seq(t: Tableau, mc: Multicharge) -> tuple[int, ...]:
    nm = node_map(t)
    return tuple(residue(nm[k], mc) for k in range(1, tableau_size(t) + 1))


def free_move_equivalent(s: Tableau, t: Tableau, mc: Multicharge) -> bool:
    """True iff the residue sequences of s and t are connected by swaps at
    positions carrying distant residues (difference not in {0, +-1} mod e).
    Such swaps implement e(i) = psi_k e(s_k i) psi_k on idempotents."""
    start = residue_seq(s, mc)
    goal = residue_seq(t, mc)
    if sorted(start) != sorted(goal):
        return False
    e = mc.e
    seen = {start}
    stack = [start]
    while stack:
        cur = stack.pop()
        if cur == goal:
            return True
        for k in range(len(cur) - 1):
            if (cur[k] - cur[k + 1]) % e in (0, 1, e - 1):
                continue
            nxt = cur[:k] + (cur[k + 1], cur[k]) + cur[k + 2:]
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


def i_lambda(shape: Shape, mc: Multicharge) -> tuple[int, ...]:
    """Residue sequence of the greedy maximal tableau (zero weighting)."""
    return residue_seq(t_lambda(shape, theta_zero(len(shape))), mc)


def multicharge_violation(mc: Multicharge, n: int) -> str | None:
    """The message naming the first of the four conditions that ``mc``
    violates at n strings, or None: i) lifted gaps at least n; ii)
    residues pairwise non-adjacent mod e; iii) first residue not equal to
    last residue plus 2; iv) residues strictly increasing."""
    hk, e, kap = mc.hat_kappa, mc.e, mc.kappa
    l = len(hk)
    for i in range(l - 1):
        if hk[i + 1] - hk[i] < n:
            return ("multicharge condition i) violated: consecutive entries "
                    f"{hk[i]}, {hk[i + 1]} differ by less than n = {n}")
    for i in range(l):
        for j in range(l):
            if i != j and (kap[i] - kap[j]) % e in (0, 1, e - 1):
                return ("multicharge condition ii) violated: residues "
                        f"{kap[i]}, {kap[j]} are equal or adjacent mod e")
    if l >= 1 and kap[0] % e == (kap[-1] + 2) % e:
        return ("multicharge condition iii) violated: first residue equals "
                "last + 2 mod e")
    if any(kap[i] >= kap[i + 1] for i in range(l - 1)):
        return ("multicharge condition iv) violated: residues not strictly "
                "increasing")
    return None


def is_strongly_adjacency_free(mc: Multicharge, n: int) -> bool:
    """Whether ``mc`` meets the four conditions of
    :func:`multicharge_violation` at n strings."""
    return multicharge_violation(mc, n) is None


# ---------------------------------------------------------------------------
# Garnir tableaux
# ---------------------------------------------------------------------------


def gamma_plus(gamma: Node) -> Node:
    r, c, m = gamma
    if r == 1:
        raise ValueError("node in first row has no node on top")
    return (r - 1, c, m)


def snake(shape: Shape, gamma: Node) -> list[Node]:
    """The closed interval [gamma, gamma^+] (zero weighting) inside the
    diagram, listed in increasing node order."""
    if not is_one_column(shape):
        raise ValueError("snakes are defined for one-column shapes")
    gp = gamma_plus(gamma)
    theta = theta_zero(len(shape))
    if gamma not in nodes_of_shape(shape):
        raise ValueError("gamma not in shape")
    seg = [g for g in nodes_of_shape(shape)
           if node_leq(gamma, g, theta) and node_leq(g, gp, theta)]
    seg.sort(key=lambda g: (node_key(g, theta), -g[2]))
    return seg


def snake_numbers(shape: Shape, gamma: Node) -> set[int]:
    tl = t_lambda(shape, theta_zero(len(shape)))
    return {entry_at(tl, g) for g in snake(shape, gamma)}


def _snake_path(shape: Shape, gamma: Node) -> list[Node]:
    """Snake nodes in the visual left-to-right path order: the row of gamma
    up to gamma's component, then the row above from gamma's component on."""
    r, _, m = gamma
    seg = snake(shape, gamma)
    lower = sorted((g for g in seg if g[0] == r), key=lambda g: g[2])
    upper = sorted((g for g in seg if g[0] == r - 1), key=lambda g: g[2])
    return lower + upper


def classical_garnir(shape: Shape, gamma: Node) -> Tableau:
    """Snake numbers placed consecutively along the left-to-right path
    (with the single upward jump at gamma); the rest agrees with the
    greedy maximal tableau."""
    tl = t_lambda(shape, theta_zero(len(shape)))
    nm = node_map(tl)
    numbers = sorted(snake_numbers(shape, gamma))
    for k, g in zip(numbers, _snake_path(shape, gamma)):
        nm[k] = g
    return tableau_from_map(shape, nm)


def tilde_garnir(shape: Shape, gamma: Node) -> Tableau:
    """Snake numbers placed increasingly starting at gamma, then gamma^+ and
    the rest of its row, finally the remaining nodes of gamma's row."""
    r, _, m = gamma
    gp = gamma_plus(gamma)
    seg = snake(shape, gamma)
    order = [gamma, gp]
    order += sorted((g for g in seg if g[0] == r - 1 and g != gp),
                    key=lambda g: g[2])
    order += sorted((g for g in seg if g[0] == r and g != gamma),
                    key=lambda g: g[2])
    tl = t_lambda(shape, theta_zero(len(shape)))
    nm = node_map(tl)
    for k, g in zip(sorted(snake_numbers(shape, gamma)), order):
        nm[k] = g
    return tableau_from_map(shape, nm)


def is_garnir(t: Tableau, theta: Optional[Weighting] = None) -> bool:
    """Definition-based test: t is non-standard, some t s_i is standard, and
    s_i is the only simple transposition raising t in dominance."""
    if theta is None:
        theta = theta_zero(len(t))
    if is_standard(t):
        return False
    n = tableau_size(t)
    raisers = []
    for i in range(1, n):
        if tableau_strictly_dominates(apply_simple(t, i), t, theta):
            raisers.append(i)
    if len(raisers) != 1:
        return False
    return is_standard(apply_simple(t, raisers[0]))


def garnir_gamma(t: Tableau) -> Optional[tuple[Node, int]]:
    """The (gamma, i0) datum of the characterization, or None if t fails it:
    t(i0) = gamma with t(i0+1) on top of it, every other adjacent pair
    descends, and t agrees with the greedy tableau off the snake numbers."""
    shape = shape_of(t)
    theta = theta_zero(len(shape))
    n = tableau_size(t)
    nm = node_map(t)
    inversions = [i for i in range(1, n)
                  if not node_lt(nm[i + 1], nm[i], theta)]
    if len(inversions) != 1:
        return None
    i0 = inversions[0]
    gamma = nm[i0]
    if gamma[0] == 1 or nm[i0 + 1] != gamma_plus(gamma):
        return None
    tl = t_lambda(shape, theta)
    ns = snake_numbers(shape, gamma)
    tlm = node_map(tl)
    for i in range(1, n + 1):
        if i not in ns and nm[i] != tlm[i]:
            return None
    return gamma, i0


def is_garnir_characterized(t: Tableau) -> bool:
    return garnir_gamma(t) is not None


@dataclass(frozen=True)
class GarnirDatum:
    shape: Shape
    gamma: Node
    i0: int
    tableau: Tableau
    snake: tuple[Node, ...]
    snake_numbers: frozenset[int]


def garnir_enumerate(shape: Shape) -> list[GarnirDatum]:
    """All Garnir tableaux of a one-column shape, via the characterization:
    for each node gamma off the first row, permute the snake numbers inside
    the snake and keep the fillings that pass the characterization."""
    out = []
    theta = theta_zero(len(shape))
    tl = t_lambda(shape, theta)
    for gamma in nodes_of_shape(shape):
        if gamma[0] == 1:
            continue
        seg = snake(shape, gamma)
        ns = sorted(snake_numbers(shape, gamma))
        base = node_map(tl)
        for perm in itertools.permutations(seg):
            nm = dict(base)
            for k, g in zip(ns, perm):
                nm[k] = g
            t = tableau_from_map(shape, nm)
            datum = garnir_gamma(t)
            if datum is not None and datum[0] == gamma:
                out.append(GarnirDatum(shape, gamma, datum[1], t,
                                       tuple(seg), frozenset(ns)))
    return out


def garnir_factorization(t: Tableau, theta: Optional[Weighting] = None
                         ) -> Optional[tuple[Tableau, Perm]]:
    """For non-standard t, a Garnir tableau G and w with t = G w and
    additive lengths; None if t is standard."""
    if is_standard(t):
        return None
    if theta is None:
        theta = theta_zero(len(t))
    n = tableau_size(t)
    dt = d_perm(t, theta)
    lt = perm_length(dt)
    best = None
    for g in garnir_enumerate(shape_of(t)):
        dg = d_perm(g.tableau, theta)
        w = perm_mult(perm_inverse(dg), dt)
        if perm_length(dg) + perm_length(w) == lt:
            cand = (g.tableau, w)
            if best is None or cand < best:
                best = cand
    return best


# ---------------------------------------------------------------------------
# Degrees
# ---------------------------------------------------------------------------


def psi_degree(i_r: int, i_r1: int, e: int) -> int:
    """Degree of a crossing on adjacent residues (i_r, i_r1)."""
    if i_r == i_r1:
        return -2
    if (i_r1 - i_r) % e in (1, e - 1):
        return 1
    return 0


def square_terms(i: Sequence[int], r: int, e: int) -> list[tuple]:
    """psi_r^2 e(i) as (c, dots) terms c y_(k_1) ... y_(k_m) e(i), dots =
    (k_1, ..., k_m): none on equal residues, (y_(r+1) - y_r) e(i) when
    i_(r+1) = i_r + 1, (y_r - y_(r+1)) e(i) when i_(r+1) = i_r - 1, e(i)
    when they are distant."""
    d = (i[r] - i[r - 1]) % e
    if d == 1:
        return [(1, (r + 1,)), (-1, (r,))]
    if d == e - 1:
        return [(1, (r,)), (-1, (r + 1,))]
    return [(1, ())] if d else []


def braid_sign(i: Sequence[int], r: int, e: int) -> int:
    """c in (psi_r psi_(r+1) psi_r - psi_(r+1) psi_r psi_(r+1)) e(i) =
    c e(i): +1 at residues (a, a+1, a) in places r..r+2, -1 at (a, a-1, a),
    else 0.  In the polynomial representation the dot relations make psi_r
    act on equal residues as f -> (f - s_r f) / (y_(r+1) - y_r), and
    :func:`square_terms` fixes the product of the two crossings of an
    adjacent pair; composing them gives this sign."""
    a, b, c = i[r - 1:r + 2]
    d = (b - a) % e
    return 0 if a != c or d not in (1, e - 1) else 1 if d == 1 else -1


def word_degree(iseq: Sequence[int], word: Sequence[int], e: int) -> int:
    """Degree of e(iseq) followed by the crossings of `word`, letter by
    letter; `iseq` is the residue sequence on the left of the word."""
    cur = list(iseq)
    deg = 0
    for a in word:
        nxt = list(cur)
        nxt[a - 1], nxt[a] = nxt[a], nxt[a - 1]
        deg += psi_degree(nxt[a - 1], nxt[a], e)
        cur = nxt
    return deg


def tableau_degree(t: Tableau, mc: Multicharge) -> int:
    """deg(t): degree of the half-basis word attached to t, computed from
    the official reduced expression of d(t) and the residue bookkeeping."""
    shape = shape_of(t)
    theta = theta_zero(len(shape))
    return word_degree(i_lambda(shape, mc),
                       official_word(d_perm(t, theta)), mc.e)
