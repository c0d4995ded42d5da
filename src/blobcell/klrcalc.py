"""Symbolic rewrite engine for the graded presentation of the blob algebra.

Elements are words in the homogeneous generators -- crossings ``psi_r``,
dots ``y_k`` and class idempotents ``e(i)`` -- rewritten by the local
defining relations and the derived two- and three-string identities.  On
top of the local rules the module implements the two targeted
straightening procedures:

* :func:`straighten_dot` expands ``y_k e(i^lambda)`` into words factoring
  through class idempotents of strictly dominating shapes; for the
  balanced maximal shape the expansion is empty, i.e. the element is zero.
* :func:`straighten_garnir` rewrites a cellular pair ``m_{S,G}`` with a
  Garnir (or arbitrary non-standard) tableau ``G`` into standard pairs.

Every step of a run is recorded in a replayable :class:`RewriteTrace`.  At
small scale each rule and each straightening run can be certified against
the held generator images built in :mod:`blobcell.blob`; at large scale
the same recursion runs purely symbolically, using concatenation to
discharge branches by induction on the number of strings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import combinatorics as comb
from .exactfield import block_lincomb, block_matmul, matmul


class PatternMismatch(Exception):
    """A local rule was applied at a position where its pattern is absent."""


class NotProvablyZero(Exception):
    """The symbolic zero-recursion reached a state it cannot discharge."""


class ObstacleClassification(NotProvablyZero):
    """A moving residue met a neighbour outside the classified cases;
    cannot happen for a strongly adjacency-free multicharge."""


def standard_class_shapes(seq: Sequence[int], mc: comb.Multicharge):
    """All one-column shapes carrying a standard tableau with residue
    sequence ``seq``, as a tuple (empty when ``seq`` is not such a class).
    Works by placing each residue in turn at the lowest free node of every
    component whose next residue matches, and collecting the complete
    placements.  A strongly adjacency-free multicharge yields at most one
    shape, but small multicharges can realize a class several ways."""
    e, kappa = mc.e, mc.kappa
    l = len(kappa)
    results: set = set()
    heights = [0] * l

    def place(pos: int) -> None:
        if pos == len(seq):
            results.add(tuple(heights))
            return
        x = seq[pos] % e
        for c in range(l):
            if (kappa[c] - heights[c]) % e == x:
                heights[c] += 1
                place(pos + 1)
                heights[c] -= 1

    place(0)
    return tuple(comb.one_column_shape(h) for h in sorted(results))


# ---------------------------------------------------------------------------
# Words
# ---------------------------------------------------------------------------

#: tokens are ("psi", r), ("y", k) or ("e", residue tuple)
Token = tuple


@dataclass(frozen=True)
class DiagramWord:
    """A scalar multiple of a word in crossings, dots and idempotents
    acting on the class idempotent of the bottom residue sequence."""

    coeff: int
    tokens: tuple
    ibot: tuple

    def __post_init__(self):
        n = len(self.ibot)
        cur = self.ibot
        for kind, arg in reversed(self.tokens):
            if kind == "psi":
                if not 1 <= arg <= n - 1:
                    raise ValueError(f"crossing index {arg} out of range")
                cur = comb.swap_entries(cur, arg)
            elif kind == "y":
                if not 1 <= arg <= n:
                    raise ValueError(f"dot index {arg} out of range")
            elif kind == "e":
                if tuple(arg) != cur:
                    raise ValueError(
                        f"idempotent {arg} inconsistent with the residue "
                        f"profile {cur}")
            else:
                raise ValueError(f"unknown token kind {kind!r}")

    @property
    def n(self) -> int:
        return len(self.ibot)

    def profiles(self) -> list[tuple]:
        """Residue sequences between consecutive tokens, from left to
        right; entry ``len(tokens)`` is the bottom sequence."""
        out = [self.ibot]
        for kind, arg in reversed(self.tokens):
            out.append(comb.swap_entries(out[-1], arg) if kind == "psi"
                       else out[-1])
        out.reverse()
        return out

    @property
    def top(self) -> tuple:
        return self.profiles()[0]

    def render(self) -> str:
        parts = []
        for kind, arg in self.tokens:
            if kind == "e":
                parts.append(f"e({','.join(map(str, arg))})")
            else:
                parts.append(f"{kind}_{arg}")
        parts.append(f"e({','.join(map(str, self.ibot))})")
        return f"{self.coeff} * " + " ".join(parts)

    def evaluate(self, images) -> dict:
        """The held operator of the word in the generator images of a
        :class:`blobcell.blob.KLRImages` instance, block-sparse in their
        weight-space coordinates; {} when the carrier drops a class the
        word passes through."""
        ops = [images.PSI[arg] if kind == "psi" else
               images.Y[arg] if kind == "y" else images.E.get(tuple(arg))
               for kind, arg in self.tokens]
        ops.append(images.E.get(self.ibot))
        if any(X is None for X in ops):
            return {}
        return block_lincomb([(self.coeff, block_matmul(ops, images.p))],
                             images.p)


def evaluate_sum(words: Sequence[DiagramWord], images) -> dict:
    return block_lincomb([(1, w.evaluate(images)) for w in words], images.p)


def concatenate(t: DiagramWord, iota: int) -> DiagramWord:
    """Image of the word under the right-concatenation embedding that adds
    a through string of residue ``iota``; an algebra homomorphism, so it
    is multiplicative and maps zero to zero."""
    tokens = tuple(("e", tuple(arg) + (iota,)) if kind == "e" else
                   (kind, arg) for kind, arg in t.tokens)
    return DiagramWord(t.coeff, tokens, t.ibot + (iota,))


# ---------------------------------------------------------------------------
# Symbolic sequences and traces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymbolicSequence:
    """A residue sequence with optional dot markers, rendered with row
    separators; equivalent to the word ``(prod of y_k) e(i)``."""

    residues: tuple
    dots: tuple = ()
    rows: tuple = ()

    def render(self) -> str:
        marked = [f"{r}." if (j + 1) in self.dots else str(r)
                  for j, r in enumerate(self.residues)]
        if not self.rows:
            return "(" + ",".join(marked) + ")"
        chunks, at = [], 0
        for w in self.rows:
            if at >= len(marked):
                break
            chunks.append(",".join(marked[at:at + w]))
            at += w
        if at < len(marked):
            chunks.append(",".join(marked[at:]))
        return "(" + " | ".join(chunks) + ")"


@dataclass
class TraceStep:
    rule: str
    position: int
    before: str
    after: str


@dataclass
class RewriteTrace:
    steps: list = field(default_factory=list)
    terminal: list = field(default_factory=list)

    def add(self, rule: str, position: int, before: str, after: str):
        self.steps.append(TraceStep(rule, position, before, after))

    def to_json(self) -> str:
        return json.dumps({
            "steps": [{"rule": s.rule, "position": s.position,
                       "before": s.before, "after": s.after}
                      for s in self.steps],
            "terminal": list(self.terminal),
        })


# ---------------------------------------------------------------------------
# Local rules
# ---------------------------------------------------------------------------


def _adj(x: int, y: int, e: int) -> int:
    """Classify the residue difference x - y: 0 equal, 1 one above,
    e - 1 one below, anything else distant."""
    return (x - y) % e


def _rebuild(t: DiagramWord, lo: int, hi: int, repls) -> list[DiagramWord]:
    """Words with tokens[lo:hi] replaced by each (scalar, tokens) in
    repls; drops words with scalar zero."""
    out = []
    for c, mid in repls:
        if c == 0:
            continue
        out.append(DiagramWord(t.coeff * c,
                               t.tokens[:lo] + tuple(mid) + t.tokens[hi:],
                               t.ibot))
    return out


def local_rewrite(t: DiagramWord, rule: str, position: int,
                  mc: Optional[comb.Multicharge] = None
                  ) -> list[DiagramWord]:
    """Apply one local rule at a token position; returns the resulting
    linear combination (empty list = zero).  Rules that inspect the first
    residue need the multicharge ``mc``.

    Rules: ``commute``, ``dot-crossing``, ``crossing-square``, ``braid``,
    ``absorb-idempotent``, ``first-residue``, ``first-ascent``,
    ``dot-at-start``.
    """
    toks = t.tokens
    prof = t.profiles()
    e = None if mc is None else mc.e

    def tok(j):
        if not 0 <= j < len(toks):
            raise PatternMismatch(f"no token at position {j}")
        return toks[j]

    def need_mc():
        if mc is None:
            raise PatternMismatch(f"rule {rule!r} needs a multicharge")

    if rule == "commute":
        (k1, a1), (k2, a2) = tok(position), tok(position + 1)
        ok = (k1 == "psi" and k2 == "psi" and abs(a1 - a2) >= 2) or \
             (k1 == "y" and k2 == "y") or \
             (k1 == "psi" and k2 == "y" and a2 not in (a1, a1 + 1)) or \
             (k1 == "y" and k2 == "psi" and a1 not in (a2, a2 + 1))
        if not ok:
            raise PatternMismatch("tokens do not commute freely")
        return _rebuild(t, position, position + 2,
                        [(1, (toks[position + 1], toks[position]))])

    if rule == "dot-crossing":
        need_mc()
        (k1, a1), (k2, a2) = tok(position), tok(position + 1)
        s = prof[position + 2]
        if k1 == "psi" and k2 == "y" and a2 in (a1, a1 + 1):
            r = a1
            delta = 1 if s[r - 1] == s[r] else 0
            if a2 == r + 1:   # psi_r y_{r+1} = y_r psi_r + delta
                return _rebuild(t, position, position + 2,
                                [(1, (("y", r), ("psi", r))), (delta, ())])
            # psi_r y_r = y_{r+1} psi_r - delta
            return _rebuild(t, position, position + 2,
                            [(1, (("y", r + 1), ("psi", r))), (-delta, ())])
        if k1 == "y" and k2 == "psi" and a1 in (a2, a2 + 1):
            r = a2
            delta = 1 if s[r - 1] == s[r] else 0
            if a1 == r + 1:   # y_{r+1} psi_r = psi_r y_r + delta
                return _rebuild(t, position, position + 2,
                                [(1, (("psi", r), ("y", r))), (delta, ())])
            # y_r psi_r = psi_r y_{r+1} - delta
            return _rebuild(t, position, position + 2,
                            [(1, (("psi", r), ("y", r + 1))), (-delta, ())])
        raise PatternMismatch("no dot next to its own crossing here")

    if rule == "crossing-square":
        need_mc()
        (k1, a1), (k2, a2) = tok(position), tok(position + 1)
        if k1 != "psi" or k2 != "psi" or a1 != a2:
            raise PatternMismatch("no repeated crossing here")
        return _rebuild(t, position, position + 2, [
            (c, tuple(("y", k) for k in dots))
            for c, dots in comb.square_terms(prof[position + 2], a1, e)])

    if rule == "braid":
        need_mc()
        kinds = [tok(position + j) for j in range(3)]
        if any(k != "psi" for k, _ in kinds):
            raise PatternMismatch("three crossings expected")
        r1, r2, r3 = (a for _, a in kinds)
        if not (r1 == r3 and abs(r1 - r2) == 1):
            raise PatternMismatch("no braid pattern here")
        r = min(r1, r2)
        # (psi_r psi_{r+1} psi_r - psi_{r+1} psi_r psi_{r+1}) e(i) = alpha
        # e(i), the sign that the dot-crossing and crossing-square rules
        # force (comb.braid_sign, which the relation suite reads too)
        alpha = comb.braid_sign(prof[position + 3], r, e)
        if r1 < r2:   # psi_r psi_{r+1} psi_r = psi_{r+1} psi_r psi_{r+1} + alpha
            other = (("psi", r + 1), ("psi", r), ("psi", r + 1))
            return _rebuild(t, position, position + 3,
                            [(1, other), (alpha, ())])
        other = (("psi", r), ("psi", r + 1), ("psi", r))
        return _rebuild(t, position, position + 3,
                        [(1, other), (-alpha, ())])

    if rule == "absorb-idempotent":
        kind, _ = tok(position)
        if kind != "e":
            raise PatternMismatch("not an idempotent token")
        return _rebuild(t, position, position + 1, [(1, ())])

    if rule in ("first-residue", "first-ascent"):
        need_mc()
        if position == len(toks):
            s = t.ibot
        else:
            kind, arg = tok(position)
            if kind != "e":
                raise PatternMismatch("not an idempotent token")
            s = tuple(arg)
        kap = set(mc.kappa)
        if rule == "first-residue":
            if s[0] % e in kap:
                raise PatternMismatch("first residue lies in the multicharge")
        else:
            if len(s) < 2 or s[0] % e not in kap or \
                    _adj(s[1], s[0], e) != 1:
                raise PatternMismatch("no ascent at the start")
        return []

    if rule == "dot-at-start":
        need_mc()
        kind, arg = tok(position)
        if kind != "y" or arg != 1:
            raise PatternMismatch("not a dot on the first string")
        if any(k == "psi" for k, _ in toks[position + 1:]):
            raise PatternMismatch("crossings below the dot")
        if prof[position + 1][0] % e not in set(mc.kappa):
            raise PatternMismatch("first residue not in the multicharge")
        return []

    raise PatternMismatch(f"unknown rule {rule!r}")


RULES = ("commute", "dot-crossing", "crossing-square", "braid",
         "absorb-idempotent", "first-residue", "first-ascent",
         "dot-at-start")


# ---------------------------------------------------------------------------
# Dot straightening
# ---------------------------------------------------------------------------


@dataclass
class StraightenResult:
    """Terminal expansion of a straightening run: words paired with the
    strictly dominating shape whose class idempotent they factor
    through, plus the full trace."""

    terms: list
    trace: RewriteTrace

    @property
    def zero(self) -> bool:
        return not self.terms


@dataclass
class _State:
    coeff: int
    left: tuple     # tokens multiplied on the left of the focus
    seq: tuple      # current residue sequence
    focus: int      # position of the dotted / traveling residue
    dotted: bool
    right: tuple    # tokens between the focus idempotent and the bottom


def _row_pattern(shape) -> tuple:
    heights = comb.column_heights(shape)
    rows = []
    for r in range(1, (max(heights) if heights else 0) + 1):
        rows.append(sum(1 for h in heights if h >= r))
    return tuple(rows)


class _Straightener:
    """Shared recursion behind the dot-straightening lemma and the
    vanishing arguments: a dotted residue climbs to the node above it and
    jumps; a plain traveling residue migrates left, resolving obstacles
    by the triple identity, until a start relation kills the branch or
    the sequence factors through a dominating shape class."""

    def __init__(self, mc: comb.Multicharge, shape=None, symbolic=False):
        self.mc = mc
        self.e = mc.e
        self.l = mc.l
        self.kappa = set(mc.kappa)
        self.shape = shape
        self.symbolic = symbolic
        self.rows = _row_pattern(shape) if shape is not None else ()
        self.trace = RewriteTrace()
        self.terms: list = []
        self._classes: dict = {}

    # -- bookkeeping -------------------------------------------------------

    def class_shapes(self, seq):
        if seq not in self._classes:
            self._classes[seq] = standard_class_shapes(seq, self.mc)
        return self._classes[seq]

    def render(self, st: _State) -> str:
        dots = (st.focus,) if st.dotted else ()
        s = SymbolicSequence(st.seq, dots, self.rows).render()
        if not st.dotted:
            s += f" [moving residue at {st.focus}]"
        return s

    def note(self, rule: str, pos: int, before: _State, after) -> None:
        outs = " + ".join(self.render(a) for a in after) if after else "0"
        self.trace.add(rule, pos, self.render(before), outs)

    def word_of(self, st: _State) -> DiagramWord:
        tokens = st.left
        if st.dotted:
            tokens += (("y", st.focus),)
        tokens += (("e", st.seq),) + st.right
        # in symbolic runs no bottom sequence is tracked; anchor at seq
        ibot = self.ibot if not self.symbolic else st.seq
        return DiagramWord(st.coeff, tokens, ibot)

    # -- the recursion -----------------------------------------------------

    def run(self, st: _State) -> None:
        stack = [st]
        while stack:
            cur = stack.pop()
            stack.extend(self.step(cur))

    def step(self, st: _State) -> list[_State]:
        mus = self.class_shapes(st.seq)
        if mus and self.shape not in mus and not self.symbolic:
            self.trace.terminal.append(self.render(st))
            self.terms.append((self.word_of(st), mus))
            return []
        if not st.dotted and mus:
            raise NotProvablyZero(
                f"sequence {st.seq} is the class of shapes {mus}")
        if st.dotted and self.symbolic and len(st.seq) > st.focus:
            cut = _State(st.coeff, (), st.seq[:st.focus], st.focus,
                         True, ())
            self.note("concatenation-reduction", st.focus, st, [cut])
            st = cut
        return (self._dot_step(st) if st.dotted
                else self._traveler_step(st))

    def _dot_step(self, st: _State) -> list[_State]:
        d, seq = st.focus, st.seq
        A = seq[d - 1]
        if d == 1:
            rule = ("dot-at-start" if A % self.e in self.kappa
                    else "first-residue")
            self.note(rule, 1, st, [])
            return []
        c = _adj(seq[d - 2], A, self.e)
        if c not in (0, 1, self.e - 1):
            nxt = _State(st.coeff, st.left + (("psi", d - 1),),
                         comb.swap_entries(seq, d - 1), d - 1, True,
                         (("psi", d - 1),) + st.right)
            self.note("free-move", d - 1, st, [nxt])
            return [nxt]
        if c == 1:   # the node above: dot-jump
            up = _State(st.coeff, st.left, seq, d - 1, True, st.right)
            out = _State(-st.coeff, st.left + (("psi", d - 1),),
                         comb.swap_entries(seq, d - 1), d - 1, False,
                         (("psi", d - 1),) + st.right)
            self.note("dot-jump", d - 1, st, [up, out])
            return [up, out]
        raise ObstacleClassification(
            f"dotted residue {A} met {seq[d - 2]} at position {d - 1}")

    def _traveler_step(self, st: _State) -> list[_State]:
        t, seq = st.focus, st.seq
        X = seq[t - 1]
        if t == 1:
            if X % self.e not in self.kappa:
                self.note("first-residue", 1, st, [])
                return []
            if len(seq) > 1 and _adj(seq[1], X, self.e) == 1:
                self.note("first-ascent", 1, st, [])
                return []
            raise NotProvablyZero(
                f"moving residue {X} reached the front of {seq}")
        c = _adj(seq[t - 2], X, self.e)
        if c not in (0, 1, self.e - 1):
            nxt = _State(st.coeff, st.left + (("psi", t - 1),),
                         comb.swap_entries(seq, t - 1), t - 1, False,
                         (("psi", t - 1),) + st.right)
            self.note("free-move", t - 1, st, [nxt])
            return [nxt]
        if c == 0:
            return self._double(st, t - 1)
        if c == self.e - 1:
            return self._descent_obstacle(st)
        raise ObstacleClassification(
            f"moving residue {X} met {seq[t - 2]} at position {t - 1}")

    def _double(self, st: _State, r: int) -> list[_State]:
        """Equal residues at (r, r+1): e = y_r psi_r [y_r e] psi_r
        - psi_r y_r [y_r e] psi_r - psi_r [y_r e]."""
        seq = st.seq
        if self.symbolic:
            dot = _State(st.coeff, (), seq, r, True, ())
            self.note("double-residue", r, st, [dot])
            return [dot]
        outs = [
            _State(st.coeff, st.left + (("y", r), ("psi", r)), seq, r,
                   True, (("psi", r),) + st.right),
            _State(-st.coeff, st.left + (("psi", r), ("y", r)), seq, r,
                   True, (("psi", r),) + st.right),
            _State(-st.coeff, st.left + (("psi", r),), seq, r, True,
                   st.right),
        ]
        self.note("double-residue", r, st, outs)
        return outs

    def _descent_obstacle(self, st: _State) -> list[_State]:
        """The obstacle is one below the traveler: fetch the equal
        residue sitting above the obstacle, resolve the triple, or --
        with no such residue -- push the descent pair to the front."""
        t, seq = st.focus, st.seq
        X, o = seq[t - 1], t - 1
        g = None
        for j in range(o - 1, 0, -1):
            if seq[j - 1] % self.e == X % self.e:
                g = j
                break
        if g is not None:
            between = seq[g:o - 1]
            if any(_adj(b, X, self.e) in (0, 1, self.e - 1)
                   for b in between):
                raise ObstacleClassification(
                    f"blocked gap placement of {X} in {seq}")
            cur = st
            for j in range(g, o - 1):   # move the upper copy to o - 1
                nxt = _State(cur.coeff, cur.left + (("psi", j),),
                             comb.swap_entries(cur.seq, j), t, False,
                             (("psi", j),) + cur.right)
                self.note("gap-placement", j, cur, [nxt])
                cur = nxt
            return self._triple(cur, o - 1)
        # no equal residue above: the pair migrates to the front
        for j, b in enumerate(seq[:o - 1], start=1):
            if _adj(b, X, self.e) in (0, 1, self.e - 1) or \
                    _adj(b, seq[o - 1], self.e) in (0, 1, self.e - 1):
                raise ObstacleClassification(
                    f"pair ({seq[o - 1]},{X}) blocked at position {j}")
        cur = st
        while cur.focus > 2:   # slide the pair leftwards
            f = cur.focus
            s2 = comb.swap_entries(comb.swap_entries(cur.seq, f - 2),
                                   f - 1)
            nxt = _State(cur.coeff,
                         cur.left + (("psi", f - 2), ("psi", f - 1)),
                         s2, f - 1, False,
                         (("psi", f - 1), ("psi", f - 2)) + cur.right)
            self.note("free-move", f - 2, cur, [nxt])
            cur = nxt
        rule = ("first-ascent" if cur.seq[0] % self.e in self.kappa
                else "first-residue")
        self.note(rule, 1, cur, [])
        return []

    def _triple(self, st: _State, r: int) -> list[_State]:
        """Pattern (X, X-1, X) at (r, r+1, r+2), where the braid rule
        gives (psi_r psi_{r+1} psi_r - psi_{r+1} psi_r psi_{r+1}) e = -e:
        e = psi_{r+1} psi_r [e(X,X,X-1)] psi_{r+1}
          - psi_r psi_{r+1} [e(X-1,X,X)] psi_r,
        the first term resolved at once by the double-residue rule."""
        seq = st.seq
        j1 = comb.swap_entries(seq, r)
        j2 = comb.swap_entries(seq, r + 1)
        if self.symbolic:
            dot = _State(st.coeff, (), j2, r, True, ())
            trav = _State(st.coeff, (), j1, r, False, ())
            self.note("triple-resolution", r, st, [dot, trav])
            return [dot, trav]
        trav = _State(-st.coeff, st.left + (("psi", r), ("psi", r + 1)),
                      j1, r, False, (("psi", r),) + st.right)
        pair = _State(st.coeff, st.left + (("psi", r + 1), ("psi", r)),
                      j2, r + 1, False, (("psi", r + 1),) + st.right)
        self.note("triple-resolution", r, st, [trav, pair])
        return [trav] + self._double(pair, r)


def straighten_dot(k: int, shape, mc: comb.Multicharge,
                   symbolic: bool = False) -> StraightenResult:
    """Certified expansion of ``y_k e(i^shape)``: a sum of words factoring
    through class idempotents of strictly dominating one-column shapes.
    For the balanced maximal shape the expansion is empty.  With
    ``symbolic=True`` the run only proves vanishing, using concatenation
    to discharge dotted branches by induction on the string count; this
    scales to large ``n`` but raises :class:`NotProvablyZero` whenever a
    nonzero terminal would be needed."""
    ilam = comb.i_lambda(shape, mc)
    eng = _Straightener(mc, shape=shape, symbolic=symbolic)
    eng.ibot = ilam
    eng.run(_State(1, (), ilam, k, True, ()))
    theta = comb.theta_zero(mc.l)
    for _, mus in eng.terms:
        for mu in mus:
            if not comb.strictly_dominates(mu, shape, theta):
                raise NotProvablyZero(
                    f"terminal shape {mu} does not dominate {shape}")
    eng.trace.terminal = [w.render() for w, _ in eng.terms] or ["0"]
    return StraightenResult(eng.terms, eng.trace)


def idempotent_vanishes(seq: Sequence[int],
                        mc: comb.Multicharge) -> Optional[RewriteTrace]:
    """Symbolic proof that ``e(seq) = 0``, driving the last residue
    leftwards; returns the trace, or ``None`` when ``seq`` is the class
    of a one-column shape (hence nonzero).  Raises
    :class:`NotProvablyZero` on sequences it cannot discharge."""
    seq = tuple(x % mc.e for x in seq)
    eng = _Straightener(mc, symbolic=True)
    if eng.class_shapes(seq):
        return None
    eng.run(_State(1, (), seq, len(seq), False, ()))
    eng.trace.terminal = ["0"]
    return eng.trace


# ---------------------------------------------------------------------------
# Garnir straightening
# ---------------------------------------------------------------------------


@dataclass
class GarnirResult:
    """Expansion of a cellular pair ``m_{S,T}`` with ``T`` non-standard:
    standard pairs ``(coeff, S', T')``, or zero with a symbolic trace."""

    terms: list
    trace: RewriteTrace
    passthrough: bool = False

    @property
    def zero(self) -> bool:
        return not self.terms and not self.passthrough


def straighten_garnir(S, G, mc: comb.Multicharge, basis=None,
                      theta=None) -> GarnirResult:
    """Expansion of ``m_{S,G}``.  Standard ``G`` passes through; when the
    class idempotent of ``G`` vanishes (always at the balanced maximal
    shape) the result is zero with a symbolic proof; otherwise the
    certified cellular basis is required and the expansion is read off
    there, with its support checked: pairs at the same shape keep ``S``
    and strictly dominate ``G``, all other pairs live at strictly
    dominating shapes."""
    shape = comb.shape_of(G)
    if theta is None:
        theta = comb.theta_zero(len(shape))
    trace = RewriteTrace()
    if comb.is_standard(G):
        trace.terminal = ["m(S,G) unchanged"]
        return GarnirResult([(1, S, G)], trace, passthrough=True)

    datum = comb.garnir_gamma(G)
    if datum is not None:
        gamma, _ = datum
        tilde = comb.tilde_garnir(shape, gamma)
        if comb.free_move_equivalent(G, tilde, mc):
            trace.add("free-move-normalization", 0,
                      SymbolicSequence(comb.residue_seq(G, mc)).render(),
                      SymbolicSequence(
                          comb.residue_seq(tilde, mc)).render())
            j = comb.entry_at(tilde, gamma)
            prefix = comb.residue_seq(tilde, mc)[:j]
            try:
                sub = idempotent_vanishes(prefix, mc)
            except (NotProvablyZero, ObstacleClassification):
                sub = None
            if sub is not None:
                trace.add("concatenation-reduction", j,
                          SymbolicSequence(
                              comb.residue_seq(tilde, mc)).render(),
                          SymbolicSequence(prefix).render())
                trace.steps.extend(sub.steps)
                trace.terminal = ["0"]
                return GarnirResult([], trace)

    if basis is None:
        raise NotProvablyZero(
            "nonzero Garnir expansion needs the certified cellular basis")
    return _garnir_oracle(S, G, mc, basis, theta, trace)


def _garnir_oracle(S, G, mc, basis, theta, trace) -> GarnirResult:
    images = basis.images
    p = images.p
    shape = comb.shape_of(G)
    ilam = basis.i_lam[shape]
    wS = tuple(reversed(basis.word[S]))
    wG = comb.official_word(comb.d_perm(G, theta))
    X = block_matmul([images.PSI[r] for r in wS] + [images.E[ilam]] +
                     [images.PSI[r] for r in wG], p)
    coeffs = basis.expand(
        matmul((images.C, images._apply(X, images._unit)), p))
    terms = []
    for idx, c in enumerate(coeffs):
        c = int(c)
        if c == 0:
            continue
        mu, Sp, Tp = basis.index[idx]
        if mu == shape:
            if Sp != S or not comb.tableau_strictly_dominates(Tp, G, theta):
                raise NotProvablyZero(
                    "expansion leaves the dominance support at the shape "
                    f"of G: pair ({Sp}, {Tp})")
        elif not comb.strictly_dominates(mu, shape, theta):
            raise NotProvablyZero(
                f"expansion meets non-dominating shape {mu}")
        terms.append((c, Sp, Tp))
    trace.add("oracle-expansion", 0,
              SymbolicSequence(comb.residue_seq(G, mc)).render(),
              f"{len(terms)} standard pairs")
    trace.terminal = [
        f"{c} * m(S',T') at shape {comb.shape_of(Sp)}" for c, Sp, _ in terms]
    return GarnirResult(terms, trace)
