"""Tests for the symbolic rewrite engine: word validation, local rule
soundness against the matrix representation, concatenation, dot
straightening (exact and symbolic), idempotent vanishing, and Garnir
straightening."""

import itertools
import json

import numpy as np
import pytest

from blobcell import blob as B
from blobcell import combinatorics as C
from blobcell import hecke as H
from blobcell import klrcalc as K
from blobcell.exactfield import block_equal, block_matmul
from conftest import dense_generators

SCALES = [(2, 2), (3, 2), (2, 3)]

# a strongly adjacency-free multicharge on 22 strings, four components
MC22 = C.Multicharge((0, 22, 44, 67), 10)
N22 = 22


@pytest.fixture(scope="module")
def built():
    out = {}
    for n, l in SCALES:
        params = H.default_params(n, l)
        A = B.build_blob(params)
        images = B.klr_images(A)
        basis = B.build_cellular_basis(A, images)
        out[(n, l)] = (params, A, images, basis)
    return out


class TestDiagramWord:
    def test_validation(self):
        w = K.DiagramWord(1, (("psi", 1), ("e", (1, 0)), ("psi", 1)), (0, 1))
        assert w.top == (0, 1)
        assert w.profiles() == [(0, 1), (1, 0), (1, 0), (0, 1)]
        with pytest.raises(ValueError):
            # idempotent inconsistent with the residue profile below it
            K.DiagramWord(1, (("e", (0, 1)), ("psi", 1)), (0, 1))
        with pytest.raises(ValueError):
            K.DiagramWord(1, (("psi", 2),), (0, 1))   # index out of range
        with pytest.raises(ValueError):
            K.DiagramWord(1, (("y", 3),), (0, 1))

    def test_render(self):
        w = K.DiagramWord(-2, (("y", 1), ("psi", 1)), (0, 2))
        assert w.render() == "-2 * y_1 psi_1 e(0,2)"

    def test_evaluate_missing_class_is_zero(self, built):
        params, A, images, _ = built[(2, 2)]
        w = K.DiagramWord(1, (), (1, 1))   # not a realized class
        assert w.evaluate(images) == {}


class TestSymbolicSequence:
    def test_render_rows_and_dots(self):
        s = K.SymbolicSequence((0, 2, 4, 7, 9, 1), dots=(5,), rows=(4, 2))
        assert s.render() == "(0,2,4,7 | 9.,1)"
        assert K.SymbolicSequence((2, 1, 0)).render() == "(2,1,0)"

    def test_trace_json_round_trip(self):
        tr = K.RewriteTrace()
        tr.add("free-move", 2, "(2,0.,1)", "(0.,2,1)")
        tr.terminal = ["0"]
        data = json.loads(tr.to_json())
        assert data["steps"][0] == {"rule": "free-move", "position": 2,
                                    "before": "(2,0.,1)",
                                    "after": "(0.,2,1)"}
        assert data["terminal"] == ["0"]


class TestLocalRules:
    def test_dot_past_distant_crossing(self, built):
        params, _, _, _ = built[(3, 2)]
        iseq = (0, 2, 1)
        w = K.DiagramWord(1, (("psi", 1), ("y", 3)), iseq)
        out = K.local_rewrite(w, "commute", 0, params.mc)
        assert len(out) == 1 and out[0].coeff == 1
        assert out[0].tokens == (("y", 3), ("psi", 1))

    def test_crossing_square_equal_residues_is_zero(self):
        mc = C.Multicharge((0, 22), 10)
        # equal residues on the crossed strands: psi^2 e = 0
        w = K.DiagramWord(1, (("psi", 1), ("psi", 1)), (0, 0))
        assert K.local_rewrite(w, "crossing-square", 0, mc) == []

    def test_first_residue_zero(self, built):
        params, _, images, _ = built[(3, 2)]
        iseq = (1, 2, 0)   # first residue outside the multicharge
        w = K.DiagramWord(1, (), iseq)
        assert K.local_rewrite(w, "first-residue", 0, params.mc) == []
        assert iseq not in images.E

    def test_pattern_mismatch(self, built):
        params, _, _, _ = built[(3, 2)]
        w = K.DiagramWord(1, (("y", 2), ("psi", 1)), (0, 2, 1))
        # y_2 does not commute freely past psi_1
        with pytest.raises(K.PatternMismatch):
            K.local_rewrite(w, "commute", 0, params.mc)
        with pytest.raises(K.PatternMismatch):
            K.local_rewrite(w, "braid", 0, params.mc)
        with pytest.raises(K.PatternMismatch):
            K.local_rewrite(w, "no-such-rule", 0, params.mc)

    def test_rules_sound_against_matrices(self, built):
        """Every applicable rule application preserves the matrix value,
        exhaustively over short words above every realized class."""
        params, A, images, _ = built[(3, 2)]
        mc, p = params.mc, params.p
        pool = [("psi", 1), ("psi", 2), ("y", 1), ("y", 2), ("y", 3)]
        applied = 0
        for iseq in images.E:
            pool_e = pool + [("e", iseq)]
            for m in range(1, 4):
                for tokens in itertools.product(pool_e, repeat=m):
                    try:
                        w = K.DiagramWord(1, tokens, iseq)
                    except ValueError:
                        continue
                    before = w.evaluate(images)
                    for rule in K.RULES:
                        for pos in range(len(tokens) + 1):
                            try:
                                out = K.local_rewrite(w, rule, pos, mc)
                            except K.PatternMismatch:
                                continue
                            after = K.evaluate_sum(out, images)
                            assert block_equal(before, after, p), (
                                iseq, tokens, rule, pos)
                            applied += 1
        assert applied > 1000   # the loop genuinely exercised the rules


class TestConcatenate:
    def test_extends_bottom_and_idempotents(self):
        w = K.DiagramWord(2, (("psi", 1), ("e", (0, 2)), ("y", 1)), (0, 2))
        out = K.concatenate(w, 1)
        assert out.ibot == (0, 2, 1)
        assert out.tokens == (("psi", 1), ("e", (0, 2, 1)), ("y", 1))
        assert out.coeff == 2

    def test_multiplicative_oracle(self, built):
        """Concatenation is an algebra map: certified on products of
        random short words, comparing matrices at 2 and 3 strings."""
        p2, _, im2, _ = built[(2, 2)]
        p3, _, im3, _ = built[(3, 2)]
        assert p2.mc.kappa == p3.mc.kappa and p2.e == p3.e
        rng = np.random.default_rng(7)
        pool = [("psi", 1), ("y", 1), ("y", 2)]
        words = []
        for iseq in im2.E:
            for _ in range(8):
                m = rng.integers(0, 3)
                toks = tuple(pool[j] for j in rng.integers(0, 3, size=m))
                words.append(K.DiagramWord(1, toks, iseq))
        for a in words:
            for b in words:
                if b.top != a.ibot:
                    continue
                prod = K.DiagramWord(
                    a.coeff * b.coeff,
                    a.tokens + (("e", a.ibot),) + b.tokens, b.ibot)
                lhs = K.concatenate(prod, 1).evaluate(im3)
                rhs = block_matmul((K.concatenate(a, 1).evaluate(im3),
                                    K.concatenate(b, 1).evaluate(im3)), p3.p)
                assert block_equal(lhs, rhs, p3.p)

    def test_zero_maps_to_zero(self, built):
        p2, _, im2, _ = built[(2, 2)]
        p3, _, im3, _ = built[(3, 2)]
        dead = next(s for s in [(1, 0), (1, 1), (3, 4)] if s not in im2.E)
        w = K.DiagramWord(1, (), dead)
        assert w.evaluate(im2) == {}
        assert K.concatenate(w, 1).evaluate(im3) == {}


class TestStandardClasses:
    def test_matches_tableau_enumeration(self, built):
        for n, l in SCALES:
            params, _, _, _ = built[(n, l)]
            mc = params.mc
            by_seq = {}
            for mu in C.one_column_shapes(n, l):
                for T in C.std_tableaux(mu):
                    by_seq.setdefault(C.residue_seq(T, mc), set()).add(mu)
            for seq, shapes in by_seq.items():
                assert set(K.standard_class_shapes(seq, mc)) == shapes
            # a sequence realized by no standard tableau yields nothing
            assert K.standard_class_shapes((1,) * n, mc) == ()

    def test_shared_class_across_shapes(self, built):
        # small multicharges can realize one class in two shapes
        params, _, _, _ = built[(3, 2)]
        shapes = K.standard_class_shapes((2, 1, 0), params.mc)
        assert len(shapes) == 2


class TestStraightenDot:
    def test_exact_expansion_oracle(self, built):
        """y_k e(i^lambda) equals the emitted expansion in the faithful
        representation, for every one-column shape and every dot."""
        for n, l in SCALES:
            params, A, images, _ = built[(n, l)]
            mc, p = params.mc, params.p
            gens = dense_generators(images)
            mumax = C.mu_max(n, l)
            theta = C.theta_zero(l)
            for shape in C.one_column_shapes(n, l):
                ilam = C.i_lambda(shape, mc)
                for k in range(1, n + 1):
                    res = K.straighten_dot(k, shape, mc)
                    lhs = gens.Y[k] @ gens.E[ilam] % p
                    rhs = K.evaluate_sum([w for w, _ in res.terms], images)
                    assert np.array_equal(images.dense(rhs), lhs), \
                        (n, l, shape, k)
                    for _, mus in res.terms:
                        assert all(C.strictly_dominates(mu, shape, theta)
                                   for mu in mus)
                    if shape == mumax:
                        assert res.zero

    def test_symbolic_agrees_with_exact_at_small_scale(self, built):
        for n, l in SCALES:
            params, _, _, _ = built[(n, l)]
            mumax = C.mu_max(n, l)
            for k in range(1, n + 1):
                assert K.straighten_dot(k, mumax, params.mc,
                                        symbolic=True).zero

    def test_balanced_maximal_shape_at_22_strings(self):
        """y_k e(i^max) = 0 for every dot, proven symbolically; the first
        four dots need only the first-row argument, the fifth needs the
        dot-jump."""
        assert C.is_strongly_adjacency_free(MC22, N22)
        shape = C.mu_max(N22, 4)
        assert C.i_lambda(shape, MC22)[:5] == (0, 2, 4, 7, 9)
        first_row_rules = {"concatenation-reduction", "dot-at-start",
                           "free-move"}
        for k in range(1, N22 + 1):
            res = K.straighten_dot(k, shape, MC22, symbolic=True)
            assert res.zero, k
            rules = {s.rule for s in res.trace.steps}
            if k <= 4:
                assert rules <= first_row_rules, (k, rules)
            if k == 5:
                assert "dot-jump" in rules

    def test_trace_is_replayable_json(self):
        res = K.straighten_dot(5, C.mu_max(N22, 4), MC22, symbolic=True)
        data = json.loads(res.trace.to_json())
        assert data["terminal"] == ["0"]
        assert all({"rule", "position", "before", "after"} <= set(s)
                   for s in data["steps"])
        assert any("|" in s["before"] for s in data["steps"])


class TestIdempotentVanishing:
    def test_concatenation_corollary_at_22_strings(self):
        """e(i^max . iota) survives exactly for the four residues that
        extend a column of the balanced maximal shape."""
        imax = C.i_lambda(C.mu_max(N22, 4), MC22)
        surviving = set()
        for iota in range(MC22.e):
            try:
                tr = K.idempotent_vanishes(imax + (iota,), MC22)
            except K.NotProvablyZero:
                surviving.add(iota)
                continue
            if tr is None:
                surviving.add(iota)
        assert surviving == {2, 4, 6, 9}

    def test_exhaustive_verdicts_match_realized_classes(self, built):
        """Sound on every short sequence: 'realized' iff the class
        idempotent is nonzero in the faithful representation, and every
        zero proof names a genuinely vanishing idempotent."""
        for n, l in SCALES:
            params, _, images, _ = built[(n, l)]
            mc, e = params.mc, params.e
            alphabet = sorted({(k - j) % e
                               for k in mc.kappa for j in range(n)})
            for seq in itertools.product(alphabet, repeat=n):
                try:
                    tr = K.idempotent_vanishes(seq, mc)
                except K.NotProvablyZero:
                    assert seq not in images.E, seq
                    continue
                assert (tr is None) == (seq in images.E), seq


POLY_P, POLY_DEG = 13, 8


@pytest.fixture(scope="module")
def two_string_model():
    """Polynomial representation of the two-string algebra on equal
    residues: dots multiply by the variables, the crossing acts as the
    negated divided-difference operator; truncated above POLY_DEG, so
    identities are compared away from the truncation boundary."""
    monos = [(a, b) for a in range(POLY_DEG) for b in range(POLY_DEG)
             if a + b < POLY_DEG]
    idx = {m: i for i, m in enumerate(monos)}
    D = len(monos)
    Y1 = np.zeros((D, D), dtype=np.int64)
    Y2 = np.zeros((D, D), dtype=np.int64)
    PSI = np.zeros((D, D), dtype=np.int64)
    for (a, b), i in idx.items():
        if (a + 1, b) in idx:
            Y1[idx[(a + 1, b)], i] = 1
        if (a, b + 1) in idx:
            Y2[idx[(a, b + 1)], i] = 1
        sgn = -1 if a > b else 1
        for j in range(min(a, b), max(a, b)):
            k = idx[(j, a + b - 1 - j)]
            PSI[k, i] = (PSI[k, i] + sgn) % POLY_P
    low = [i for (a, b), i in idx.items() if a + b <= POLY_DEG - 4]
    return Y1, Y2, PSI, np.eye(D, dtype=np.int64), low


class TestTwoStringIdentity:
    """The two-string expansion used on equal adjacent residues."""

    @staticmethod
    def eq(lhs, rhs, low):
        return not ((lhs - rhs) % POLY_P)[:, low].any()

    def test_defining_relations(self, two_string_model):
        Y1, Y2, PSI, I, low = two_string_model
        assert self.eq(PSI @ PSI, 0 * I, low)
        assert self.eq(PSI @ Y2, Y1 @ PSI + I, low)
        assert self.eq(Y2 @ PSI, PSI @ Y1 + I, low)
        assert self.eq(PSI @ Y1, Y2 @ PSI - I, low)

    def test_three_term_identity(self, two_string_model):
        # e = y psi [y e] psi - psi y [y e] psi - psi [y e]
        Y1, _, PSI, I, low = two_string_model
        rhs = (Y1 @ PSI @ Y1 @ PSI - PSI @ Y1 @ Y1 @ PSI - PSI @ Y1)
        assert self.eq(I, rhs, low)


class TestStraightenGarnir:
    def test_standard_tableau_passes_through(self, built):
        params, _, _, _ = built[(3, 2)]
        shape = ((1,), (1, 1))
        S, *rest = C.std_tableaux(shape)
        for T in [S] + rest:
            res = K.straighten_garnir(S, T, params.mc)
            assert res.passthrough and res.terms == [(1, S, T)]

    def test_counts_and_zero_proofs(self, built):
        """Every Garnir tableau straightens; the proven-zero cases really
        give a vanishing element of the faithful representation."""
        expected = {(3, 2): (6, 1), (2, 3): (3, 0)}
        for n, l in SCALES:
            params, A, images, basis = built[(n, l)]
            mc, p = params.mc, params.p
            gens = dense_generators(images)
            theta = C.theta_zero(l)
            zero = nonzero = 0
            for shape in C.one_column_shapes(n, l):
                stds = C.std_tableaux(shape)
                for datum in C.garnir_enumerate(shape):
                    S = stds[0]
                    res = K.straighten_garnir(S, datum.tableau, mc,
                                              basis=basis)
                    assert not res.passthrough
                    if res.zero:
                        zero += 1
                        v = (gens.psi_of(tuple(reversed(basis.word[S])))
                             @ gens.E[basis.i_lam[shape]]
                             @ gens.psi_of(C.official_word(
                                 C.d_perm(datum.tableau, theta)))
                             @ A.unit) % p
                        assert not v.any()
                    else:
                        nonzero += 1
                        for c, Sp, Tp in res.terms:
                            assert C.is_standard(Sp) and C.is_standard(Tp)
            if (n, l) in expected:
                assert (zero, nonzero) == expected[(n, l)]

    def test_nonzero_expansion_matches_oracle(self, built):
        """The emitted standard pairs reproduce m_{S,G} exactly in the
        cellular basis."""
        params, A, images, basis = built[(3, 2)]
        mc, p = params.mc, params.p
        gens = dense_generators(images)
        theta = C.theta_zero(2)
        hits = 0
        for shape in C.one_column_shapes(3, 2):
            stds = C.std_tableaux(shape)
            for datum in C.garnir_enumerate(shape):
                for S in stds:
                    res = K.straighten_garnir(S, datum.tableau, mc,
                                              basis=basis)
                    if res.zero:
                        continue
                    hits += 1
                    v = (gens.psi_of(tuple(reversed(basis.word[S])))
                         @ gens.E[basis.i_lam[shape]]
                         @ gens.psi_of(C.official_word(
                             C.d_perm(datum.tableau, theta)))
                         @ A.unit) % p
                    w = np.zeros_like(v)
                    for c, Sp, Tp in res.terms:
                        col = basis.matrix[:, basis.column[(Sp, Tp)]]
                        w = (w + c * col) % p
                    assert (v % p == w).all()
        assert hits >= 1

    def test_garnir_class_free_move_invariance(self, built):
        """The Garnir tableau and its snake normal form lie in one free-
        move class, so the vanishing verdict is class-invariant."""
        for n, l in SCALES:
            params, _, _, basis = built[(n, l)]
            mc = params.mc
            for shape in C.one_column_shapes(n, l):
                for datum in C.garnir_enumerate(shape):
                    tilde = C.tilde_garnir(shape, datum.gamma)
                    assert C.free_move_equivalent(datum.tableau, tilde, mc)
                    S = C.std_tableaux(shape)[0]
                    a = K.straighten_garnir(S, datum.tableau, mc,
                                            basis=basis)
                    b = K.straighten_garnir(S, tilde, mc, basis=basis)
                    assert a.zero == b.zero
