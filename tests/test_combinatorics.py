import itertools
import random

import pytest

from blobcell import combinatorics as C

TH0_2 = C.theta_zero(2)
TH0_3 = C.theta_zero(3)


def cols(*heights):
    return C.one_column_shape(heights)


class TestNodeOrder:
    def test_lower_row_smaller(self):
        assert C.node_cmp((2, 1, 1), (1, 1, 1), TH0_2) == "less"

    def test_component_tiebreak(self):
        # equal key: the LARGER component index is the smaller node
        assert C.node_cmp((1, 1, 2), (1, 1, 1), TH0_2) == "less"

    def test_separated_gap(self):
        th = (4, 0)  # theta_1 = 2n with n = 2
        assert C.node_cmp((1, 1, 2), (1, 1, 1), th) == "less"

    def test_total_on_column_one(self):
        th = (0, -1, 3)
        nodes = [(r, 1, m) for r in range(1, 6) for m in range(1, 4)]
        for a, b in itertools.combinations(nodes, 2):
            assert C.node_cmp(a, b, th) in ("less", "greater")

    def test_incomparable_off_column_one(self):
        assert C.node_cmp((1, 1, 1), (2, 2, 1), TH0_2) == "incomparable"


class TestDominance:
    def test_paper_chain_n3_l2(self):
        chain = [cols(0, 3), cols(3, 0), cols(1, 2), cols(2, 1)]
        for lo, hi in zip(chain, chain[1:]):
            assert C.dominates(hi, lo, TH0_2)
            assert not C.dominates(lo, hi, TH0_2)

    def test_reflexive(self):
        lam = cols(2, 1)
        assert C.dominates(lam, lam, TH0_2)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            C.dominates(cols(1, 1), cols(1, 0), TH0_2)

    def test_bijection_oracle(self):
        # counting condition == existence of an order-raising bijection
        for n in range(0, 6):
            for lam in C.one_column_shapes(n, 2):
                for mu in C.one_column_shapes(n, 2):
                    assert C.dominates(mu, lam, TH0_2) == \
                        C.exists_dominating_bijection(lam, mu, TH0_2)

    def test_bijection_oracle_l3(self):
        rnd = random.Random(7)
        th = (rnd.randint(-4, 4), rnd.randint(-4, 4), rnd.randint(-4, 4))
        for n in (3, 4):
            shapes = C.one_column_shapes(n, 3)
            for lam in shapes:
                for mu in shapes:
                    assert C.dominates(mu, lam, th) == \
                        C.exists_dominating_bijection(lam, mu, th)

    def test_poset_axioms(self):
        shapes = C.one_column_shapes(4, 3)
        for a in shapes:
            for b in shapes:
                if C.dominates(a, b, TH0_3) and C.dominates(b, a, TH0_3):
                    assert a == b
        for a, b, c in itertools.product(shapes, repeat=3):
            if C.dominates(a, b, TH0_3) and C.dominates(b, c, TH0_3):
                assert C.dominates(a, c, TH0_3)


class TestMuMax:
    def test_paper_examples(self):
        assert C.mu_max(7, 3) == cols(3, 2, 2)
        assert C.mu_max(22, 4) == cols(6, 6, 5, 5)

    def test_n_equals_l(self):
        assert C.mu_max(4, 4) == cols(1, 1, 1, 1)

    def test_is_maximum(self):
        for n, l in [(3, 2), (4, 2), (3, 3)]:
            mm = C.mu_max(n, l)
            th = C.theta_zero(l)
            for lam in C.one_column_shapes(n, l):
                assert C.dominates(mm, lam, th)

    def test_separated_maximum(self):
        for n, l in [(3, 2), (3, 3)]:
            mm = C.mu_max_sep(n, l)
            th = C.theta_sep(l, n)
            for lam in C.one_column_shapes(n, l):
                assert C.dominates(mm, lam, th)


class TestTLambda:
    def test_row_filling_zero_weighting(self):
        lam = cols(3, 3, 2)
        t = C.t_lambda(lam, TH0_3)
        assert t == (((1,), (4,), (7,)), ((2,), (5,), (8,)), ((3,), (6,)))

    def test_column_filling_separated(self):
        lam = cols(3, 3, 2)
        t = C.t_lambda(lam, C.theta_sep(3, 8))
        assert t == (((1,), (2,), (3,)), ((4,), (5,), (6,)), ((7,), (8,)))

    def test_singleton(self):
        assert C.t_lambda(cols(1, 0), TH0_2) == (((1,),), ())

    def test_entries_reverse_node_order(self):
        # T^lam(i) below T^lam(j) in the node order iff i > j
        lam = cols(2, 3, 1)
        t = C.t_lambda(lam, TH0_3)
        nm = C.node_map(t)
        n = C.shape_size(lam)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i > j:
                    assert C.node_lt(nm[i], nm[j], TH0_3)

    def test_maximal_in_both_orders(self):
        for lam in C.one_column_shapes(4, 2):
            for th in (TH0_2, C.theta_sep(2, 4)):
                tl = C.t_lambda(lam, th)
                for t in C.all_tableaux(lam):
                    assert C.tableau_dominates(tl, t, th)
                    if t != tl:
                        assert C.weak_less(t, tl, th)


class TestTableauOrders:
    # the displayed pair of shape ((1^4), {}, (1^3))
    T = (((1,), (4,), (5,), (7,)), (), ((2,), (3,), (6,)))
    S = (((1,), (5,), (4,), (6,)), (), ((3,), (2,), (7,)))

    def test_displayed_pair(self):
        assert C.is_standard(self.T)
        assert not C.is_standard(self.S)
        assert C.tableau_strictly_dominates(self.T, self.S, TH0_3)

    def test_equal(self):
        assert C.lex_cmp(self.T, self.T, TH0_3) == "equal"
        assert C.tableau_dominates(self.T, self.T, TH0_3)

    def test_weak_order_counterexample(self):
        mu = cols(3, 3, 2)
        t = (((1,), (6,), (5,)), ((2,), (4,), (8,)), ((3,), (7,)))
        s = (((1,), (6,), (5,)), ((2,), (7,), (8,)), ((3,), (4,)))
        assert C.tableau_strictly_dominates(t, s, TH0_3)
        assert not C.weak_less(s, t, TH0_3)

    def test_raising_step(self):
        # t(k) below t(k+1) implies t s_k strictly above t in the weak order
        lam = cols(2, 2)
        for t in C.all_tableaux(lam):
            nm = C.node_map(t)
            for k in range(1, 4):
                if C.node_lt(nm[k], nm[k + 1], TH0_2):
                    assert C.weak_less(t, C.apply_simple(t, k), TH0_2)

    def test_lex_refines_dominance(self):
        lam = cols(2, 2)
        for s in C.std_tableaux(lam):
            for t in C.std_tableaux(lam):
                if C.tableau_strictly_dominates(s, t, TH0_2):
                    assert C.lex_cmp(t, s, TH0_2) == "less"

    def test_shape_lex_extends(self):
        # adding any addable node moves a shape strictly up in lex order
        for lam in C.one_column_shapes(3, 2):
            for g in C.addable_nodes(lam):
                bigger = C.add_node(lam, g)
                assert C.shape_lex_cmp(lam, bigger, TH0_2) in ("less", "equal")


class TestPermutations:
    def test_official_word_reduced_and_lex_smallest(self):
        for w in itertools.permutations(range(1, 5)):
            word = C.official_word(w)
            assert C.perm_from_word(4, word) == w
            assert len(word) == C.perm_length(w)
            # oracle: enumerate all words of that length
            smaller = [wd for wd in itertools.product(range(1, 4),
                                                      repeat=len(word))
                       if wd < word and C.perm_from_word(4, wd) == w]
            assert not smaller

    def test_bruhat_matches_subword_oracle(self):
        perms = list(itertools.permutations(range(1, 5)))
        for u in perms:
            for w in perms:
                assert C.bruhat_leq(u, w) == C.bruhat_leq_subword(u, w)

    def test_d_perm_identity(self):
        # t^lam_theta has the empty crossing word, so the cellular basis
        # element m_{T^lam,T^lam} is e(i^lam) itself
        assert cols(2, 2) in C.one_column_shapes(4, 2)
        others = {2: [(0, 1), (1, 0), (0, 7)],
                  3: [(0, 3, 1), (0, 0, 1), (0, 2, 5)]}
        for n in range(1, 6):
            for l in range(1, 4):
                for th in [C.theta_zero(l), C.theta_sep(l, n)] + \
                        others.get(l, []):
                    for lam in C.one_column_shapes(n, l):
                        w = C.d_perm(C.t_lambda(lam, th), th)
                        assert w == tuple(range(1, n + 1)), (lam, th)
                        assert C.official_word(w) == (), (lam, th)

    def test_d_perm_recovers_tableau(self):
        lam = cols(2, 1, 1)
        tl = C.t_lambda(lam, TH0_3)
        for t in C.all_tableaux(lam):
            assert C.apply_perm(tl, C.d_perm(t, TH0_3)) == t


class TestEhresmann:
    def test_agreement_n4(self):
        rnd = random.Random(11)
        thetas = [TH0_2, C.theta_sep(2, 4),
                  (rnd.randint(-5, 5), rnd.randint(-5, 5)),
                  (rnd.randint(-5, 5), rnd.randint(-5, 5))]
        for lam in C.one_column_shapes(4, 2):
            for th in thetas:
                tabs = C.all_tableaux(lam)
                for s in tabs:
                    for t in tabs:
                        assert C.ehresmann_agree(s, t, th)


class TestStdTableaux:
    def test_two_maximal_tableaux(self):
        # non-one-column shape with two distinct dominance-maximal standard
        # tableaux (the displayed pair), so no unique maximum exists
        tabs = C.std_tableaux(((1,), (2,)))
        assert len(tabs) == 3
        maximal = [t for t in tabs
                   if not any(C.tableau_strictly_dominates(s, t, TH0_2)
                              for s in tabs)]
        assert sorted(maximal) == sorted([
            (((1,),), ((2, 3),)), (((3,),), ((1, 2),))])

    def test_empty(self):
        assert C.std_tableaux(((), ())) == [((), ())]

    def test_one_column_multinomial(self):
        import math
        for heights in [(2, 2), (3, 1), (2, 2, 1), (1, 1, 1)]:
            lam = cols(*heights)
            n = sum(heights)
            expect = math.factorial(n)
            for a in heights:
                expect //= math.factorial(a)
            tabs = C.std_tableaux(lam)
            assert len(tabs) == expect
            assert len(set(tabs)) == expect
            assert all(C.is_standard(t) for t in tabs)

    def test_count_without_listing(self):
        for l in (1, 2, 3):
            for n in range(7):
                for lam in C.one_column_shapes(n, l):
                    assert C.std_tableaux_count(lam) == \
                        len(C.std_tableaux(lam)), lam


class TestResidues:
    def test_n22_paper_sequence(self):
        mc = C.Multicharge((0, 2, 4, 7), 10)
        t = C.t_lambda(C.mu_max(22, 4), C.theta_zero(4))
        assert C.residue_seq(t, mc) == (0, 2, 4, 7, 9, 1, 3, 6, 8, 0, 2, 5,
                                        7, 9, 1, 4, 6, 8, 0, 3, 5, 7)

    def test_singleton(self):
        mc = C.Multicharge((0, 2), 5)
        assert C.residue_seq((((1,),), ()), mc) == (0,)

    def test_formula(self):
        mc = C.Multicharge((0, 2, 4), 7)
        t = C.t_lambda(cols(3, 3, 2), TH0_3)
        nm = C.node_map(t)
        for k, node in nm.items():
            r, c, m = node
            assert C.residue_seq(t, mc)[k - 1] == (mc.kappa[m - 1] + c - r) % 7


class TestStrongAdjacencyFree:
    def test_default_l2(self):
        assert C.is_strongly_adjacency_free(C.Multicharge((0, 7), 5), 2)

    def test_adjacent_residues_fail(self):
        assert not C.is_strongly_adjacency_free(C.Multicharge((0, 11), 5), 2)

    def test_paper_multicharge_n22(self):
        mc = C.Multicharge((0, 32, 64, 107), 10)
        assert mc.kappa == (0, 2, 4, 7)
        assert C.is_strongly_adjacency_free(mc, 22)

    def test_gap_too_small(self):
        assert not C.is_strongly_adjacency_free(C.Multicharge((0, 7), 5), 8)

    def test_wraparound_condition(self):
        # kappa = (0, 3) with e = 5: kappa_1 == kappa_2 + 2 mod 5 violates iii)
        assert not C.is_strongly_adjacency_free(C.Multicharge((0, 13), 5), 2)


class TestGarnir:
    def test_displayed_examples(self):
        g1 = (((2,), (1,)), ((3,), (5,), (6,), (7,)), ((4,),))
        g2 = (((3,), (2,)), ((4,), (5,), (6,), (7,)), ((1,),))
        g3 = (((1,), (6,), (12,), (15,)), ((2,), (7,), (13,)),
              ((3,), (11,), (10,)), ((4,), (8,), (14,)), ((5,), (9,)))
        for g in (g1, g2, g3):
            assert C.is_garnir(g)
            assert C.is_garnir_characterized(g)
        # same point of non-standardness, different Garnir tableaux
        assert C.garnir_gamma(g1)[0] == C.garnir_gamma(g2)[0]

    def test_classical_and_tilde_displays(self):
        lam = cols(3, 3, 3, 1, 3)
        gamma = (3, 1, 3)
        assert C.classical_garnir(lam, gamma) == (
            ((1,), (6,), (8,)), ((2,), (7,), (9,)), ((3,), (11,), (10,)),
            ((4,),), ((5,), (12,), (13,)))
        assert C.tilde_garnir(lam, gamma) == (
            ((1,), (6,), (11,)), ((2,), (7,), (12,)), ((3,), (9,), (8,)),
            ((4,),), ((5,), (10,), (13,)))

    def test_first_row_error(self):
        with pytest.raises(ValueError):
            C.classical_garnir(cols(2, 1), (1, 1, 1))

    def test_single_row_no_garnir(self):
        assert C.garnir_enumerate(cols(1, 1, 1)) == []

    def test_constructions_are_garnir(self):
        for lam in C.one_column_shapes(5, 2):
            for gamma in C.nodes_of_shape(lam):
                if gamma[0] == 1:
                    continue
                assert C.is_garnir(C.classical_garnir(lam, gamma))
                assert C.is_garnir(C.tilde_garnir(lam, gamma))

    def test_definition_equals_characterization(self):
        for n in range(2, 6):
            for lam in C.one_column_shapes(n, 2):
                for t in C.all_tableaux(lam):
                    assert C.is_garnir(t) == C.is_garnir_characterized(t)

    def test_weak_maximality_equivalence(self):
        th = TH0_2
        for lam in C.one_column_shapes(4, 2):
            tabs = C.all_tableaux(lam)
            nstd = [t for t in tabs if not C.is_standard(t)]
            for t in nstd:
                maximal = not any(s in C.weak_upset(t, th) for s in nstd)
                assert maximal == C.is_garnir(t)

    def test_dominance_maximal_implies_garnir_not_conversely(self):
        lam5 = cols(2, 2, 2, 2, 1)
        th5 = C.theta_zero(5)
        g1 = (((1,), (7,)), ((2,), (8,)), ((5,), (4,)), ((6,), (9,)), ((3,),))
        g2 = (((1,), (3,)), ((2,), (8,)), ((5,), (4,)), ((6,), (9,)), ((7,),))
        assert C.is_garnir(g1) and C.is_garnir(g2)
        assert C.tableau_strictly_dominates(g1, g2, th5)
        mc = C.Multicharge((0, 13, 26, 39, 52), 11)
        assert C.is_strongly_adjacency_free(mc, 9)
        assert C.residue_seq(g1, mc) != C.residue_seq(g2, mc)
        assert C.free_move_equivalent(g1, g2, mc)

    def test_dominance_maximal_subset_garnir(self):
        th = TH0_2
        for lam in C.one_column_shapes(4, 2):
            nstd = [t for t in C.all_tableaux(lam) if not C.is_standard(t)]
            for t in nstd:
                if not any(C.tableau_strictly_dominates(s, t, th)
                           for s in nstd):
                    assert C.is_garnir(t)

    def test_factorization(self):
        for n in range(2, 6):
            for lam in C.one_column_shapes(n, 2):
                for t in C.all_tableaux(lam):
                    if C.is_standard(t):
                        continue
                    fact = C.garnir_factorization(t)
                    assert fact is not None
                    g, w = fact
                    assert C.is_garnir(g)
                    assert C.apply_perm(g, w) == t
                    dt = C.d_perm(t, TH0_2)
                    dg = C.d_perm(g, TH0_2)
                    assert C.perm_length(dt) == \
                        C.perm_length(dg) + C.perm_length(w)

    def test_enumerate_matches_bruteforce(self):
        for lam in C.one_column_shapes(4, 3):
            brute = sorted(t for t in C.all_tableaux(lam) if C.is_garnir(t))
            listed = sorted(d.tableau for d in C.garnir_enumerate(lam))
            assert brute == listed


class TestShapePosets:
    def test_onepar_count(self):
        import math
        for n, l in [(3, 2), (4, 2), (3, 3), (2, 4)]:
            count = len(C.one_column_shapes(n, l))
            assert count == math.comb(n + l - 1, l - 1)

    def test_hasse_n3_l3_matches_display(self):
        A = cols(1, 1, 1); B = cols(2, 1, 0); Cc = cols(1, 2, 0)
        D = cols(2, 0, 1); E = cols(1, 0, 2); F = cols(0, 2, 1)
        G = cols(3, 0, 0); H = cols(0, 1, 2); I = cols(0, 3, 0)
        J = cols(0, 0, 3)
        expected = {(A, B), (B, Cc), (B, D), (Cc, E), (Cc, F), (D, E),
                    (D, F), (E, G), (E, H), (F, H), (G, I), (H, I), (I, J)}
        shapes = C.one_column_shapes(3, 3)
        assert len(shapes) == 10
        assert C.hasse_edges(shapes, TH0_3) == expected

    def test_residue_class_scan(self):
        # standard members of the class of T^lam sit strictly above it and
        # their shapes strictly dominate lam
        mc = C.Multicharge((0, 7), 5)
        n = 4
        assert C.is_strongly_adjacency_free(mc, n)
        one_col = set(C.one_column_shapes(n, 2))
        for lam in C.one_column_shapes(n, 2):
            tl = C.t_lambda(lam, TH0_2)
            ref = C.residue_seq(tl, mc)
            for mu in C.all_multipartitions(n, 2):
                for s in C.std_tableaux(mu):
                    if C.residue_seq(s, mc) != ref or s == tl:
                        continue
                    assert C.lex_cmp(tl, s, TH0_2) == "less"
                    if C.shape_of(s) in one_col:
                        assert C.strictly_dominates(C.shape_of(s), lam,
                                                    TH0_2)


class TestDegrees:
    def test_t_lambda_degree_zero(self):
        mc = C.Multicharge((0, 7), 5)
        for lam in C.one_column_shapes(3, 2):
            assert C.tableau_degree(C.t_lambda(lam, TH0_2), mc) == 0

    def test_degree_reduced_word_independent(self):
        # recompute via every reduced word, not just the official one
        mc = C.Multicharge((0, 7), 5)
        lam = cols(2, 1)
        iseq = C.i_lambda(lam, mc)
        for t in C.std_tableaux(lam):
            w = C.d_perm(t, TH0_2)
            target = C.word_degree(iseq, C.official_word(w), mc.e)
            n = C.perm_length(w)
            for word in itertools.product((1, 2), repeat=n):
                if C.perm_from_word(3, word) == w:
                    assert C.word_degree(iseq, word, mc.e) == target

    @pytest.mark.parametrize("i,terms", [
        ((1, 1), []),
        ((1, 2), [(1, (2,)), (-1, (1,))]),
        ((4, 0), [(1, (2,)), (-1, (1,))]),
        ((2, 1), [(1, (1,)), (-1, (2,))]),
        ((0, 4), [(1, (1,)), (-1, (2,))]),
        ((1, 3), [(1, ())])])
    def test_square_terms_are_homogeneous(self, i, terms):
        # psi_1^2 e(i) at e = 5, each term of degree 2 deg(psi_1 e(i))
        assert C.square_terms(i, 1, 5) == terms
        assert all(len(dots) == C.psi_degree(*i, 5) for _, dots in terms)
        assert C.square_terms((3,) + i, 2, 5) == [
            (c, tuple(k + 1 for k in dots)) for c, dots in terms]

    @pytest.mark.parametrize("i,sign", [
        ((2, 3, 2), 1), ((4, 0, 4), 1), ((2, 1, 2), -1), ((0, 4, 0), -1),
        ((2, 2, 2), 0), ((2, 4, 2), 0), ((2, 3, 1), 0), ((1, 3, 2), 0)])
    def test_braid_sign(self, i, sign):
        assert C.braid_sign(i, 1, 5) == sign
        assert C.braid_sign((0,) + i, 2, 5) == sign
