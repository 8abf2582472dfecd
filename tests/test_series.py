import hashlib
import itertools
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from pptoggle import series
from pptoggle.configurations import minimal_weight
from pptoggle.errors import DomainError, NonConvergenceError
from pptoggle.halfint import HalfInt
from pptoggle.oracle import partitions_up_to
from pptoggle.partitions import (as_partition, interlacers_above,
                                 interlacers_below, part, weight)
from pptoggle.series import (OperatorWord, TruncatedSeries, _evaluate_capped,
                             _size_limits, _state_cap, _successors,
                             apply_vertex_op, evaluate, evaluate_stable,
                             geometric, hook_product, initial_cutoff,
                             macmahon_series, macmahon_word, minimal_exponent,
                             one_leg_word, shape_word, step_op,
                             two_leg_spp_word, weigh_op)

H = HalfInt.halves


def S(bound, terms):
    return TruncatedSeries.from_terms(HalfInt.of(bound), terms)


def test_series_mul_basics():
    one = TruncatedSeries.one(HalfInt.of(5))
    s = S(5, [(0, 1), (1, 2), (2, 1)])
    assert one * s == s
    two = S(2, [(0, 1), (1, 1)])
    assert two * two == S(2, [(0, 1), (1, 2), (2, 1)])
    plus = S(2, [(0, 1), (H(1), 1)])
    minus = S(2, [(0, 1), (H(1), -1)])
    assert plus * minus == S(2, [(0, 1), (1, -1)])


def test_geometric():
    assert geometric(1, 3) == S(3, [(0, 1), (1, 1), (2, 1), (3, 1)])
    assert geometric(H(1), 1) == S(1, [(0, 1), (H(1), 1), (1, 1)])
    assert geometric(4, 3) == S(3, [(0, 1)])
    with pytest.raises(DomainError):
        geometric(0, 3)
    with pytest.raises(DomainError):
        geometric(H(-1), 3)


def test_apply_vertex_op_examples():
    # a uniform limit of degree 1 on every size up to the raise's cap of 2
    state = {(): TruncatedSeries.one(HalfInt.of(1))}
    out = apply_vertex_op(state, 1, H(1), [2] * 3)
    assert set(out) == {(), (1,), (2,)}
    assert out[()].pairs() == [[0, 1]]
    assert out[(1,)].pairs() == [[1, 1]]
    assert out[(2,)].pairs() == [[2, 1]]

    state = {(1,): TruncatedSeries.one(HalfInt.of(1))}
    out = apply_vertex_op(state, -1, H(1), [2] * 3)
    assert out[(1,)].pairs() == [[0, 1]]
    assert out[()].pairs() == [[1, 1]]


def test_apply_vertex_op_drops_cancelled_terms():
    # signed inputs that cancel at () leave no () state
    state = {(1,): TruncatedSeries(4, {0: 1}), (): TruncatedSeries(4, {0: -1})}
    out = apply_vertex_op(state, -1, 0, [4] * 4)
    assert set(out) == {(1,)}
    assert out[(1,)].pairs() == [[0, 1]]


def unpruned_step(state, sign, e2, bound2, cap):
    """apply_vertex_op without budgets or memo: every successor the plain
    generators give (raising capped by cap only), truncated afterwards."""
    out = {}
    for kappa, ser in state.items():
        w = weight(kappa)
        succ = (interlacers_above(kappa, cap - w) if sign == 1
                else interlacers_below(kappa))
        for mu in succ:
            delta = weight(mu) - w if sign == 1 else w - weight(mu)
            terms = out.setdefault(mu, {})
            for x, c in ser.coeffs.items():
                if x + e2 * delta <= bound2:
                    terms[x + e2 * delta] = terms.get(x + e2 * delta, 0) + c
    return {mu: TruncatedSeries(bound2, t) for mu, t in out.items()
            if any(t.values())}


small_partitions = st.builds(
    lambda xs: as_partition(sorted(xs, reverse=True)),
    st.lists(st.integers(min_value=1, max_value=4), max_size=4))


@given(st.dictionaries(small_partitions,
                       st.dictionaries(st.integers(-6, 20),
                                       st.integers(1, 3), max_size=4),
                       max_size=4),
       st.sampled_from([1, -1]), st.integers(-4, 5), st.integers(0, 14),
       st.integers(0, 6), st.integers(0, 6))
def test_apply_vertex_op_matches_unpruned_fold(terms, sign, e2, bound2,
                                               slack, size_cap):
    # states may carry terms past this step's bound, as they do mid-fold
    state = {k: TruncatedSeries(bound2 + slack, t) for k, t in terms.items()}
    # a uniform limit on every size up to the step's cap, which covers
    # every state, as a fold's table does
    cap = max([size_cap] + [weight(k) for k in state])
    limits = [bound2] * (cap + 1)
    got = apply_vertex_op(state, sign, HalfInt(e2), limits)
    want = unpruned_step(state, sign, e2, bound2, cap)
    assert ({k: (s.bound2, s.pairs()) for k, s in got.items()}
            == {k: (s.bound2, s.pairs()) for k, s in want.items()})
    assert _successors.cache_info().maxsize is not None


def untruncated_fold(word, cap):
    """Every path of states of size <= cap from ket to bra, with no degree
    truncation on the way."""
    state = {word.ket: {0: 1}}
    for op in reversed(word.ops):
        out = {}
        for kappa, terms in state.items():
            w = weight(kappa)
            if op[0] == "weigh":
                succ = [(kappa, op[1].doubled * w)]
            elif op[1] == 1:
                succ = [(mu, op[2].doubled * (weight(mu) - w))
                        for mu in interlacers_above(kappa, cap - w)]
            else:
                succ = [(mu, op[2].doubled * (w - weight(mu)))
                        for mu in interlacers_below(kappa)]
            for mu, d in succ:
                tgt = out.setdefault(mu, {})
                for x, c in terms.items():
                    tgt[x + d] = tgt.get(x + d, 0) + c
        state = out
    return state.get(word.bra, {})


word_ops = st.one_of(
    st.builds(lambda sign, e2: step_op(sign, HalfInt(e2)),
              st.sampled_from([1, -1]), st.integers(-5, 5)),
    st.builds(lambda t2: weigh_op(HalfInt(t2)), st.integers(-2, 2)))


tiny_partitions = st.builds(
    lambda xs: as_partition(sorted(xs, reverse=True)),
    st.lists(st.integers(min_value=1, max_value=2), max_size=2))


@given(st.lists(word_ops, max_size=5), tiny_partitions, tiny_partitions,
       st.integers(-2, 6))
@example([step_op(-1, H(5)), step_op(1, H(1))], (), (), 4)
@example([step_op(1, H(1)), step_op(-1, H(1))], (1,), (2,), 4)
def test_capped_fold_matches_untruncated_fold(ops, bra, ket, bound2):
    # the per-size limits must drop only terms that end past the bound,
    # whatever the signs of the exponents and weigh scales. In the first
    # example the lower still to come adds 5/2 per unit of size, so the
    # raise keeps only (); in the second the state (2) left by the lower
    # has no raise back down to the bra (1) and is dropped
    word = OperatorWord(tuple(ops), bra=bra, ket=ket)
    cap = max(0, bound2 // 2 + 1) + weight(bra) + weight(ket)
    want = TruncatedSeries(bound2, untruncated_fold(word, cap))
    limits = _size_limits(word, cap, bound2)
    assert _evaluate_capped(word, limits).pairs() == want.pairs()


def least_path_degree(ops, start: int, end: int, cap: int):
    """The least doubled degree over every sequence of sizes <= cap that
    runs from `start` through ops from the right to `end`: a raise may go to
    any size at or above, a lower to any at or below, each adding e times the
    change, and a weigh keeps the size and adds scale * size; None if no
    sequence gets there."""
    degrees = []
    for path in itertools.product(range(cap + 1), repeat=len(ops)):
        sizes, degree = (start,) + path, 0
        for op, s, t in zip(reversed(ops), sizes, sizes[1:]):
            if op[0] == "weigh":
                degree = None if t != s else degree + op[1].doubled * s
            elif (t - s) * op[1] >= 0:
                degree += op[2].doubled * abs(t - s)
            else:
                degree = None
            if degree is None:
                break
        if degree is not None and sizes[-1] == end:
            degrees.append(degree)
    return min(degrees, default=None)


@settings(deadline=None)
@given(st.lists(word_ops, max_size=5), tiny_partitions, st.integers(0, 4),
       st.integers(-2, 6))
def test_size_limits_match_every_size_path(ops, bra, cap, bound2):
    # limits[i][s] is bound2 less the least degree a path adds from size s
    # through ops[:i] to the bra, and -inf where no path gets there
    cap = max(cap, weight(bra))
    limits = _size_limits(OperatorWord(tuple(ops), bra=bra), cap, bound2)
    assert len(limits) == len(ops) + 1
    for i, lim in enumerate(limits):
        assert len(lim) == cap + 1
        for s, got in enumerate(lim):
            low = least_path_degree(ops[:i], s, weight(bra), cap)
            assert got == (float("-inf") if low is None else bound2 - low), (
                i, s)


# a raise, a weigh taking back half its exponent, and a lower: sum of q^(n/2)
HALF_STEPS = (step_op(-1, H(1)), weigh_op(H(-1)), step_op(1, H(1)))


@settings(deadline=None)
@given(st.lists(word_ops, max_size=5), tiny_partitions, tiny_partitions,
       st.integers(-2, 6))
@example(list(HALF_STEPS), (), (), 4)
@example([step_op(-1, 1), weigh_op(-1), step_op(1, 1)], (1,), (1,), 0)
def test_state_cap_holds_every_contributing_state(ops, bra, ket, bound2):
    # a convergent word's fold does not change with 6 more sizes; a word
    # reported divergent has paths of every size below one degree. The
    # second example's paths held at size 1 have degree -1, which widens
    # its cap to 2
    word = OperatorWord(tuple(ops), bra=bra, ket=ket)
    try:
        got = evaluate(word, HalfInt(bound2))
    except NonConvergenceError as exc:
        assert "unboundedly many" in str(exc)
        small = weight(bra) + weight(ket)
        top2 = small * sum(abs(op[-1].doubled) for op in ops)
        totals = [sum(_evaluate_capped(word, _size_limits(
                      word, small + k, top2)).coeffs.values())
                  for k in range(3)]
        assert totals[0] < totals[1] < totals[2]
        return
    cap = len(_state_cap(word, bound2)[0]) - 1
    wider = _evaluate_capped(word, _size_limits(word, cap + 6, bound2))
    assert got.pairs() == wider.pairs()


def test_layer_word_keeps_every_term():
    # each unit of size the raise adds costs 1/2 net, so states reach size
    # 2 * bound; a cap of bound + 1 stopped this series at q^(bound - 1/2)
    word = OperatorWord(HALF_STEPS)
    for bound in (2, 3):
        assert evaluate(word, bound) == geometric(H(1), bound)


def test_negative_lower_with_positive_layer_converges():
    # the lower's exponent is negative but each layer adds 3/2 - 1 > 0
    word = OperatorWord((step_op(-1, -1), step_op(1, H(3))))
    assert evaluate(word, 2) == geometric(H(1), 2)


def brute_valley_series(exponent, bound):
    """Chains empty -< mu >- empty, enumerated directly: the middle partition
    interlaces the empty one on both sides, so it has a single part k, and
    the two operators each mark q^(e*k)."""
    total: dict[int, int] = {}
    k = 0
    while 2 * exponent.doubled * k <= bound.doubled:
        total[2 * exponent.doubled * k] = 1
        k += 1
    return TruncatedSeries(bound.doubled, total)


def test_valley_pair_equals_geometric():
    word = OperatorWord((step_op(-1, H(1)), step_op(1, H(1))))
    got = evaluate(word, 3)
    assert got == geometric(1, 3)
    assert got == brute_valley_series(H(1), HalfInt.of(3))


def test_evaluate_empty_words():
    assert evaluate(OperatorWord(()), 4) == TruncatedSeries.one(HalfInt.of(4))
    assert evaluate(OperatorWord((), bra=(1,)), 4).is_zero()


def test_macmahon_coefficients():
    got = evaluate_stable("macmahon", None, 6)
    assert [got.coefficient(k) for k in range(7)] == [1, 1, 3, 6, 13, 24, 48]
    assert got == macmahon_series(6)


def test_one_leg_word_structure():
    word = one_leg_word((4, 2, 1), 5)
    ops = [(s, e.doubled) for _, s, e in word.ops]
    assert ops == [(-1, 9), (-1, 7), (1, -5), (-1, 3), (1, -1),
                   (-1, -1), (1, 3), (1, 5), (-1, -7), (1, 9)]
    # empty shape gives the plain box-counting word
    assert one_leg_word((), 4) == macmahon_word(4)
    assert shape_word("two-leg-spp", ((), ()), 4).ops == macmahon_word(4).ops


def test_shape_word_boundaries():
    w = two_leg_spp_word((2, 2), (3, 1), 3)
    assert w.bra == (2, 2) and w.ket == (3, 1)
    signs = [s for _, s, _ in w.ops]
    assert signs == [-1, -1, -1, 1, 1, 1]
    exps = [e.doubled for _, _, e in w.ops]
    assert exps == [5, 3, 1, 1, 3, 5]


def test_hook_product_examples():
    assert hook_product("plane", (), 0) == TruncatedSeries.one(HalfInt.of(0))
    hp = hook_product("plane", (), 6)
    assert [hp.coefficient(k) for k in range(7)] == [1, 1, 3, 6, 13, 24, 48]
    outside = hook_product("outside", (2, 1), 6)
    assert outside == evaluate_stable("one-leg", (2, 1), 6)


def test_one_leg_series_match_products():
    for lam in ((1,), (2, 2), (3, 1)):
        assert (evaluate_stable("one-leg", lam, 6)
                == hook_product("outside", lam, 6))


def test_two_leg_identity_small():
    m = macmahon_series(5)
    for lam, mu in itertools.product(((), (1,), (2,)), repeat=2):
        v = evaluate_stable("two-leg-spp", (lam, mu), 5)
        w = evaluate_stable("two-leg-rpp", (mu, lam), 5)
        assert v == m * w
        # the transpose symmetry on the decreasing side
        assert w == evaluate_stable("two-leg-rpp", (lam, mu), 5)


def test_truncation_keeps_min_of_bounds():
    a = S(4, [(0, 1), (4, 1)])
    b = S(2, [(0, 1)])
    assert (a * b).bound == HalfInt.of(2)
    assert (a * b).coefficient(4) == 0


def test_shape_word_rejects_bad_cutoff():
    with pytest.raises(DomainError):
        one_leg_word((1,), 0)
    # a word over the operator cap is refused before it is built
    over = series.MAX_WORD_OPS // 2 + 1
    for kind, legs in (("macmahon", ()), ("one-leg", (1,)),
                       ("two-leg-spp", ((1,), ())), ("two-leg-rpp", ((), (1,)))):
        with pytest.raises(DomainError, match="over the cap"):
            shape_word(kind, legs, over)


def test_one_leg_evaluation_against_enumerated_fillings():
    # the word evaluation equals M times the increasing-filling census
    from pptoggle.oracle import WeightCensus, census_series
    m = macmahon_series(8)
    for lam in ((1,), (2, 1), (2, 2), (3, 1)):
        rpp = census_series(WeightCensus.take("one-leg-rpp", lam, 8))
        assert evaluate_stable("one-leg", lam, 8) == m * rpp


def test_divergent_word_is_reported():
    # a raise at exponent zero admits unboundedly many states below any bound
    word = OperatorWord((step_op(-1, 0), step_op(1, 0)))
    with pytest.raises(NonConvergenceError):
        evaluate(word, 2)
    # net-free loops across a negative exponent diverge too
    word2 = OperatorWord((step_op(-1, HalfInt(-1)), step_op(1, HalfInt(1))))
    with pytest.raises(NonConvergenceError):
        evaluate(word2, 2)


def test_state_cap_counts_the_truncated_step(monkeypatch):
    # the stated cap of this word at bound 5 is 2, so the raise carries
    # 3 states forward, and MAX_STATES counts exactly those
    from pptoggle import series
    word = OperatorWord((step_op(-1, HalfInt(-3)), step_op(1, HalfInt(7))))
    want = evaluate(word, 5)
    assert want.coeffs == {0: 1, 4: 1, 8: 1}
    monkeypatch.setattr(series, "MAX_STATES", 3)
    assert evaluate(word, 5) == want
    monkeypatch.setattr(series, "MAX_STATES", 2)
    with pytest.raises(NonConvergenceError, match="holds 3 states"):
        evaluate(word, 5)


def test_state_cap_counts_after_truncation(monkeypatch):
    # at cap 6 the raise reaches 5 successors of () and the per-size limits
    # keep 3, so MAX_STATES must be checked against what the step carries
    # forward
    from pptoggle import series
    word = OperatorWord((step_op(-1, HalfInt(-3)), step_op(1, HalfInt(7))))
    limits = series._size_limits(word, 6, 10)
    monkeypatch.setattr(series, "MAX_STATES", 3)
    assert series._evaluate_capped(word, limits).coeffs == {0: 1, 4: 1, 8: 1}
    monkeypatch.setattr(series, "MAX_STATES", 2)
    with pytest.raises(NonConvergenceError, match="holds 3 states"):
        series._evaluate_capped(word, limits)


def test_state_cap_stops_a_step_as_it_grows(monkeypatch):
    # one raise from () over 101 sizes at exponent 0 has 101 successors,
    # each kept; the step stops as the sixth enters, not once all are built
    from pptoggle import series
    state = {(): TruncatedSeries(0, {0: 1})}
    assert len(apply_vertex_op(state, 1, 0, [0] * 101)) == 101
    monkeypatch.setattr(series, "MAX_STATES", 5)
    with pytest.raises(NonConvergenceError, match="holds 6 states"):
        apply_vertex_op(state, 1, 0, [0] * 101)


def test_successors_stop_at_the_state_cap(monkeypatch):
    # a memo entry holds at most MAX_STATES successors: () has 101 above it
    # within a size budget of 100, and the list stops as the sixth is built
    from pptoggle import series
    monkeypatch.setattr(series, "MAX_STATES", 5)
    _successors.cache_clear()
    with pytest.raises(NonConvergenceError, match="over the cap of 5"):
        _successors((), 1, 100)


def test_state_cap_counts_the_pruned_macmahon_fold(monkeypatch):
    # MacMahon's word at degree 12 carries at most 51 states forward once a
    # state keeps only the terms the rest of the word can bring within the
    # degree; truncating at the degree alone, it carried 102
    from pptoggle import series
    monkeypatch.setattr(series, "MAX_STATES", 51)
    assert evaluate_stable("macmahon", None, 12) == macmahon_series(12)
    monkeypatch.setattr(series, "MAX_STATES", 50)
    with pytest.raises(NonConvergenceError, match="holds 51 states"):
        evaluate_stable("macmahon", None, 12)


@pytest.mark.parametrize("kind, legs, bound, digest", [
    ("two-leg-spp", ((2, 1), (1, 1)), H(9), "f1ca00dc5e5b3996"),
    ("two-leg-rpp", ((2, 1), (1, 1)), H(9), "c8e2136a87a8212f"),
    ("one-leg", (3, 1), HalfInt.of(6), "376c6756ab85cd94"),
])
def test_evaluate_stable_golden_coefficients(kind, legs, bound, digest):
    pairs = evaluate_stable(kind, legs, bound).pairs()
    assert hashlib.sha256(json.dumps(pairs).encode()).hexdigest()[:16] == digest


def leg_pairs(max_weight):
    parts = partitions_up_to(max_weight)
    return st.tuples(st.sampled_from(parts), st.sampled_from(parts))


shape_cases = st.one_of(
    st.tuples(st.just("one-leg"), st.sampled_from(partitions_up_to(4))),
    st.tuples(st.sampled_from(["two-leg-spp", "two-leg-rpp"]), leg_pairs(3)))


@settings(max_examples=100, deadline=None)
@given(shape_cases, st.integers(0, 12))
def test_evaluate_stable_matches_doubled_cutoff(case, bound2):
    # one fold at the stated cutoff equals evaluate at twice the cutoff,
    # whose state cap is stated from the longer word
    kind, legs = case
    bound = HalfInt(bound2)
    doubled = shape_word(kind, legs, 2 * initial_cutoff(kind, legs, bound))
    assert evaluate_stable(kind, legs, bound) == evaluate(doubled, bound)


def test_two_leg_cutoff_does_not_depend_on_the_legs(monkeypatch):
    # the fountain's exponents do not depend on the legs, only the word's
    # bra and ket do, so neither a long part nor a long leg lengthens it:
    # the spy fails on a longer word before it is built
    degree, cutoffs = 2, []
    build = series.shape_word

    def spy(kind, legs, cutoff):
        assert cutoff <= degree, cutoff
        cutoffs.append(cutoff)
        return build(kind, legs, cutoff)

    monkeypatch.setattr(series, "shape_word", spy)
    for legs in (((10 ** 4,), (1,)), ((1,) * 6, (1, 1))):
        for kind in ("two-leg-spp", "two-leg-rpp"):
            evaluate_stable(kind, legs, degree)
    assert len(cutoffs) == 4


def stated_cutoff_grid():
    """(kind, legs, bound2): MacMahon to bound2 24, one-leg shapes of weight
    <= 4 and leg pairs of weight <= 2 to bound2 12."""
    pairs = itertools.product(partitions_up_to(2), repeat=2)
    return ([("macmahon", None, b) for b in range(25)]
            + [("one-leg", lam, b) for lam in partitions_up_to(4)
               for b in range(13)]
            + [(kind, legs, b) for legs in pairs
               for kind in ("two-leg-spp", "two-leg-rpp") for b in range(13)])


def test_stated_cutoff_matches_the_generous_one():
    # the cutoff stated from the degree folds the same series as the
    # 2 * degree + extent + 2 that it replaced
    for kind, legs, bound2 in stated_cutoff_grid():
        bound, degree = HalfInt(bound2), (bound2 + 1) // 2
        extent = part(legs, 1) + len(legs) if kind == "one-leg" else 0
        generous = shape_word(kind, legs, 2 * degree + extent + 2)
        assert (evaluate_stable(kind, legs, bound) == evaluate(generous, bound)
                ), (kind, legs, bound2)


def test_stated_cutoff_is_tight():
    # one operator pair less changes the series for some case of each kind
    short = set()
    for kind, legs, bound2 in stated_cutoff_grid():
        bound = HalfInt(bound2)
        cutoff = initial_cutoff(kind, legs, bound)
        if kind not in short and cutoff > 1 and (
                evaluate(shape_word(kind, legs, cutoff - 1), bound)
                != evaluate_stable(kind, legs, bound)):
            short.add(kind)
    assert short == {"macmahon", "one-leg", "two-leg-spp", "two-leg-rpp"}


def test_floor_table_over_the_cap_is_refused(monkeypatch):
    # the table holds (operators + 1) * (cap + 1) entries, counted before
    # it is built
    word = macmahon_word(2)
    monkeypatch.setattr(series, "MAX_FLOOR_ENTRIES", 5 * 4)
    assert len(series._size_limits(word, 3, 0)) == 5
    with pytest.raises(DomainError, match="floor table .* over the cap of 20"):
        series._size_limits(word, 4, 0)
    with pytest.raises(DomainError, match="over the cap"):
        evaluate_stable("macmahon", None, 4)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["spp", "rpp"]), leg_pairs(5))
def test_minimal_exponent_is_minimal_weight(kind, legs):
    assert minimal_exponent(kind, legs) == minimal_weight(kind, legs)
