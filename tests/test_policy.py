import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import simtkit as sk
from simtkit import (
    ConfigError,
    Distribution,
    DivergenceMatrix,
    FixedSuffix,
    MicroModel,
    OracleSuffix,
    PolicyConfig,
    RandomSuffix,
    TableModel,
    cosine_divergence,
    divergence_matrix,
    make_suffix,
    psfuture_divergence,
    simulate_sentence,
    simulate_waitk,
    suffix_from_name,
    threshold_path,
    waitk_g,
)
from simtkit.policy import EXHAUSTED, RMAX, THRESHOLD

from conftest import HashedModel, make_vocab


def _dist_strategy(size):
    return st.lists(st.floats(min_value=1e-6, max_value=10.0),
                    min_size=size, max_size=size).map(
        lambda raw: Distribution(np.asarray(raw) / np.sum(raw)))


# -- cosine divergence --------------------------------------------------------

def test_cosine_divergence_trivial_cases():
    assert cosine_divergence(Distribution([0.5, 0.5]), Distribution([0.5, 0.5])) == 0.0
    assert cosine_divergence(Distribution([1, 0]), Distribution([0, 1])) == 1.0


def test_cosine_divergence_arithmetic_oracle_value():
    # oracle: 1 - 0.56 / (sqrt(0.68) * sqrt(0.52)) = 0.05825808840516267
    got = cosine_divergence(Distribution([0.8, 0.2]), Distribution([0.6, 0.4]))
    expected = 1 - 0.56 / (math.sqrt(0.68) * math.sqrt(0.52))
    assert math.isclose(got, expected, rel_tol=0, abs_tol=1e-12)
    assert math.isclose(got, 0.05825808840516267, rel_tol=0, abs_tol=1e-9)


@settings(max_examples=300)
@given(st.integers(2, 20).flatmap(lambda n: st.tuples(_dist_strategy(n), _dist_strategy(n))))
def test_cosine_divergence_range_and_symmetry(pq):
    p, q = pq
    d = cosine_divergence(p, q)
    assert 0.0 <= d <= 1.0
    assert d == cosine_divergence(q, p)  # exact symmetry


@settings(max_examples=300)
@given(st.integers(1, 20).flatmap(lambda n: st.tuples(_dist_strategy(n), _dist_strategy(n))))
def test_cosine_divergence_is_bitwise_the_three_dot_formula(pq):
    p, q = pq

    def three_dots(a, b):
        num = float(np.dot(a.probs, b.probs))
        den = math.sqrt(float(np.dot(a.probs, a.probs)) * float(np.dot(b.probs, b.probs)))
        return min(max(1.0 - num / den, 0.0), 1.0)

    want = three_dots(p, q)
    # first calls fill each Distribution's kept norm, later ones read it
    for _ in range(2):
        assert cosine_divergence(p, q) == want == cosine_divergence(q, p)
        assert cosine_divergence(p, p) == 0.0 == three_dots(p, p)


# -- suffixes -----------------------------------------------------------------

def test_fixed_suffixes_from_registry():
    vocab = make_vocab()
    assert make_suffix(suffix_from_name("eos", vocab), vocab) == (vocab.eos,)
    assert make_suffix(suffix_from_name("unk-eos", vocab), vocab) == (vocab.unk, vocab.eos)
    # "..." is not in this vocab, so the ellipsis suffix degrades to UNK
    assert make_suffix(suffix_from_name("ellipsis-eos", vocab), vocab) == (vocab.unk, vocab.eos)
    custom = suffix_from_name("custom", vocab, tokens=["w0", "w1"])
    assert make_suffix(custom, vocab) == (3, 4, vocab.eos)


def test_fixed_suffix_must_end_with_eos():
    vocab = make_vocab()
    with pytest.raises(ConfigError):
        make_suffix(FixedSuffix((3, 4)), vocab)


def test_oracle_suffix_is_true_continuation():
    vocab = make_vocab()
    source = (3, 4, 5, 1)
    assert make_suffix(OracleSuffix(), vocab, full_source=source, j=2) == (5, 1)
    with pytest.raises(ConfigError):
        make_suffix(OracleSuffix(), vocab, full_source=source, j=4)
    with pytest.raises(ConfigError):
        make_suffix(OracleSuffix(), vocab)


def test_random_suffix_draws_fresh_and_in_rank_set():
    corpus = [[f"t{i}"] * (50 - i) for i in range(40)]
    vocab = sk.build_vocabulary(corpus)
    spec = RandomSuffix(count=4, top_k=10)
    rng = np.random.default_rng(3)
    allowed = set(vocab.top_ranked_ids(10))
    draws = [make_suffix(spec, vocab, rng) for _ in range(200)]
    assert all(len(d) == 4 for d in draws)
    assert set().union(*map(set, draws)) <= allowed
    assert len(set(draws)) > 1  # resampled per call
    with pytest.raises(ConfigError):
        make_suffix(RandomSuffix(count=4, top_k=999), vocab, rng)


def test_random_suffix_requires_an_rng():
    # without a caller-seeded rng the draws would come from OS entropy
    corpus = [[f"t{i}"] * (20 - i) for i in range(10)]
    vocab = sk.build_vocabulary(corpus)
    spec = RandomSuffix(count=4, top_k=5)
    source = (3, 4, 5, 6, vocab.eos)
    pair = sk.SentencePair(source=source, target=source)
    model = HashedModel(len(vocab), seed=1)
    with pytest.raises(ConfigError, match="rng"):
        make_suffix(spec, vocab)
    with pytest.raises(ConfigError, match="rng"):
        simulate_sentence(model, vocab, PolicyConfig(lam=0.2), spec, source)
    with pytest.raises(ConfigError, match="rng"):
        divergence_matrix(model, vocab, pair, spec)


BAD_SOURCES = pytest.mark.parametrize("source", [(), (5,), (5, 1, 6, 1), (99, 1)],
                                      ids=["empty", "no EOS", "inner EOS", "id out of range"])


@BAD_SOURCES
def test_simulate_sentence_checks_its_source_as_validate_pair_does(source):
    vocab = make_vocab()
    with pytest.raises(sk.CorpusError) as want:
        sk.validate_pair(sk.SentencePair(source=source, target=(5, 1)), vocab)
    with pytest.raises(sk.CorpusError) as got:
        simulate_sentence(HashedModel(len(vocab)), vocab, PolicyConfig(),
                          suffix_from_name("eos", vocab), source)
    assert str(got.value) == str(want.value)


@BAD_SOURCES
def test_waitk_and_divergence_check_their_input_as_validate_pair_does(source):
    vocab = make_vocab()
    model = HashedModel(len(vocab))
    pair = sk.SentencePair(source=source, target=(5, 1))
    with pytest.raises(sk.CorpusError) as want:
        sk.validate_pair(pair, vocab)
    with pytest.raises(sk.CorpusError) as waitk:
        simulate_waitk(model, vocab, 1, source)
    with pytest.raises(sk.CorpusError) as matrix:
        divergence_matrix(model, vocab, pair, suffix_from_name("eos", vocab))
    assert str(waitk.value) == str(matrix.value) == str(want.value)


def test_random_suffix_checked_when_named():
    corpus = [[f"t{i}"] * (20 - i) for i in range(7)]
    vocab = sk.build_vocabulary(corpus)
    assert suffix_from_name("random", vocab, random_count=1, random_top_k=7) == \
        RandomSuffix(count=1, top_k=7)
    with pytest.raises(ConfigError, match="random suffix count 0 must be >= 1"):
        suffix_from_name("random", vocab, random_count=0, random_top_k=7)
    with pytest.raises(ConfigError, match="top_k=200 exceeds 7 ranked tokens"):
        suffix_from_name("random", vocab)
    with pytest.raises(ConfigError, match="top_k=0 must be >= 1"):
        suffix_from_name("random", vocab, random_top_k=0)
    with pytest.raises(ConfigError, match="top_k=0 must be >= 1"):
        RandomSuffix(top_k=0)  # not only when named: make_suffix would draw from none


# -- the adaptive loop -----------------------------------------------------------

def _copy_setup(n, n_pairs=1, seed=5, vocab_size=8, fixed=True):
    spec = sk.SyntheticSpec(kind="copy", vocab_size=vocab_size,
                            n_range=(n, n) if fixed else n, n_pairs=n_pairs, seed=seed)
    return sk.generate_corpus(spec)


def hand_trace_three_token_copy(pair, n):
    """Independent transcript of the streaming procedure for the contract
    case: lambda >= 1 on a 3-token copy pair [c1, c2, EOS].

    step 1: j=2, write intent (any divergence <= lambda), greedy = c1 != EOS
            -> commit, g(1)=2
    step 2: j=2, write intent, greedy = c2 -> commit, g(2)=2
    step 3: j=2, write intent, greedy = EOS but j < N -> deferred, read, j=3
    step 4: j=3=N, forced write, greedy = EOS, j >= N -> commit, g(3)=3
    """
    assert n == 3
    return {
        "hypothesis": pair.target,
        "g_record": (2, 2, 3),
        "kinds": ["W", "W", "R", "W"],
        "reasons": [THRESHOLD, THRESHOLD, "EOS_DEFERRED", EXHAUSTED],
    }


def test_simulate_matches_three_token_hand_trace():
    vocab, pairs, model = _copy_setup(3)
    pair = pairs[0]
    expected = hand_trace_three_token_copy(pair, 3)
    cfg = PolicyConfig(lam=1.5, r_max=None, initial_prefix=2, max_target_len=16)
    for suffix_name in ("eos", "oracle"):  # the trace is suffix-independent
        sim = simulate_sentence(model, vocab, cfg,
                                suffix_from_name(suffix_name, vocab), pair.source)
        assert sim.hypothesis == expected["hypothesis"]
        assert sim.g_record == expected["g_record"]
        assert [r["kind"] for r in sim.trace] == expected["kinds"]
        assert [r.get("reason", THRESHOLD) for r in sim.trace] == expected["reasons"]
        assert not sim.truncated


def test_negative_lambda_degenerates_to_offline():
    vocab, pairs, model = _copy_setup(6, n_pairs=3, seed=8)
    cfg = PolicyConfig(lam=-1.0, r_max=None, initial_prefix=2, max_target_len=32)
    for pair in pairs:
        n = len(pair.source)
        sim = simulate_sentence(model, vocab, cfg, suffix_from_name("eos", vocab),
                                pair.source)
        assert sim.g_record == tuple([n] * len(pair.target))
        assert sim.hypothesis == pair.target
        assert sk.average_lagging(sim.g_record, n) == float(n)


class _SourceBlindModel:
    """Always predicts the same distribution; divergence is identically 0."""

    def __init__(self, n_vocab, peak):
        vec = np.full(n_vocab, 0.5 / (n_vocab - 1))
        vec[peak] = 0.5
        self._dist = Distribution(vec)

    def next_dist(self, source_prefix, target_prefix):
        return self._dist


def test_source_blind_model_writes_continuously():
    vocab = make_vocab()
    model = _SourceBlindModel(len(vocab), peak=4)
    cfg = PolicyConfig(lam=0.01, r_max=None, initial_prefix=2, max_target_len=10)
    sim = simulate_sentence(model, vocab, cfg, suffix_from_name("eos", vocab),
                            (3, 4, 5, 1))
    assert all(r["kind"] == "W" for r in sim.trace)
    assert all(r["divergence"] == 0.0 for r in sim.trace if "divergence" in r)
    assert sim.truncated and len(sim.hypothesis) == 10
    assert sim.g_record == tuple([2] * 10)


def test_threshold_boundary_writes_at_equality():
    # divergence is exactly 0.0, so lambda = 0.0 writes only under `<=`
    vocab = make_vocab()
    model = _SourceBlindModel(len(vocab), peak=4)
    cfg = PolicyConfig(lam=0.0, r_max=None, initial_prefix=2, max_target_len=3)
    sim = simulate_sentence(model, vocab, cfg, suffix_from_name("eos", vocab),
                            (3, 4, 5, 1))
    assert [(r["kind"], r["reason"], r["divergence"]) for r in sim.trace] == \
        [("W", THRESHOLD, 0.0)] * 3
    assert sim.g_record == (2, 2, 2)


def test_rmax_forces_writes_in_the_trace():
    vocab, pairs, model = _copy_setup(6, seed=3)
    pair = pairs[0]
    cfg = PolicyConfig(lam=-1.0, r_max=2, initial_prefix=2, max_target_len=16)
    sim = simulate_sentence(model, vocab, cfg, suffix_from_name("eos", vocab),
                            pair.source)
    assert [(r["kind"], r.get("reason")) for r in sim.trace] == [
        ("R", None), ("W", RMAX), ("R", None), ("R", None), ("W", RMAX),
        ("R", None)] + [("W", EXHAUSTED)] * 4
    assert all(r["divergence"] > cfg.lam for r in sim.trace if r["kind"] == "R")
    assert all("divergence" not in r for r in sim.trace if r["kind"] == "W")
    assert sim.g_record == (3, 5, 6, 6, 6, 6)
    assert sim.hypothesis == pair.target


def test_initial_prefix_is_clamped_and_never_reads_past_the_source():
    vocab = make_vocab()
    cfg = PolicyConfig(lam=0.5, initial_prefix=5, max_target_len=3)
    eos_only = suffix_from_name("eos", vocab)
    sim = simulate_sentence(_SourceBlindModel(len(vocab), peak=vocab.eos), vocab,
                            cfg, eos_only, (vocab.eos,))
    assert sim.trace == [{"step": 1, "kind": "W", "j": 1, "reason": EXHAUSTED,
                          "token": vocab.eos}]
    assert sim.g_record == (1,) and not sim.truncated
    sim = simulate_sentence(_SourceBlindModel(len(vocab), peak=4), vocab, cfg,
                            eos_only, (3, 1))
    assert [(r["kind"], r["j"], r["reason"]) for r in sim.trace] == [("W", 2, EXHAUSTED)] * 3
    assert sim.g_record == (2, 2, 2) and sim.truncated


class _QueryLog:
    """Records every query sent to a model; no memo."""

    def __init__(self, model):
        self.model = model
        self.queries = []

    def next_dist(self, source_prefix, target_prefix):
        self.queries.append((tuple(source_prefix), tuple(target_prefix)))
        return self.model.next_dist(source_prefix, target_prefix)


@pytest.mark.parametrize("suffix_name", ["eos", "oracle", "random"])
def test_each_decision_asks_the_plain_probe_once(suffix_name):
    corpus = [[f"w{i}"] * (20 - i) for i in range(8)]
    vocab = sk.build_vocabulary(corpus)
    suffix = suffix_from_name(suffix_name, vocab, random_count=2, random_top_k=8)
    reasons = set()
    for seed in range(12):
        rng = np.random.default_rng(seed)
        model = _QueryLog(HashedModel(len(vocab), seed=seed))
        source = tuple(int(x) for x in rng.integers(3, len(vocab), size=7)) + (vocab.eos,)
        cfg = PolicyConfig(lam=float(rng.uniform(0.0, 0.3)),
                           r_max=(None, 2, 3)[seed % 3], max_target_len=12)
        sim = simulate_sentence(model, vocab, cfg, suffix, source, rng=rng)
        # walk the trace: each decision asks (x_<=j, y) once, then the pseudo
        # probe (x_<=j + suffix, y) unless the write was forced
        queries = iter(model.queries)
        hyp = ()
        for rec in sim.trace:
            j = rec["j"]
            assert next(queries) == (source[:j], hyp)
            reason = rec.get("reason")
            reasons.add(reason)
            if reason not in (RMAX, EXHAUSTED):
                pseudo_source, pseudo_target = next(queries)
                assert pseudo_source[:j] == source[:j] and len(pseudo_source) > j
                assert pseudo_target == hyp
            if rec["kind"] == "W":
                hyp += (rec["token"],)
        assert next(queries, None) is None
        assert hyp == sim.hypothesis
    assert reasons == {None, THRESHOLD, "EOS_DEFERRED", RMAX, EXHAUSTED}


def test_divergence_deterministic_across_runs():
    vocab = make_vocab()
    model = MicroModel(vocab, d=16, max_len=16, seed=12)
    suffix = (vocab.unk, vocab.eos)
    a = psfuture_divergence(model, (3, 4, 5), (3,), suffix)
    b = psfuture_divergence(model, (3, 4, 5), (3,), suffix)
    assert a == b


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_termination_monotonicity_and_read_count(seed):
    rng = np.random.default_rng(seed)
    vocab = make_vocab(13)
    model = HashedModel(len(vocab), seed=seed)
    n = int(rng.integers(2, 12))
    source = tuple(int(x) for x in rng.integers(3, 16, size=n - 1)) + (vocab.eos,)
    cfg = PolicyConfig(
        lam=float(rng.uniform(-0.1, 1.0)),
        r_max=int(rng.integers(1, 6)) if rng.random() < 0.5 else None,
        initial_prefix=int(rng.integers(1, 4)),
        max_target_len=16,
    )
    sim = simulate_sentence(model, vocab, cfg, suffix_from_name("eos", vocab),
                            source, rng=np.random.default_rng(seed))
    # terminates within max_target_len + N decisions
    assert len(sim.trace) <= cfg.max_target_len + n
    # path monotone; reads + (clamped) initial prefix account for the cursor
    assert list(sim.g_record) == sorted(sim.g_record)
    reads = sum(1 for r in sim.trace if r["kind"] == "R")
    j_final = min(cfg.initial_prefix, n) + reads
    assert j_final <= n
    assert sim.g_record and sim.g_record[-1] == j_final
    # r_max honored in the trace
    if cfg.r_max is not None:
        run = best = 0
        for rec in sim.trace:
            run = run + 1 if rec["kind"] == "R" else 0
            best = max(best, run)
        assert best <= cfg.r_max


# -- graded-confidence model: non-trivial threshold monotonicity -----------------

def _graded_copy_model(vocab, content, eps_by_j):
    """Copy-style table whose confidence sharpens as more source arrives:
    entry (x_<=j, y_<t) = (1-eps_j) * delta(y_t) + eps_j * uniform.

    Greedy output equals the reference at every prefix length, so the
    divergence at (t, j) is independent of decoding history and threshold
    monotonicity must hold pointwise.
    """
    n_vocab = len(vocab)
    source = tuple(content) + (vocab.eos,)
    target = source
    entries = {}
    uni = np.full(n_vocab, 1.0 / n_vocab)
    for j in range(1, len(source) + 1):
        eps = eps_by_j[j]
        for t in range(1, len(target) + 1):
            vec = eps * uni.copy()
            vec[target[t - 1]] += 1.0 - eps
            entries[(source[:j], target[:t - 1])] = Distribution(vec)
    return TableModel(vocab, entries, Distribution(uni)), source, target


def test_threshold_monotonicity_on_graded_model():
    vocab = make_vocab()
    eps = {1: 0.9, 2: 0.55, 3: 0.25, 4: 0.0}
    model, source, target = _graded_copy_model(vocab, (3, 4, 5), eps)
    suffix = OracleSuffix()
    # divergence strictly decreases as j grows
    divs = [psfuture_divergence(model, source[:j], (),
                                make_suffix(suffix, vocab, full_source=source, j=j))
            for j in range(1, 4)]
    assert divs[0] > divs[1] > divs[2] > 0.0

    grid = [0.02, 0.05, 0.08, 0.1, 0.2, 0.4]
    records = []
    for lam in grid:
        cfg = PolicyConfig(lam=lam, r_max=None, initial_prefix=1, max_target_len=16)
        sim = simulate_sentence(model, vocab, cfg, suffix, source)
        assert sim.hypothesis == target
        records.append(sim.g_record)
    for lo, hi in zip(records, records[1:]):
        assert all(b <= a for a, b in zip(lo, hi))
    assert records[-1] != records[0]  # the sweep actually moves
    als = [sk.average_lagging(g, len(source)) for g in records]
    assert als == sorted(als, reverse=True)


# -- wait-k ----------------------------------------------------------------------

def test_waitk_g_examples():
    assert waitk_g(1, 3, 10) == 3
    assert waitk_g(9, 3, 10) == 10
    assert waitk_g(5, 1, 10) == 5
    with pytest.raises(ConfigError, match="^t=0 must be >= 1$"):
        waitk_g(0, 1, 1)


@pytest.mark.parametrize("k", [0, -2])
def test_simulate_waitk_names_a_bad_k(k):
    vocab, pairs, model = _copy_setup(4, seed=2)
    with pytest.raises(ConfigError, match=rf"^k={k} must be >= 1$"):
        simulate_waitk(model, vocab, k, pairs[0].source)


def test_simulate_waitk_hand_trace():
    vocab, pairs, model = _copy_setup(4, seed=2)
    pair = pairs[0]
    sim = simulate_waitk(model, vocab, 1, pair.source, max_target_len=16)
    assert sim.hypothesis == pair.target
    assert sim.g_record == (1, 2, 3, 4)
    sim = simulate_waitk(model, vocab, 9, pair.source, max_target_len=16)
    assert sim.g_record == tuple([4] * 4)  # k >= N: offline decoding
    vocab3, pairs3, model3 = _copy_setup(3, seed=4)
    sim = simulate_waitk(model3, vocab3, 2, pairs3[0].source, max_target_len=16)
    assert sim.g_record == (2, 3, 3)


# -- divergence matrices ------------------------------------------------------------

@pytest.mark.parametrize("bad", [np.nan, -0.1, 1.1])
def test_divergence_matrix_rejects_an_entry_outside_the_unit_interval(bad):
    with pytest.raises(ValueError, match=r"^divergence entries must lie in \[0, 1\]$"):
        DivergenceMatrix(values=np.array([[0.1, bad]]))
    assert DivergenceMatrix(values=np.array([[0.0, 1.0]])).values.tolist() == [[0.0, 1.0]]


def test_divergence_matrix_source_blind_all_zero():
    vocab = make_vocab()
    model = _SourceBlindModel(len(vocab), peak=4)
    pair = sk.SentencePair(source=(3, 4, 1), target=(3, 4, 1))
    mat = divergence_matrix(model, vocab, pair, suffix_from_name("eos", vocab))
    assert np.array_equal(mat.values, np.zeros((3, 3)))


def test_divergence_matrix_copy_oracle_cells_match_enumeration():
    vocab, pairs, model = _copy_setup(3)
    pair = pairs[0]
    mat = divergence_matrix(model, vocab, pair, OracleSuffix())
    n = len(pair.source)
    # independent cell-by-cell expectation from the language construction:
    # determined cells (g >= t, plus the fixed-length EOS row) diverge 0;
    # undetermined cells are uniform over the content alphabet vs a delta.
    k_content = len(vocab) - 3
    undetermined = 1 - 1 / math.sqrt(k_content)
    for t in range(1, n + 1):
        for g in range(1, n + 1):
            got = mat.values[t - 1, g - 1]
            if g >= t or t == n:  # t == n is the EOS row: length is pinned
                assert got == 0.0, (t, g)
            else:
                assert math.isclose(got, undetermined, abs_tol=1e-12), (t, g)


def test_threshold_path_is_monotone_staircase():
    vocab, pairs, model = sk.generate_corpus(
        sk.SyntheticSpec(kind="tail_first", vocab_size=8, n_range=(5, 5),
                         n_pairs=1, seed=3))
    pair = pairs[0]
    mat = divergence_matrix(model, vocab, pair, OracleSuffix())
    n = len(pair.source)
    # first row: high divergence for every g < N-1, dropping at N-1
    for g in range(1, n - 1):
        assert mat.values[0, g - 1] > 0.2
    assert mat.values[0, n - 2] == 0.0
    path = threshold_path(mat, lam=0.2)
    assert [t for t, _ in path] == list(range(1, n + 1))
    gs = [g for _, g in path]
    assert gs == sorted(gs)
    assert gs[0] == n - 1  # nothing writable before the last content token
