import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from simtkit import (
    BIDIRECTIONAL,
    CapacityError,
    ConfigError,
    Distribution,
    MicroModel,
    ModelFileError,
    NumericError,
    PolicyConfig,
    SentencePair,
    SweepSpec,
    UNIDIRECTIONAL,
    build_vocabulary,
    divergence_matrix,
    load_model,
    run_sweep,
    save_model,
    sgd_step,
    simulate_sentence,
    suffix_from_name,
)

import pair_oracle
from conftest import make_vocab
from simtkit.micro import ATTN_BLOCKS, _log_softmax_nll


def small_model(mode=BIDIRECTIONAL, seed=3, d=8):
    return MicroModel(make_vocab(8), d=d, max_len=12, mode=mode, seed=seed)


def test_zeroed_output_projection_gives_uniform():
    m = small_model()
    m.params["out_proj"][...] = 0.0
    n = len(m.vocab)
    out = m.next_dist((5, 6, 1), (5,)).probs
    assert np.array_equal(out, np.full(n, 1.0 / n))


def test_uniform_model_loss_is_log_vocab():
    m = small_model()
    m.params["out_proj"][...] = 0.0
    loss, _ = m.loss_and_grads([((5, 6, 7, 1), (5, 6, 7, 1), "full")])
    assert math.isclose(loss, math.log(len(m.vocab)), rel_tol=0, abs_tol=1e-12)


# -- the sentence cache of stages 1 and 2 -------------------------------------

# d = 32: at d = 8 the rounding that tells two sentences' caches apart seldom shows
CACHE_MODELS = {mode: small_model(mode=mode, seed=12, d=32)
                for mode in (BIDIRECTIONAL, UNIDIRECTIONAL)}


@st.composite
def sentence_queries(draw):
    """Queries drawn from a few sources and targets over three tokens, so
    that one sentence asks the same and nearly the same stages again."""
    token = st.integers(3, 5)
    sources = draw(st.lists(st.lists(token, min_size=1, max_size=6), min_size=1, max_size=4))
    targets = draw(st.lists(st.lists(token, max_size=5), min_size=1, max_size=4))
    return [(tuple(draw(st.sampled_from(sources))), tuple(draw(st.sampled_from(targets))))
            for _ in range(draw(st.integers(1, 12)))]


@pytest.mark.parametrize("mode", sorted(CACHE_MODELS))
@settings(max_examples=60, deadline=None)
@given(queries=sentence_queries())
# sources that differ only in their first token, their last token or their
# length, and targets likewise
@example(queries=[((3, 4, 1), (5,)), ((5, 4, 1), (5,)), ((3, 4, 5), (5,)), ((3, 4), (5,)),
                  ((3, 4, 1), (4,)), ((3, 4, 1), (4, 4)), ((3, 4, 1), ()), ((3, 4, 1), (5,))])
def test_sentence_cache_answers_bitwise_as_without_it(mode, queries):
    """In a cache whose sentence shares no prefix with the queries, and in
    one opened on each query's own source, a query gives the bits it gives
    alone: a query outside a cache is its own sentence."""
    model = CACHE_MODELS[mode]
    want = [model.next_dist(*query).probs for query in queries]
    with model._sentence_cache((6, 7, 1)):  # the queries' tokens are 3-5
        got = [model.next_dist(*query).probs for query in queries]
    assert [p.tobytes() for p in got] == [p.tobytes() for p in want]
    for query, alone in zip(queries, want):
        with model._sentence_cache(query[0]):
            assert model.next_dist(*query).probs.tobytes() == alone.tobytes()


@st.composite
def sentence_runs(draw):
    """A sentence and the queries a run over it asks, in order: plain
    prefixes and prefixes plus an ``eos``, ``oracle`` or random suffix (one
    that may start with the source's next token), a source that shares no
    prefix with the sentence, and a hypothesis that grows by one token."""
    source = tuple(draw(st.lists(st.integers(3, 6), min_size=1, max_size=7))) + (1,)  # EOS last
    return source, _run_queries(draw, source)


def _run_queries(draw, source):
    """The queries of a run over ``source``, drawn as in ``sentence_runs``."""
    token = st.integers(3, 6)
    n, hyp, queries = len(source), (), []
    for _ in range(draw(st.integers(1, 12))):
        j = draw(st.integers(1, n))
        kind = draw(st.sampled_from(["plain", "eos", "oracle", "random", "next", "unrelated"]))
        random = tuple(draw(st.lists(token, min_size=1, max_size=3)))
        src = {"plain": source[:j], "eos": source[:j] + (1,), "oracle": source,
               "random": source[:j] + random, "next": source[:min(j + 1, n)] + random,
               "unrelated": (source[0] % 6 + 3,) + random}[kind]
        queries.append((src, hyp))
        if len(hyp) < 10 and draw(st.booleans()):
            hyp += (draw(token),)
    return queries


@pytest.mark.parametrize("mode", sorted(CACHE_MODELS))
@settings(max_examples=60, deadline=None)
@given(run=sentence_runs())
def test_a_sentence_cache_answers_a_run_within_1e12_of_the_oracle(mode, run):
    """The queries of a run, in a cache opened on its sentence, are within
    1e-12 of the from-scratch arithmetic; asked again in the same cache, in
    reverse order, they give the same bytes."""
    model = CACHE_MODELS[mode]
    source, queries = run
    with model._sentence_cache(source):
        got = [model.next_dist(*query).probs for query in queries]
        again = [model.next_dist(*query).probs for query in reversed(queries)][::-1]
    for probs, query in zip(got, queries):
        assert np.abs(probs - pair_oracle.next_dist(model, *query)).max() <= 1e-12
    assert [p.tobytes() for p in again] == [p.tobytes() for p in got]


@st.composite
def session_runs(draw):
    """Runs over sentences in turn, as one session holds them: a sentence
    drawn again, one that shares a prefix with an earlier one, or an
    unrelated one, each with the queries of a run over it."""
    token = st.integers(3, 6)
    sentences, runs = [], []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["again", "shared", "unrelated"])) if sentences else ""
        if kind == "again":
            sentence = draw(st.sampled_from(sentences))
        elif kind == "shared":
            base = draw(st.sampled_from(sentences))
            cut = draw(st.integers(1, min(len(base), 7)))
            sentence = base[:cut] + tuple(draw(st.lists(token, max_size=7 - cut))) + (1,)
        else:
            sentence = tuple(draw(st.lists(token, min_size=1, max_size=7))) + (1,)
        sentences.append(sentence)
        runs.append((sentence, _run_queries(draw, sentence)))
    return runs


class Stop(Exception):
    pass


def _fresh_answers(m, runs):
    """The bytes of each query of ``runs`` in a fresh cache of its sentence."""
    want = []
    for sentence, queries in runs:
        for query in queries:
            with m._sentence_cache(sentence):
                want.append(m.next_dist(*query).probs.tobytes())
    return want


def _session_answers(m, runs, stop, opening=lambda sentence: None):
    """The bytes of the queries of ``runs`` in one session, up to the
    exception raised at the (cache, query) index ``stop``; ``opening`` sees
    each sentence before its cache opens."""
    got = []
    try:
        with m._session():
            for c, (sentence, queries) in enumerate(runs):
                opening(sentence)
                with m._sentence_cache(sentence):
                    for q, query in enumerate(queries):
                        if (c, q) == stop:
                            raise Stop
                        got.append(m.next_dist(*query).probs.tobytes())
    except Stop:
        pass
    return got


@pytest.mark.parametrize("mode", sorted(CACHE_MODELS))
@settings(max_examples=60, deadline=None)
@given(runs=session_runs(), stop=st.none() | st.tuples(st.integers(0, 4), st.integers(0, 11)))
# a pseudo source of one sentence that is the next sentence itself: its rows
# differ in the last bits between the two caches on the UNIDIRECTIONAL model
@example(runs=[((3, 3, 3, 3, 1), [((3, 1), (4, 6))]), ((3, 1), [((3, 1), (4, 6))])], stop=None)
def test_a_session_answers_as_fresh_caches_and_folds_once(mode, runs, stop):
    """Sentence caches in one session answer each query with the bytes a
    fresh cache of the same sentence gives. The session folds once, and a
    sentence's own source is encoded whole once however often its cache
    opens. Nothing of the session remains after it exits, by return or by
    an exception (at the (cache, query) index ``stop``) mid-sentence. At
    d = 32 a UNIDIRECTIONAL source's rows often differ in their last bits
    between two sentences' caches, so a session that kept them across
    sentences would show here."""
    m = small_model(mode=mode, seed=12, d=32)
    want = _fresh_answers(m, runs)
    folds, encode_rows = m._folds, m._encode_rows
    folded, whole, current = [], [], []

    def counted_folds():
        folded.append(1)
        return folds()

    def recorded_encode_rows(folds, src, before):
        if src == current[-1]:  # the source of the open cache's sentence, which it keeps
            whole.append(src)
        return encode_rows(folds, src, before)

    m._folds, m._encode_rows = counted_folds, recorded_encode_rows
    got = _session_answers(m, runs, stop, opening=current.append)
    assert m._scope is None and m._stages is None
    assert got == want[:len(got)]
    assert folded == [1]
    assert len(whole) == len(set(whole))


def _record_stage_2(m):
    """The list to which each stage-2 run of ``m`` appends its decoder input."""
    decoder_row, decoded = m._decoder_row, []

    def recorded(folds, tgt_in):
        decoded.append(tgt_in)
        return decoder_row(folds, tgt_in)

    m._decoder_row = recorded
    return decoded


@pytest.mark.parametrize("mode", sorted(CACHE_MODELS))
@settings(max_examples=60, deadline=None)
@given(runs=session_runs(), stop=st.none() | st.tuples(st.integers(0, 4), st.integers(0, 11)))
# two sentences whose runs ask the same decoder inputs
@example(runs=[((3, 4, 1), [((3,), ()), ((3, 4), (5,))]), ((6, 1), [((6,), ()), ((6, 1), (5,))])],
         stop=None)
def test_a_session_runs_stage_2_once_per_decoder_input(mode, runs, stop):
    """Stage 2 runs once per distinct decoder input (BOS + target prefix)
    across every sentence cache of a session, when the input is first
    asked, and each answer has the bytes of a fresh one-sentence cache: a
    decoder row depends on its input and the parameters alone. Nothing of
    the session (its folds, kept source rows and decoder outputs) remains
    after it exits, by return or by an exception mid-sentence, so the next
    session runs stage 2 again."""
    m = small_model(mode=mode, seed=12, d=32)
    want = _fresh_answers(m, runs)
    decoded = _record_stage_2(m)
    got = _session_answers(m, runs, stop)
    assert m._scope is None and m._stages is None
    assert got == want[:len(got)]
    asked = [(m.vocab.bos,) + target for _, queries in runs for _, target in queries][:len(got)]
    assert decoded == list(dict.fromkeys(asked))
    sentence, queries = runs[0]
    with m._sentence_cache(sentence):
        m.next_dist(*queries[0])
    assert decoded[len(set(asked)):] == [(m.vocab.bos,) + queries[0][1]]


def test_sentence_cache_is_dropped_on_exit():
    """A cache and its own session keep nothing after they exit, by return
    or by an exception: the next cache runs stage 2 again."""
    m = small_model(mode=UNIDIRECTIONAL)
    decoded, row = _record_stage_2(m), (m.vocab.bos, 5)
    with m._sentence_cache((3, 4, 1)):
        m.next_dist((3, 4, 1), (5,))
        m.next_dist((3, 4), (5,))
    assert m._stages is None and m._scope is None
    assert decoded == [row]  # once for both sources
    with pytest.raises(CapacityError):
        with m._sentence_cache((3, 4, 1)):
            m.next_dist((3, 4, 1), (5,))
            m.next_dist((3,) * 20, ())
    assert m._stages is None and m._scope is None
    with m._sentence_cache((3, 4, 1)):
        m.next_dist((3, 4, 1), (5,))
    assert decoded == [row] * 3
    # a wrapper that declares no max_len gets no length check from the
    # policy, so the cache rejects its too-long sentence before any forward
    class Undeclared:
        max_len = None

        def __init__(self, model):
            self.model = model
            self.forwards = 0

        def next_dist(self, *query):
            self.forwards += 1
            return self.model.next_dist(*query)

        def __getattr__(self, name):
            return getattr(self.model, name)

    too_long = SentencePair(source=(3,) * 12 + (1,), target=(3, 1))
    undeclared = Undeclared(m)
    with pytest.raises(CapacityError):
        divergence_matrix(undeclared, m.vocab, too_long, suffix_from_name("eos", m.vocab))
    assert undeclared.forwards == 0 and m._stages is None


def test_no_stage_outlives_its_sentence_cache():
    m = small_model(mode=BIDIRECTIONAL)
    query = ((3, 4, 1), (5,))
    with m._sentence_cache(query[0]):
        before = m.next_dist(*query).probs
    _, grads = m.loss_and_grads([((3, 4, 1), (5, 1), "full")])
    sgd_step(m, grads, lr=1.0)
    with m._sentence_cache(query[0]):
        after = m.next_dist(*query).probs
    fresh = MicroModel(m.vocab, d=m.d, max_len=m.max_len, mode=m.mode, params=m.clone_params())
    assert after.tobytes() == fresh.next_dist(*query).probs.tobytes()
    assert not np.array_equal(after, before)


def _train_step(m):
    _, grads = m.loss_and_grads([((3, 4, 5, 1), (5, 4, 1), "full")])
    sgd_step(m, grads, lr=1.0)


def _set_params(m):
    m.set_params({name: val * 1.5 for name, val in m.clone_params().items()})


def _write_in_place(m):
    for block in ATTN_BLOCKS:  # every weight a fold reads
        for proj in "qkvo":
            m.params[f"{block}_{proj}"][...] = 3.0 * m.params[f"{block}_{proj}"]


def _in_a_cache(m, sentence, queries):
    with m._sentence_cache(sentence):
        return [(q, m.next_dist(*q).probs) for q in queries]


def _in_a_session(m, sentence, queries):
    with m._session():
        with m._sentence_cache(sentence):
            m.next_dist(*queries[0])  # keeps the sentence's rows for the next cache
        with m._sentence_cache(sentence):
            return [(q, m.next_dist(*q).probs) for q in queries]


def _in_a_sweep(m, sentence, queries):
    """The distinct queries a sweep over ``sentence`` asks, with their answers."""
    class Recorded:
        def __init__(self):
            self.answers = []

        def next_dist(self, *query):
            dist = m.next_dist(*query)
            self.answers.append((query, dist.probs))
            return dist

        def __getattr__(self, name):
            return getattr(m, name)

    recorded = Recorded()
    pair = SentencePair(source=sentence, target=(5, 4, 1))
    for spec in (SweepSpec("psfuture", lambdas=(0.0, 1.0), suffixes=("eos",), max_target_len=6),
                 SweepSpec("waitk", ks=(1, 2), max_target_len=6)):
        run_sweep(recorded, m.vocab, [pair], spec)
    return recorded.answers


@pytest.mark.parametrize("mode", [BIDIRECTIONAL, UNIDIRECTIONAL])
@pytest.mark.parametrize("opened, change", [
    pytest.param(opened, change, id=change.__name__ + ("" if opened is _in_a_cache else
                                                       opened.__name__))
    for opened in (_in_a_cache, _in_a_session, _in_a_sweep)
    for change in (_train_step, _set_params, _write_in_place)])
def test_a_new_cache_folds_the_parameters_it_opens_on(mode, opened, change):
    """Parameters changed between two caches, two sessions or two sweeps,
    by an SGD step, set_params or a write into a tensor: the second answers
    from the new parameters, within 1e-12 of the from-scratch arithmetic,
    and not from folds or source rows of the old ones."""
    m = small_model(mode=mode, seed=5)
    sentence = (3, 4, 5, 1)
    queries = [(sentence[:2], ()), (sentence, (5,)), (sentence[:3] + (1,), (5, 4))]
    opened(m, sentence, queries)
    old = MicroModel(m.vocab, d=m.d, max_len=m.max_len, mode=mode, params=m.clone_params())
    change(m)
    after = opened(m, sentence, queries)
    assert len(after) >= len(queries)
    for query, probs in after:
        assert np.abs(probs - pair_oracle.next_dist(m, *query)).max() <= 1e-12
        assert np.abs(probs - pair_oracle.next_dist(old, *query)).max() > 1e-9


@pytest.mark.parametrize("mode", [BIDIRECTIONAL, UNIDIRECTIONAL])
def test_every_forward_builds_its_answer_through_the_constructor(mode, monkeypatch):
    """With ``Distribution.__init__`` wrapped by a counter, as the benchmark
    spans it, a sentence-cache run builds exactly one ``Distribution`` per
    ``next_dist`` forward: a PsFuture run, a divergence matrix and queries
    asked in an open cache."""
    m = small_model(mode=mode, seed=5)
    counts = {"built": 0, "forwards": 0}
    init, next_dist = Distribution.__init__, m.next_dist

    def counted_init(self, probs):
        counts["built"] += 1
        init(self, probs)

    def counted_next_dist(*query):
        counts["forwards"] += 1
        return next_dist(*query)

    monkeypatch.setattr(Distribution, "__init__", counted_init)
    monkeypatch.setattr(m, "next_dist", counted_next_dist)
    pair = SentencePair(source=(3, 4, 5, 6, 1), target=(5, 4, 1))
    eos = suffix_from_name("eos", m.vocab)
    simulate_sentence(m, m.vocab, PolicyConfig(lam=0.2, max_target_len=8), eos, pair.source)
    divergence_matrix(m, m.vocab, pair, eos)
    with m._sentence_cache(pair.source):
        for j in range(1, len(pair.source) + 1):
            m.next_dist(pair.source[:j], pair.target[:j - 1])
    assert counts["forwards"] > len(pair.source)
    assert counts["built"] == counts["forwards"]


def max_fd_rel_error(model, batch, h=1e-4):
    """Worst relative error of analytic grads vs central finite differences,
    over every entry of every parameter tensor."""
    _, grads = model.loss_and_grads(batch)
    worst = 0.0
    for name, param in model.params.items():
        flat = param.ravel()
        grad = grads[name].ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = model.loss_and_grads(batch)[0]
            flat[i] = orig - h
            down = model.loss_and_grads(batch)[0]
            flat[i] = orig
            fd = (up - down) / (2 * h)
            rel = abs(grad[i] - fd) / max(abs(grad[i]), abs(fd), 1e-6)
            worst = max(worst, rel)
    return worst


def test_gradient_check_offline():
    m = small_model(mode=BIDIRECTIONAL)
    batch = [((5, 6, 7, 4, 1), (5, 6, 7, 4, 1), "full")]
    assert max_fd_rel_error(m, batch) < 1e-3


def test_gradient_check_multipath_limits():
    m = small_model(mode=UNIDIRECTIONAL)
    src = (5, 6, 7, 4, 1)
    tgt = (5, 6, 7, 4, 1)
    limits = [min(t + 1, len(src)) for t in range(1, len(tgt) + 1)]  # k = 2
    assert max_fd_rel_error(m, [(src, tgt, limits)]) < 1e-3


def test_gradient_check_p2f_prefix():
    m = small_model(mode=BIDIRECTIONAL)
    batch = [((5,), (5, 6, 7, 1), "full")]  # l = 1 truncated source
    assert max_fd_rel_error(m, batch) < 1e-3


def test_batch_loss_permutation_invariant():
    m = small_model()
    a = ((5, 6, 1), (6, 5, 1), "full")
    b = ((7, 4, 3, 1), (7, 4, 3, 1), "full")
    l1, _ = m.loss_and_grads([a, b])
    l2, _ = m.loss_and_grads([b, a])
    assert math.isclose(l1, l2, rel_tol=1e-12)


def test_sgd_step_arithmetic_and_noops():
    m = small_model()
    before = m.clone_params()
    zero = {name: np.zeros_like(p) for name, p in m.params.items()}
    sgd_step(m, zero, lr=0.5)
    assert all(np.array_equal(before[k], m.params[k]) for k in before)

    grads = {name: np.ones_like(p) for name, p in m.params.items()}
    sgd_step(m, grads, lr=0.0)
    assert all(np.array_equal(before[k], m.params[k]) for k in before)

    m.params["out_proj"][...] = 1.0
    sgd_step(m, {**zero, "out_proj": np.full_like(m.params["out_proj"], 2.0)}, lr=0.1)
    assert np.allclose(m.params["out_proj"], 0.8)


def test_sgd_step_detects_nonfinite():
    m = small_model()
    bad = {name: np.zeros_like(p) for name, p in m.params.items()}
    bad["ff_w1"][0, 0] = np.inf
    with pytest.raises(NumericError, match="ff_w1"):
        sgd_step(m, bad, lr=1.0)


@pytest.mark.parametrize("lr", [float("nan"), float("inf"), -1.0])
def test_sgd_step_rejects_a_bad_lr_before_touching_a_tensor(lr):
    m = small_model()
    before = {name: p.tobytes() for name, p in m.params.items()}
    grads = {name: np.ones_like(p) for name, p in m.params.items()}
    with pytest.raises(ConfigError, match=rf"^lr={lr} must be finite and >= 0$"):
        sgd_step(m, grads, lr)
    assert {name: p.tobytes() for name, p in m.params.items()} == before


def test_capacity_and_limit_errors():
    m = small_model()
    src, tgt = (3, 4, 5, 6, 1), (3, 4, 5, 6, 1)
    with pytest.raises(CapacityError):
        m.next_dist(tuple([3] * 20) + (1,), ())
    with pytest.raises(ConfigError, match=r"cross-attention limit \[1, 2, 9\] outside \[1, 3\]"):
        m.loss_and_grads([((3, 4, 1), (3, 4, 1), [1, 2, 9])])  # beyond source length
    # one limit for a five-token target is not one per decoder row, and a
    # scalar does not stand for every row
    for limits, shown in (([2], r"\[2\]"), (2, "2")):
        with pytest.raises(ConfigError, match=r"cross-attention limit must be 'full' or one "
                                              rf"integer per decoder row \(5\), got {shown}$"):
            m.loss_and_grads([(src, tgt, limits)])
    with pytest.raises(ConfigError, match="target must be non-empty"):
        m.sentence_nlls(src, ())
    with pytest.raises(ConfigError, match=r"cross-attention limit .*got \[2\.7, 2\.7"):
        m.loss_and_grads([(src, tgt, [2.7] * 5)])
    with pytest.raises(ConfigError, match="cross-attention limit .*got 'all'"):
        m.loss_and_grads([(src, tgt, "all")])  # "full" is the only sentinel
    for call in (lambda: m.next_dist((), ()),
                 lambda: m.sentence_nlls((), tgt),
                 lambda: m.loss_and_grads([((), tgt, "full")])):
        with pytest.raises(ConfigError, match="source must be non-empty"):
            call()


def test_model_size_must_be_positive(tmp_path):
    vocab = make_vocab(3)
    for kwargs, message in (({"d": 0}, "d=0 and"), ({"d": -1}, "d=-1 and"),
                            ({"max_len": 0}, "max_len=0 must both be >= 1")):
        with pytest.raises(ConfigError, match=message):
            MicroModel(vocab, **kwargs)
    # a model file whose tensors all fit d = 0 goes through the same check
    path = tmp_path / "m.json"
    save_model(MicroModel(vocab, d=4, max_len=8), path)
    doc = json.loads(path.read_text())
    doc["meta"]["d"] = 0
    for entry in doc["tensors"].values():
        entry["shape"] = [0 if n in (4, 16) else n for n in entry["shape"]]
        entry["data"] = []
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="d=0 and"):
        load_model(path)


def test_save_load_round_trip_bitwise(tmp_path):
    m = small_model(seed=9)
    path = tmp_path / "m.json"
    save_model(m, path)
    m2 = load_model(path)
    assert m2.mode == m.mode and m2.d == m.d and m2.max_len == m.max_len
    assert all(np.array_equal(m.params[k], m2.params[k]) for k in m.params)
    rng = np.random.default_rng(0)
    for _ in range(100):
        src = tuple(int(x) for x in rng.integers(3, 11, size=int(rng.integers(1, 7)))) + (1,)
        tgt = tuple(int(x) for x in rng.integers(3, 11, size=int(rng.integers(0, 5))))
        assert np.array_equal(m.next_dist(src, tgt).probs, m2.next_dist(src, tgt).probs)


def test_truncated_model_file_rejected(tmp_path):
    m = small_model()
    path = tmp_path / "m.json"
    save_model(m, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(ModelFileError):
        load_model(path)


def test_a_model_file_ranking_a_special_token_is_rejected(tmp_path):
    path = tmp_path / "m.json"
    save_model(MicroModel(build_vocabulary([["a", "b"], ["a"]]), d=4, max_len=8), path)
    doc = json.loads(path.read_text())
    ranks = doc["vocab"]["freq_rank"]
    ranks["<eos>"] = len(ranks) + 1  # still a bijection onto 1..n_ranked
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="^special token '<eos>' must not be ranked$"):
        load_model(path)


def test_table_model_round_trip_lookup_traces(tmp_path):
    from simtkit import TableModel, uniform_distribution
    vocab = make_vocab(3)
    n = len(vocab)
    entries = {
        ((3,), ()): Distribution(np.eye(n)[3]),
        ((3, 4), (3,)): Distribution(np.eye(n)[4]),
        ((4,), ()): uniform_distribution(n, [3, 4]),
    }
    model = TableModel(vocab, entries, uniform_distribution(n, range(n)))
    path = tmp_path / "t.json"
    save_model(model, path)
    model2 = load_model(path)
    assert set(model2.entries) == set(model.entries)
    for src in [(3,), (4,), (3, 4), (5, 5)]:
        for tgt in [(), (3,), (3, 4)]:
            assert np.array_equal(model.next_dist(src, tgt).probs,
                                  model2.next_dist(src, tgt).probs)


# -- the padded batch path against the per-pair oracle -------------------------

FIXTURES = Path(__file__).resolve().parent.parent / "bench" / "fixtures"


def batch_nlls(model, batch):
    """Per-row NLLs (B, R) of one padded forward over ``batch``."""
    logits, targets, _, _ = model._batch_forward(batch)
    return _log_softmax_nll(logits, targets)


@pytest.mark.parametrize("mode", [BIDIRECTIONAL, UNIDIRECTIONAL])
def test_gradient_check_mixed_padded_batch(mode):
    m = small_model(mode=mode)
    batch = [((5, 6, 7, 4, 1), (5, 6, 1), "full"),
             ((7, 4), (7, 4, 3, 5, 6, 1), "full"),  # p2f: l = 2 of a 6-token source
             ((3, 5, 6, 1), (3, 5, 6, 4, 1), [2] * 5),
             ((4, 4, 5, 6, 7, 1), (4, 5, 6, 1), [1, 3, 6, 6])]
    assert max_fd_rel_error(m, batch) < 1e-3


@st.composite
def training_batches(draw):
    """Batches of mixed lengths and limits, with p2f-truncated sources."""
    items = []
    for _ in range(draw(st.integers(1, 6))):
        src = draw(st.lists(st.integers(3, 10), min_size=1, max_size=8))
        tgt = draw(st.lists(st.integers(3, 10), min_size=1, max_size=8))
        kind = draw(st.sampled_from(["full", "constant", "per row", "p2f"]))
        if kind == "constant":
            limits = [draw(st.integers(1, len(src)))] * len(tgt)
        elif kind == "per row":
            limits = draw(st.lists(st.integers(1, len(src)), min_size=len(tgt),
                                   max_size=len(tgt)))
        else:
            limits = "full"
            if kind == "p2f":
                src = src[:draw(st.integers(1, len(src)))]
        items.append((tuple(src), tuple(tgt), limits))
    return items


@pytest.mark.parametrize("mode", sorted(CACHE_MODELS))
@settings(max_examples=60, deadline=None)
@given(batch=training_batches())
def test_padded_batch_matches_the_per_pair_oracle(mode, batch):
    model = CACHE_MODELS[mode]
    loss, grads = model.loss_and_grads(batch)
    want_loss, want_grads = pair_oracle.loss_and_grads(model, batch)
    assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
    assert list(grads) == list(model.params)
    for name, want in want_grads.items():
        assert np.abs(grads[name] - want).max() <= 1e-12 * np.abs(want).max(), name
    for item, nlls in zip(batch, batch_nlls(model, batch)):
        alone = batch_nlls(model, [item])[0]
        assert np.allclose(nlls[:len(alone)], alone, rtol=1e-12, atol=0)


def test_padded_rows_see_nothing_beyond_their_limits_or_their_pair():
    m = small_model(mode=UNIDIRECTIONAL, d=16)
    rng = np.random.default_rng(5)
    for trial in range(40):
        batch = []
        for _ in range(4):
            n, t = int(rng.integers(2, 9)), int(rng.integers(1, 9))
            src = tuple(int(x) for x in rng.integers(3, 11, size=n))
            tgt = tuple(int(x) for x in rng.integers(3, 11, size=t))
            batch.append((src, tgt, [int(x) for x in rng.integers(1, n + 1, size=t)]))
        base = batch_nlls(m, batch)
        b = int(rng.integers(0, 4))
        src, tgt, limits = batch[b]
        r = int(rng.integers(0, len(tgt)))
        # other tokens beyond row r's limit, and another neighbour of the same lengths
        beyond = src[:limits[r]] + tuple(int(x) for x in rng.integers(3, 11, len(src) - limits[r]))
        other = (b + 1) % 4
        n_other, t_other = len(batch[other][0]), len(batch[other][1])
        changed = list(batch)
        changed[b] = (beyond, tgt, limits)
        changed[other] = (tuple(int(x) for x in rng.integers(3, 11, n_other)),
                          tuple(int(x) for x in rng.integers(3, 11, t_other)), "full")
        got = batch_nlls(m, changed)
        assert got[b, r].tobytes() == base[b, r].tobytes(), f"trial {trial}"


@pytest.mark.parametrize("name", ["multipath_uni.json", "p2f_bi.json"])
def test_next_dist_keeps_the_single_query_arithmetic_on_the_bench_fixtures(name):
    """Within 1e-12 of the from-scratch arithmetic of ``pair_oracle``, alone
    and in a sentence cache opened on a source each query shares some (or
    no) prefix with."""
    model = load_model(FIXTURES / name)
    rng = np.random.default_rng(2)

    def tokens(n):
        return tuple(int(x) for x in rng.integers(1, len(model.vocab), n))

    for _ in range(10):
        sentence = tokens(int(rng.integers(1, 13)))
        queries = []
        for _ in range(15):
            shared = int(rng.integers(0, len(sentence) + 1))
            src = sentence[:shared] + tokens(int(rng.integers(shared == 0, 13 - shared)))
            queries.append((src, tokens(int(rng.integers(0, 12)))))
        want = [pair_oracle.next_dist(model, *q) for q in queries]
        alone = [model.next_dist(*q).probs for q in queries]
        with model._sentence_cache(sentence):
            cached = [model.next_dist(*q).probs for q in queries]
        for got in (alone, cached):
            assert max(np.abs(g - w).max() for g, w in zip(got, want)) <= 1e-12
