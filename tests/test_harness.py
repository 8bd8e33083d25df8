import copy
import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import simtkit as sk
from simtkit import (
    BIDIRECTIONAL,
    ConfigError,
    Distribution,
    EvalResult,
    MicroModel,
    NumericError,
    PolicyConfig,
    SentencePair,
    SweepSpec,
    SyntheticSpec,
    UNIDIRECTIONAL,
    divergence_matrix,
    divergence_report_lines,
    generate_corpus,
    psfuture_divergence,
    run_sweep,
    sgd_step,
    simulate_sentence,
    simulate_waitk,
    suffix_from_name,
    sweep_csv_lines,
)
from simtkit import metrics, sweep
from simtkit.cli import main
from simtkit.core import decode_sentence
from simtkit.policy import _ProbeMemo

from test_micro import FIXTURES


def copy_world(n_range=(4, 7), n_pairs=12, seed=3, vocab_size=9):
    return generate_corpus(SyntheticSpec(kind="copy", vocab_size=vocab_size,
                                         n_range=n_range, n_pairs=n_pairs, seed=seed))


# -- run_sweep -----------------------------------------------------------------

def test_waitk_sweep_exact_rows():
    vocab, pairs, model = copy_world(n_range=(6, 6), n_pairs=8)
    spec = SweepSpec(policy="waitk", ks=(1, 3, 5), seed=0)
    rows = run_sweep(model, vocab, pairs, spec)
    assert [r.lambda_or_k for r in rows] == [1, 3, 5]  # sorted by AL
    assert all(r.bleu == 100.0 for r in rows)
    assert [r.al for r in rows] == [1.0, 3.0, 5.0]
    assert all(r.hr == 0.0 for r in rows)


def test_psfuture_sweep_monotone_and_exact():
    vocab, pairs, model = copy_world()
    spec = SweepSpec(policy="psfuture", lambdas=(0.05, 0.1, 0.2),
                     suffixes=("oracle",), seed=0)
    rows = run_sweep(model, vocab, pairs, spec)
    assert all(r.bleu == 100.0 for r in rows)
    als = [r.al for r in sorted(rows, key=lambda r: r.lambda_or_k)]
    assert als == sorted(als, reverse=True)


class CountingModel:
    """Counts the forwards asked of a model and passes every other attribute
    through, like the benchmark's wrapper."""

    def __init__(self, model):
        self.model = model
        self.forwards = 0

    def next_dist(self, source_prefix, target_prefix):
        self.forwards += 1
        return self.model.next_dist(source_prefix, target_prefix)

    def __getattr__(self, name):
        return getattr(self.model, name)


def long_source_world():
    """Four short copy pairs with a 15-token pair (EOS included) at index 2,
    and an untrained micro model with max_len 16."""
    vocab, pairs, _ = copy_world(n_pairs=4)
    long_source = tuple(vocab.id(f"w{i % 6}") for i in range(14)) + (vocab.eos,)
    pairs.insert(2, SentencePair(source=long_source, target=long_source))
    return vocab, pairs, MicroModel(vocab, d=8, max_len=16, seed=1)


def test_sweep_checks_lengths_before_the_first_cell():
    vocab, pairs, model = long_source_world()
    counting = CountingModel(model)
    # sentence 2 could probe 14 read tokens plus the 4-token random suffix
    spec = SweepSpec(policy="psfuture", lambdas=(-1.0,), suffixes=("eos", "random"),
                     max_target_len=8, random_top_k=6)
    with pytest.raises(ConfigError, match=r"^sentence 2: source length 18 .*"
                                          r"4-token random suffix.* max_len 16$"):
        run_sweep(counting, vocab, pairs, spec)
    assert counting.forwards == 0
    with pytest.raises(ConfigError, match="max_target_len 32 exceeds the model's max_len 16"):
        run_sweep(counting, vocab, pairs, SweepSpec(policy="waitk", ks=(1,), max_target_len=32))
    assert counting.forwards == 0
    # the oracle suffix and wait-k never query more than the 15-token source
    for fits in (SweepSpec(policy="psfuture", lambdas=(-1.0,), suffixes=("oracle",),
                           max_target_len=8),
                 SweepSpec(policy="waitk", ks=(3,), max_target_len=16)):
        assert len(run_sweep(counting, vocab, pairs, fits)) == 1
    too_long = tuple(vocab.id(f"w{i % 6}") for i in range(16)) + (vocab.eos,)
    pairs[3] = SentencePair(source=too_long, target=too_long)
    with pytest.raises(ConfigError, match=r"^sentence 3: source length 17 exceeds max_len 16$"):
        run_sweep(model, vocab, pairs, SweepSpec(policy="waitk", ks=(3,), max_target_len=16))


def test_sweep_checks_the_random_suffix_before_the_first_cell():
    vocab, pairs, model = copy_world()
    counting = CountingModel(model)
    n_ranked = len(vocab.freq_rank)
    # the eos cells would run first; the random suffix is checked when named
    for knobs, message in (({}, f"top_k=200 exceeds {n_ranked} ranked tokens"),
                           ({"random_count": 0, "random_top_k": n_ranked},
                            "random suffix count 0 must be >= 1")):
        spec = SweepSpec(policy="psfuture", lambdas=(0.1,), suffixes=("eos", "random"),
                         **knobs)
        with pytest.raises(ConfigError, match=message):
            run_sweep(counting, vocab, pairs, spec)
    assert counting.forwards == 0


def test_sweep_checks_each_pair_before_the_first_cell():
    vocab, pairs, _ = copy_world(n_pairs=6)
    counting = CountingModel(MicroModel(vocab, d=8, max_len=16, seed=1))
    pairs[3] = SentencePair(source=pairs[3].source[:-1], target=pairs[3].target)
    spec = SweepSpec(policy="psfuture", lambdas=(0.1,), suffixes=("eos",), max_target_len=16)
    with pytest.raises(sk.CorpusError,
                       match="^sentence 3: source sequence does not end with EOS$"):
        run_sweep(counting, vocab, pairs, spec)
    assert counting.forwards == 0


def test_sweep_failure_names_the_sentence():
    vocab, pairs, model = long_source_world()
    # a model whose max_len is None declares no limit and gets no pre-flight;
    # lambda -1 reads the whole source first, so sentence 2 probes 13 source
    # tokens plus the 4-token random suffix
    undeclared = CountingModel(model)
    undeclared.max_len = None
    spec = SweepSpec(policy="psfuture", lambdas=(-1.0,), suffixes=("random",),
                     max_target_len=8, random_top_k=6)
    with pytest.raises(RuntimeError, match=r"at sentence 2: .*max_len 16"):
        run_sweep(undeclared, vocab, pairs, spec)


def test_simulate_checks_lengths_before_the_first_forward():
    vocab, pairs, model = long_source_world()
    counting = CountingModel(model)
    source = pairs[2].source  # 15 tokens: 14 read before the last suffix
    random = suffix_from_name("random", vocab, random_top_k=6)
    with pytest.raises(ConfigError, match=r"^source length 18 \(14 tokens plus the "
                                          r"4-token random suffix\) exceeds max_len 16$"):
        simulate_sentence(counting, vocab, PolicyConfig(lam=-1.0, max_target_len=8),
                          random, source, rng=np.random.default_rng(0))
    # the sweep's decoder rule: the default max_target_len 64 does not fit
    with pytest.raises(ConfigError, match="^max_target_len 64 exceeds the model's max_len 16$"):
        simulate_sentence(counting, vocab, PolicyConfig(), suffix_from_name("eos", vocab),
                          pairs[0].source)
    assert counting.forwards == 0
    sim = simulate_sentence(counting, vocab, PolicyConfig(lam=-1.0, max_target_len=16),
                            suffix_from_name("oracle", vocab), source)
    assert counting.forwards > 0 and len(sim.hypothesis) <= 16


def test_waitk_checks_lengths_before_the_first_forward():
    vocab, pairs, model = long_source_world()
    counting = CountingModel(model)
    too_long = tuple(vocab.id(f"w{i % 6}") for i in range(16)) + (vocab.eos,)
    with pytest.raises(ConfigError, match="^source length 17 exceeds max_len 16$"):
        simulate_waitk(counting, vocab, 3, too_long, max_target_len=8)
    with pytest.raises(ConfigError, match="^max_target_len 17 exceeds the model's max_len 16$"):
        simulate_waitk(counting, vocab, 3, pairs[0].source, max_target_len=17)
    assert counting.forwards == 0
    simulate_waitk(counting, vocab, 3, pairs[2].source, max_target_len=16)
    assert counting.forwards > 0


@pytest.mark.parametrize("max_target_len", [0, -3])
def test_waitk_checks_max_target_len_as_policy_config_does(max_target_len):
    vocab, pairs, model = copy_world(n_pairs=2)
    counting = CountingModel(model)
    message = f"^max_target_len={max_target_len} must be >= 1$"
    with pytest.raises(ConfigError, match=message):
        PolicyConfig(max_target_len=max_target_len)
    with pytest.raises(ConfigError, match=message):
        simulate_waitk(counting, vocab, 3, pairs[0].source, max_target_len=max_target_len)
    assert counting.forwards == 0


def test_divergence_report_checks_lambda_before_the_first_forward():
    vocab, pairs, model = copy_world(n_pairs=5)
    counting = CountingModel(model)
    with pytest.raises(ConfigError, match="^lam=nan must not be NaN$"):
        divergence_report_lines(counting, vocab, pairs[0], suffix_from_name("eos", vocab),
                                float("nan"))
    assert counting.forwards == 0


def test_divergence_matrix_checks_lengths_before_the_first_forward():
    vocab, pairs, model = long_source_world()
    counting = CountingModel(model)
    full = tuple(vocab.id(f"w{i % 6}") for i in range(15)) + (vocab.eos,)  # 16 tokens
    # column N asks the whole source plus the suffix
    fits_alone = SentencePair(source=full, target=pairs[0].target)
    with pytest.raises(ConfigError, match=r"^source length 17 \(16 tokens plus the "
                                          r"1-token eos suffix\) exceeds max_len 16$"):
        divergence_matrix(counting, vocab, fits_alone, suffix_from_name("eos", vocab))
    # the decoder reads BOS plus all but the last target token
    long_target = SentencePair(source=pairs[0].source, target=(vocab.id("w1"),) * 16
                               + (vocab.eos,))
    with pytest.raises(ConfigError, match="^target length 17 exceeds max_len 16$"):
        divergence_matrix(counting, vocab, long_target, suffix_from_name("oracle", vocab))
    assert counting.forwards == 0
    # the oracle suffix restores the 16-token source and no more
    oracle = divergence_matrix(counting, vocab, fits_alone, suffix_from_name("oracle", vocab))
    assert oracle.values.shape == (len(fits_alone.target), 16) and counting.forwards > 0


def sweep_recorded(monkeypatch, model, vocab, pairs, spec, memo=True):
    """Rows, every simulation in call order, and the forwards of one sweep;
    ``memo=False`` sends every cell's queries straight to the model."""
    counting = CountingModel(model)
    sims = []
    with monkeypatch.context() as m:
        if not memo:
            m.setattr(sweep, "_ProbeMemo", lambda wrapped: wrapped)
        for name in ("simulate_sentence", "simulate_waitk"):
            def record(*args, _simulate=getattr(sweep, name), **kwargs):
                sim = _simulate(*args, **kwargs)
                sims.append((sim.hypothesis, sim.g_record, sim.trace, sim.truncated))
                return sim
            m.setattr(sweep, name, record)
        rows = run_sweep(counting, vocab, pairs, spec)
    return rows, sims, counting.forwards


def table_world():
    return generate_corpus(SyntheticSpec(kind="tail_first", vocab_size=9, n_range=(4, 8),
                                         n_pairs=16, seed=5))


def micro_world():
    vocab, pairs, _ = copy_world(n_pairs=10)
    return vocab, pairs, MicroModel(vocab, d=8, max_len=16, mode=UNIDIRECTIONAL, seed=4)


# lambdas that split the decisions of each world: a table's divergences are 0
# or near 0.59, an untrained micro model's lie between about 4e-10 and 2e-8
CELL_LAMBDAS = {table_world: (0.0, 0.3, 0.6), micro_world: (1e-9, 3e-9, 6e-9)}


def test_sweep_cell_independence(monkeypatch):
    """Each cell of a sweep, whose later lambdas replay the one before, equals
    that cell run alone, row and every sentence's run."""
    suffixes = ("eos", "oracle", "random")
    for world, lambdas in CELL_LAMBDAS.items():
        vocab, pairs, model = world()
        full = SweepSpec(policy="psfuture", lambdas=lambdas, suffixes=suffixes,
                         r_max=4, max_target_len=12, seed=9, random_top_k=6)
        rows, sims, _ = sweep_recorded(monkeypatch, model, vocab, pairs, full)
        assert len({(row.suffix, row.al) for row in rows}) > len(suffixes)  # lambda matters
        cells = [(suffix, lam) for suffix in suffixes for lam in lambdas]
        for c, (suffix, lam) in enumerate(cells):
            alone = dataclasses.replace(full, lambdas=(lam,), suffixes=(suffix,))
            row, cell_sims, _ = sweep_recorded(monkeypatch, model, vocab, pairs, alone)
            assert row == [r for r in rows if (r.suffix, r.lambda_or_k) == (suffix, lam)]
            assert cell_sims == sims[c * len(pairs):(c + 1) * len(pairs)], (world, suffix, lam)


@pytest.mark.parametrize("world", [table_world, micro_world])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_any_after_of_the_sentence_gives_the_solo_run(world, data):
    """A run given ``after=`` (the same sentence, suffix and generator seed,
    under a lambda, ``r_max``, initial prefix and ``max_target_len`` of its
    own) equals the run without it, leaves the generator where it leaves it,
    shares no trace record with ``after`` and asks no more forwards; none
    when ``after`` ran under the same settings."""
    vocab, pairs, model = world()
    source = data.draw(st.sampled_from(pairs)).source
    suffix = suffix_from_name(data.draw(st.sampled_from(["eos", "oracle", "random", "unk-eos"])),
                              vocab, random_top_k=6)
    # max_target_len below most lengths + 1: truncates; initial_prefix past some sources
    loop_settings = st.tuples(st.sampled_from([None, 1, 4]), st.integers(1, 9),
                              st.integers(1, 12))
    limits = data.draw(loop_settings)
    after_limits = data.draw(st.just(limits) | loop_settings)
    seed = data.draw(st.integers(0, 2**32 - 1))

    def run(lam, limits=limits, after=None):
        counting = CountingModel(model)
        rng = np.random.default_rng(seed)
        cfg = PolicyConfig(lam=lam, r_max=limits[0], initial_prefix=limits[1],
                           max_target_len=limits[2])
        sim = simulate_sentence(counting, vocab, cfg, suffix, source, rng=rng, after=after)
        return sim, rng.bit_generator.state, counting.forwards

    # the divergences this sentence meets at either end of the scale, so the
    # lambdas fall between them, or on them, on both models' scales
    met = sorted({rec["divergence"] for lam in (-1.0, 2.0) for rec in run(lam)[0].trace
                  if rec.get("divergence") is not None})
    lam = st.sampled_from(met) | st.floats(-0.1, 1.1) if met else st.floats(-0.1, 1.1)
    lam_a, lam_b = data.draw(lam), data.draw(lam)
    before, _, _ = run(lam_a, limits=after_limits)
    kept = copy.deepcopy(before)
    solo, solo_state, solo_forwards = run(lam_b)
    replayed, state, forwards = run(lam_b, after=before)
    assert replayed == solo
    assert state == solo_state
    assert forwards <= solo_forwards
    if (lam_a, after_limits) == (lam_b, limits):  # the whole run is taken
        assert forwards == 0
    assert before == kept
    assert not {id(rec) for rec in replayed.trace} & {id(rec) for rec in before.trace}


def test_an_after_past_the_length_cap_gives_the_solo_run():
    """``after`` from a run capped at 12 tokens writes past a cap of 3; the
    run given it stops at 3 as the solo run does."""
    vocab, pairs, model = generate_corpus(SyntheticSpec(kind="tail_first", vocab_size=9,
                                                        n_range=(6, 8), n_pairs=16, seed=5))
    eos = suffix_from_name("eos", vocab)
    source = pairs[0].source
    long = simulate_sentence(model, vocab, PolicyConfig(lam=0.3, max_target_len=12), eos, source)
    assert len(long.hypothesis) > 3
    capped = PolicyConfig(lam=0.3, max_target_len=3)
    solo = simulate_sentence(model, vocab, capped, eos, source)
    assert len(solo.hypothesis) == 3 and solo.truncated
    assert simulate_sentence(model, vocab, capped, eos, source, after=long) == solo


def test_an_after_from_other_settings_gives_the_solo_run():
    """An ``after`` from a larger lambda, another ``r_max`` or another initial
    prefix, or one edited to hold a cursor past the source or off its step,
    gives the run without it: its records that do not make the step's
    decision are not taken."""
    vocab, pairs, model = table_world()
    source = pairs[0].source
    eos = suffix_from_name("eos", vocab)
    run_at_1 = simulate_sentence(model, vocab, PolicyConfig(lam=1.0, r_max=None), eos, source)
    edited = []
    for step, j in ((3, len(source) + 1), (3, 0)):
        trace = [dict(rec) for rec in run_at_1.trace]
        trace[step - 1]["j"] = j
        edited.append((PolicyConfig(lam=1.0), dataclasses.replace(run_at_1, trace=trace)))
    for cfg, after in [(PolicyConfig(lam=-1.0), run_at_1),  # a larger lambda
                       (PolicyConfig(lam=1.0, r_max=1), run_at_1),  # unforced where RMAX forces
                       (PolicyConfig(lam=1.0, initial_prefix=3), run_at_1), *edited]:
        solo = simulate_sentence(model, vocab, cfg, eos, source)
        assert simulate_sentence(model, vocab, cfg, eos, source, after=after) == solo


@pytest.mark.parametrize("world", [table_world, micro_world])
@pytest.mark.parametrize("policy", ["psfuture", "waitk"])
def test_sweep_memo_changes_forwards_not_results(monkeypatch, world, policy):
    vocab, pairs, model = world()
    suffixes = ("eos", "random", "oracle")
    if policy == "psfuture":
        spec = SweepSpec(policy="psfuture", lambdas=CELL_LAMBDAS[world], suffixes=suffixes,
                         r_max=4, max_target_len=12, seed=3, random_top_k=6)
    else:
        spec = SweepSpec(policy="waitk", ks=(1, 2, 4), max_target_len=12)
    rows, sims, forwards = sweep_recorded(monkeypatch, model, vocab, pairs, spec)
    if policy == "psfuture":  # every suffix's cells differ across lambda
        assert all(len({r.al for r in rows if r.suffix == suffix}) > 1 for suffix in suffixes)
    want_rows, want_sims, want_forwards = sweep_recorded(monkeypatch, model, vocab, pairs,
                                                         spec, memo=False)
    assert rows == want_rows
    assert sims == want_sims and len(sims) == len(rows) * len(pairs)
    assert forwards < want_forwards


def test_a_sweep_scores_each_distinct_run_once(monkeypatch):
    """One store of sentence scores serves every cell of a table sweep: each
    distinct (source, reference, hypothesis, g-record) is scored once, and
    every row equals its cell scored alone."""
    vocab, pairs, model = table_world()
    spec = SweepSpec(policy="psfuture", lambdas=CELL_LAMBDAS[table_world],
                     suffixes=("eos", "oracle", "random"), r_max=4, max_target_len=12,
                     seed=3, random_top_k=6)
    scored, cells = [], []

    def counted(_vocab, *run, _score=metrics._score_sentence):
        scored.append(run)
        return _score(_vocab, *run)

    def recorded(*args, _evaluate=sweep.evaluate_run, **kwargs):
        row = _evaluate(*args, **kwargs)
        cells.append((args, kwargs, row))
        return row

    with monkeypatch.context() as m:
        m.setattr(metrics, "_score_sentence", counted)
        m.setattr(sweep, "evaluate_run", recorded)
        rows = run_sweep(model, vocab, pairs, spec)
    runs = [run for args, _, _ in cells for run in zip(*args[1:5])]
    assert len(cells) == len(rows) == 9 and len(runs) == 9 * len(pairs)
    assert len(scored) == len(set(scored)) == len(set(runs)) < len(runs) / 2
    for args, kwargs, row in cells:
        del kwargs["store"]
        assert sweep.evaluate_run(*args, **kwargs) == row


def test_sweep_memo_does_not_outlive_the_call():
    """Neither the memo nor the model's session (its folds, kept source rows
    and decoder outputs) outlives a sweep that returns or raises: stage 2
    runs once per distinct decoder input of a sweep, and again in the next
    sweep, and a sweep after training equals one on a fresh model with the
    trained parameters."""
    vocab, pairs, model = micro_world()
    decoder_row, decoded, bos = model._decoder_row, [], (vocab.bos,)

    def recorded(folds, tgt_in):
        decoded.append(tgt_in)
        return decoder_row(folds, tgt_in)

    model._decoder_row = recorded
    spec = SweepSpec(policy="psfuture", lambdas=CELL_LAMBDAS[micro_world][:2],
                     suffixes=("eos",), r_max=4, max_target_len=12, seed=1)
    before = run_sweep(model, vocab, pairs, spec)
    assert before[0].al != before[1].al  # the cells differ across lambda
    assert model._scope is None and model._stages is None
    assert len(set(decoded)) == len(decoded) > 1 and decoded.count(bos) == 1

    class FailsLate(CountingModel):
        def next_dist(self, source_prefix, target_prefix):
            if self.forwards == 40:  # in a later sentence of the first cell
                raise NumericError("non-finite values in logits")
            return super().next_dist(source_prefix, target_prefix)

    with pytest.raises(RuntimeError, match="at sentence [1-9]"):
        run_sweep(FailsLate(model), vocab, pairs, spec)
    assert model._scope is None and model._stages is None
    assert decoded.count(bos) == 2
    _, grads = model.loss_and_grads([(p.source, p.target, "full") for p in pairs])
    sgd_step(model, grads, lr=5.0)
    after = run_sweep(model, vocab, pairs, spec)
    fresh = MicroModel(vocab, d=8, max_len=16, mode=UNIDIRECTIONAL,
                       params={name: p.copy() for name, p in model.params.items()})
    assert after == run_sweep(fresh, vocab, pairs, spec)
    assert after != before
    assert decoded.count(bos) == 3


def assert_equal_but_divergences_within_1e12(sims, want_sims):
    """(hypothesis, g-record, trace, truncated) runs that agree in every
    field, except that a divergence may differ by at most 1e-12."""
    for (hyp, g_record, trace, truncated), want in zip(sims, want_sims, strict=True):
        assert (hyp, g_record, truncated) == (want[0], want[1], want[3])
        assert len(trace) == len(want[2])
        for rec, want_rec in zip(trace, want[2]):
            rec, want_rec = dict(rec), dict(want_rec)
            got_div, want_div = rec.pop("divergence", None), want_rec.pop("divergence", None)
            assert rec == want_rec
            assert (got_div is None) == (want_div is None)
            assert got_div is None or abs(got_div - want_div) <= 1e-12


class NoCache:
    """Passes on a model's ``next_dist`` and ``max_len`` alone, so the policy
    finds no session and no sentence cache: every query is its own
    sentence."""

    def __init__(self, model):
        self.next_dist, self.max_len = model.next_dist, model.max_len


@pytest.mark.parametrize("mode", [BIDIRECTIONAL, UNIDIRECTIONAL])
def test_sentence_cache_reaches_the_model_through_wrappers(monkeypatch, mode):
    """Sweeps and divergence matrices open one session per call, which folds
    the parameters once, and one sentence cache per sentence, on its source,
    on the model behind the counting wrapper and the sweep's probe memo.
    They change no result and not the number of forwards asked, except that
    a UNIDIRECTIONAL divergence may move by at most 1e-12: a prefix then
    reads its sentence's full-source encoding. A BIDIRECTIONAL source is
    encoded whole either way, so its results keep every bit. Without them,
    each forward folds for itself. The model is d = 32: at d = 8 the
    rounding that tells two sentences' caches apart seldom shows."""
    vocab, pairs, _ = copy_world(n_pairs=5)
    model = MicroModel(vocab, d=32, max_len=16, mode=mode, seed=4)
    # this untrained model's divergences lie near 1e-7: these split its decisions
    psfuture = SweepSpec(policy="psfuture", lambdas=(1e-7, 3e-7),
                         suffixes=("eos", "random"), r_max=4, max_target_len=12, seed=3,
                         random_top_k=6)
    waitk = SweepSpec(policy="waitk", ks=(1, 3), max_target_len=12)

    def run(model):
        sweeps = [sweep_recorded(monkeypatch, model, vocab, pairs, spec)
                  for spec in (psfuture, waitk)]
        counting = CountingModel(model)
        matrices = [divergence_matrix(counting, vocab, pair, suffix_from_name("eos", vocab))
                    .values for pair in pairs]
        return sweeps, matrices, counting.forwards

    opened, folded = [], []
    open_cache, folds = MicroModel._sentence_cache, MicroModel._folds

    def recorded(self, source):
        opened.append((self, source))
        return open_cache(self, source)

    def counted(self):
        folded.append(self)
        return folds(self)

    monkeypatch.setattr(MicroModel, "_sentence_cache", recorded)
    monkeypatch.setattr(MicroModel, "_folds", counted)
    cached = run(model)
    # 4 psfuture and 2 wait-k cells of 5 sentences, then 5 matrices
    sources = [pair.source for pair in pairs]
    assert opened == [(model, source) for source in sources * 6 + sources]
    assert folded == [model] * (2 + len(pairs))  # two sweeps, then the matrices
    assert model._scope is None and model._stages is None
    del opened[:], folded[:]
    alone = run(NoCache(model))
    assert cached[2] == alone[2]
    assert len(opened) == len(folded) == sum(forwards for _, _, forwards in alone[0]) + alone[2]
    if mode == BIDIRECTIONAL:
        assert cached[0] == alone[0]
        assert [m.tobytes() for m in cached[1]] == [m.tobytes() for m in alone[1]]
    else:
        for (rows, sims, forwards), want in zip(cached[0], alone[0], strict=True):
            assert (rows, forwards) == (want[0], want[2])
            assert_equal_but_divergences_within_1e12(sims, want[1])
        for got, want in zip(cached[1], alone[1], strict=True):
            assert np.abs(got - want).max() <= 1e-12
    # each suffix's cells differ across lambda
    assert len({(row.suffix, row.al) for row in cached[0][0][0]}) == 4


def test_probe_memo_does_not_store_a_failed_query():
    answer = Distribution(np.full(3, 1 / 3))
    queries = []

    class FailsOnce:
        def next_dist(self, source_prefix, target_prefix):
            queries.append((source_prefix, target_prefix))
            if len(queries) == 1:
                raise NumericError("non-finite values in logits")
            return answer

    memo = _ProbeMemo(FailsOnce())
    with pytest.raises(NumericError):
        memo.next_dist([1, 2], [])
    assert memo.next_dist([1, 2], []) is answer
    assert memo.next_dist((1, 2), ()) is answer
    assert queries == [((1, 2), ()), ((1, 2), ())]


def test_sweep_spec_validation():
    with pytest.raises(ConfigError):
        SweepSpec(policy="psfuture", lambdas=())
    with pytest.raises(ConfigError, match="^waitk sweep requires a non-empty k list$"):
        SweepSpec(policy="waitk", ks=())
    with pytest.raises(ConfigError, match="^k=0 must be >= 1$"):
        SweepSpec(policy="waitk", ks=(1, 0))
    with pytest.raises(ConfigError):
        SweepSpec(policy="mystery")
    # PolicyConfig checks the loop settings of a wait-k sweep too
    for setting, bad in (("r_max", 0), ("initial_prefix", 0), ("max_target_len", 0),
                         ("seed", -1)):
        with pytest.raises(ConfigError, match=f"{setting}={bad} must be"):
            SweepSpec(policy="waitk", ks=(1,), **{setting: bad})
    # every lambda, before the first cell runs
    with pytest.raises(ConfigError, match="lam=nan must not be NaN"):
        SweepSpec(policy="psfuture", lambdas=(0.1, float("nan")))


def test_a_lambda_list_in_any_order_gives_the_rows_of_the_sorted_list():
    """Cells run in ascending lambda whatever the order of the list, and a
    repeated lambda repeats its row."""
    for world, lambdas in CELL_LAMBDAS.items():
        vocab, pairs, model = world()
        for lams in ((0.2, 0.1), tuple(lambdas[i] for i in (2, 0, 1)),
                     tuple(lambdas[i] for i in (1, 2, 0, 1))):
            rows = []
            for order in (lams, tuple(sorted(lams))):
                spec = SweepSpec(policy="psfuture", lambdas=order, suffixes=("eos", "random"),
                                 r_max=4, max_target_len=12, seed=2, random_top_k=6)
                lines = sweep_csv_lines(run_sweep(model, vocab, pairs, spec), spec)
                rows.append(lines[lines.index(EvalResult.CSV_HEADER):])
            assert rows[0] == rows[1] and len(rows[0]) == 1 + 2 * len(lams)


def test_sweep_csv_echoes_config():
    vocab, pairs, model = copy_world(n_pairs=4)
    spec = SweepSpec(policy="waitk", ks=(1,), seed=5)
    lines = sweep_csv_lines(run_sweep(model, vocab, pairs, spec), spec)
    assert any(line.startswith("# seed=5") for line in lines)
    assert "policy,lambda_or_k,suffix,r_max,al,bleu,hr,n_sentences,seed" in lines


# -- divergence report -----------------------------------------------------------

def test_divergence_report_lines():
    vocab, pairs, model = generate_corpus(
        SyntheticSpec(kind="tail_first", vocab_size=8, n_range=(5, 5),
                      n_pairs=1, seed=3))
    lines = divergence_report_lines(model, vocab, pairs[0], sk.OracleSuffix(), 0.2)
    header = [l for l in lines if l.startswith("token,")][0]
    assert header == "token," + ",".join(str(g) for g in range(1, 6))
    assert "t,token,g" in lines
    # matrix rows label reference target tokens
    first_row = lines[lines.index(header) + 1]
    assert first_row.split(",")[0] == vocab.token(pairs[0].target[0])


def test_divergence_matrix_asks_each_probe_once():
    vocab, pairs, _ = copy_world(n_range=(5, 7), n_pairs=3)
    model = MicroModel(vocab, d=8, max_len=16, mode=BIDIRECTIONAL, seed=6)
    for pair in pairs:
        counting = CountingModel(model)
        got = divergence_matrix(counting, vocab, pair, suffix_from_name("eos", vocab))
        t_len, n = len(pair.target), len(pair.source)
        want = [[psfuture_divergence(model, pair.source[:g], pair.target[:t], (vocab.eos,))
                 for g in range(1, n + 1)] for t in range(t_len)]
        assert np.array_equal(got.values, np.array(want))
        # the pseudo probe at g = N - 1 (x_<N plus EOS) is the plain probe at g = N
        assert counting.forwards == 2 * t_len * n - t_len


# -- CLI ----------------------------------------------------------------------------

def run_cli(*argv):
    return main(list(argv))


def test_cli_gen_corpus_sweep_pipeline(tmp_path, capsys):
    src, tgt, aln = tmp_path / "s.txt", tmp_path / "t.txt", tmp_path / "a.txt"
    model = tmp_path / "m.json"
    out = tmp_path / "curve.csv"
    assert run_cli("gen-corpus", "--kind", "copy", "--vocab-size", "9",
                   "--len-min", "4", "--len-max", "7", "--n-pairs", "10",
                   "--seed", "3", "--out-src", str(src), "--out-tgt", str(tgt),
                   "--out-align", str(aln), "--out-model", str(model)) == 0
    assert run_cli("sweep", "--policy", "psfuture", "--lambda", "0.05,0.1,0.2",
                   "--suffix", "eos", "--model", str(model), "--src", str(src),
                   "--tgt", str(tgt), "--align", str(aln), "--out", str(out),
                   "--seed", "7") == 0
    rows = [l for l in out.read_text().splitlines()
            if l and not l.startswith(("#", "policy,"))]
    assert len(rows) == 3
    assert all(",100.0," in r for r in rows)


def test_cli_determinism_byte_identical(tmp_path):
    src, tgt = tmp_path / "s.txt", tmp_path / "t.txt"
    model = tmp_path / "m.json"
    run_cli("gen-corpus", "--kind", "tail-first", "--vocab-size", "9",
            "--len-min", "5", "--len-max", "7", "--n-pairs", "8", "--seed", "1",
            "--out-src", str(src), "--out-tgt", str(tgt), "--out-model", str(model))
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert run_cli("sweep", "--policy", "psfuture", "--lambda", "0.05,0.2",
                       "--suffix", "random,oracle", "--model", str(model),
                       "--src", str(src), "--tgt", str(tgt), "--out", str(out),
                       "--seed", "11", "--random-top-k", "6") == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]

    # sweep has no --parallel option, so passing it is a usage error
    assert run_cli("sweep", "--policy", "psfuture", "--lambda", "0.05,0.2",
                   "--model", str(model), "--src", str(src), "--tgt", str(tgt),
                   "--out", str(tmp_path / "par.csv"), "--parallel") == 1


def test_cli_simulate_trace_and_determinism(tmp_path, capsys):
    src, tgt = tmp_path / "s.txt", tmp_path / "t.txt"
    model = tmp_path / "m.json"
    run_cli("gen-corpus", "--kind", "copy", "--vocab-size", "8", "--len-min", "4",
            "--len-max", "4", "--n-pairs", "4", "--seed", "2",
            "--out-src", str(src), "--out-tgt", str(tgt), "--out-model", str(model))
    capsys.readouterr()
    texts = []
    for _ in range(2):
        assert run_cli("simulate", "--model", str(model), "--src", str(src),
                       "--index", "1", "--lambda", "0.1", "--suffix", "oracle",
                       "--seed", "5") == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
    records = [json.loads(line) for line in texts[0].splitlines()]
    assert records[-1]["summary"] is True
    assert all(r["kind"] in ("R", "W") for r in records[:-1])


@pytest.mark.parametrize("world", [table_world, micro_world])
def test_cli_simulate_replays_the_sweeps_sentence(monkeypatch, tmp_path, capsys, world):
    """``simulate --src F --index I --seed S`` gives sentence I the trace,
    hypothesis and g-record it gets in a sweep with seed S."""
    vocab, pairs, model = world()
    src, tgt, path = tmp_path / "s.txt", tmp_path / "t.txt", tmp_path / "m.json"
    sk.write_parallel_corpus(pairs, vocab, src, tgt)
    sk.save_model(model, path)
    model = sk.load_model(path)
    lambdas = CELL_LAMBDAS[world][1:]
    spec = SweepSpec(policy="psfuture", lambdas=lambdas, suffixes=("random",), r_max=4,
                     max_target_len=12, seed=3, random_top_k=6)
    _, sims, _ = sweep_recorded(monkeypatch, model, vocab, pairs, spec)
    assert len(pairs) >= 4 and len(sims) == len(lambdas) * len(pairs)
    assert sims[:len(pairs)] != sims[len(pairs):]  # the cells differ across lambda
    capsys.readouterr()
    for cell, lam in enumerate(lambdas):
        for i in range(len(pairs)):
            assert run_cli("simulate", "--model", str(path), "--src", str(src),
                           "--index", str(i), "--lambda", repr(lam), "--suffix", "random",
                           "--random-top-k", "6", "--r-max", "4", "--max-target-len", "12",
                           "--seed", "3") == 0
            *trace, summary = map(json.loads, capsys.readouterr().out.splitlines())
            hypothesis, g_record, want_trace, _ = sims[cell * len(pairs) + i]
            assert trace == want_trace, (lam, i)
            assert summary["hypothesis"] == " ".join(decode_sentence(hypothesis, vocab))
            assert summary["g_record"] == list(g_record)


def test_a_unidirectional_sentence_re_run_alone_keeps_the_sweeps_decisions(monkeypatch):
    """The sweep's probe memo answers a query two sentences ask from the
    first asker's sentence cache, and a UNIDIRECTIONAL micro model reads a
    prefix's encoder rows from its sentence's full-source encoding. These
    two sources share the prefix 9 4 9, so the second one's early queries
    are answered from the first one's cache; re-run alone, it keeps every
    decision, token and g-record, and each divergence within 1e-12."""
    model = sk.load_model(FIXTURES / "multipath_uni.json")
    vocab = model.vocab
    pairs = [SentencePair(s, s) for s in ((9, 4, 9, 1), (9, 4, 9, 7, 9, 5, 1))]
    spec = SweepSpec(policy="psfuture", lambdas=(0.03,), suffixes=("eos",), r_max=4,
                     max_target_len=12, seed=3)
    _, sims, forwards = sweep_recorded(monkeypatch, model, vocab, pairs, spec)
    counting = CountingModel(model)
    alone = [simulate_sentence(counting, vocab, spec.policy_config(0.03),
                               suffix_from_name("eos", vocab), pair.source) for pair in pairs]
    assert forwards < counting.forwards  # the sweep shared some of the queries
    assert_equal_but_divergences_within_1e12(
        sims, [(s.hypothesis, s.g_record, s.trace, s.truncated) for s in alone])


# sha256 of a small tail-first table sweep and of one simulate trace: a change
# to the table lookup, Distribution, the decision loop or the metrics that moves
# any output byte shows here. Most of these queries leave the table's contexts,
# so they run the backoff walk, the RMAX cap, the EOS guard and, at r_max=1,
# the EOS swap.
TABLE_SWEEP_CSV_SHA256 = "1c08fcb0e4739347eb7885d3fff12a680936785a4422e1ad1fb1785e9261c18e"
TABLE_TRACE_SHA256 = "0025c3afd47fb923672a69f30181e5262d909c2c79f47b43e5caf33d867ba3bc"


def test_table_sweep_and_trace_bytes_are_pinned(tmp_path, capsys):
    vocab, pairs, table = generate_corpus(SyntheticSpec("tail_first", 10, (5, 9), 12, seed=3))
    specs = [SweepSpec("psfuture", lambdas=(0.05, 0.2, 0.5), suffixes=("eos", "oracle", "random"),
                       r_max=4, max_target_len=16, seed=2, random_top_k=7),
             SweepSpec("psfuture", lambdas=(0.2,), suffixes=("oracle",), r_max=1,
                       max_target_len=16, seed=2),
             SweepSpec("waitk", ks=(1, 3), max_target_len=16)]
    lines = [line for spec in specs
             for line in sweep_csv_lines(run_sweep(table, vocab, pairs, spec), spec)]
    csv = "\n".join(lines) + "\n"
    assert hashlib.sha256(csv.encode()).hexdigest() == TABLE_SWEEP_CSV_SHA256

    src, model = tmp_path / "s.txt", tmp_path / "m.json"
    sk.write_parallel_corpus(pairs, vocab, src, tmp_path / "t.txt")
    sk.save_model(table, model)
    capsys.readouterr()
    assert run_cli("simulate", "--model", str(model), "--src", str(src), "--index", "0",
                   "--suffix", "oracle", "--r-max", "1", "--max-target-len", "16") == 0
    trace = capsys.readouterr().out
    assert '"swapped_eos": true' in trace
    assert hashlib.sha256(trace.encode()).hexdigest() == TABLE_TRACE_SHA256


# sha256 of a small micro sweep, one micro simulate trace and one divergence
# report on the checked-in bench checkpoints: a change to the micro forward,
# its sentence cache or the query checks that moves any output byte shows here.
# The trace and the report were re-recorded for the incremental inference
# arithmetic: every record's kind, cursor, token and reason and the report's
# write path stayed equal, and each divergence moved by at most 6.7e-16. They
# were re-recorded again for the folded inference weights (W_k W_q' / sqrt(d)
# and W_v W_o taken once per sentence cache): again every record's kind,
# cursor, token and reason and the report's write path stayed equal; a trace
# divergence moved by at most 4.5e-16 and a report cell by at most 8.9e-16.
# The sweep CSV did not move.
MICRO_SWEEP_CSV_SHA256 = "a894096b73132a99c73d9c94872343e27b8241c38d2363c8a327c74c0f5712fe"
MICRO_TRACE_SHA256 = "9b2a090c78487d61d132f8c18e28e04c152f5b6dad4881685340cea8e85061dc"
MICRO_DIVERGENCE_SHA256 = "94bb236c7c76db55132ee7759c2fb273b54eacf2c6dca8eb1ce14d5995f424fc"


def test_micro_sweep_trace_and_divergence_bytes_are_pinned(tmp_path, capsys):
    _, pairs, _ = generate_corpus(SyntheticSpec("local_swap", 10, (6, 9), 8, seed=5))
    uni = sk.load_model(FIXTURES / "multipath_uni.json")
    src, tgt = tmp_path / "s.txt", tmp_path / "t.txt"
    sk.write_parallel_corpus(pairs, uni.vocab, src, tgt)
    vocab, pairs = sk.load_parallel_corpus(src, tgt, vocab=uni.vocab)
    specs = [SweepSpec("psfuture", lambdas=(0.01, 0.03, 0.1), suffixes=("eos", "random"),
                       seed=2, random_top_k=7),
             SweepSpec("waitk", ks=(1, 3))]
    lines = [line for spec in specs
             for line in sweep_csv_lines(run_sweep(uni, vocab, pairs, spec), spec)]
    csv = "\n".join(lines) + "\n"
    assert hashlib.sha256(csv.encode()).hexdigest() == MICRO_SWEEP_CSV_SHA256

    capsys.readouterr()
    assert run_cli("simulate", "--model", str(FIXTURES / "multipath_uni.json"), "--src", str(src),
                   "--index", "1", "--suffix", "random", "--random-top-k", "7",
                   "--seed", "4") == 0
    trace = capsys.readouterr().out
    assert '"kind": "R"' in trace and '"kind": "W"' in trace
    assert hashlib.sha256(trace.encode()).hexdigest() == MICRO_TRACE_SHA256

    out = tmp_path / "d.txt"
    assert run_cli("divergence", "--model", str(FIXTURES / "p2f_bi.json"), "--src", str(src),
                   "--tgt", str(tgt), "--index", "2", "--suffix", "eos", "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == MICRO_DIVERGENCE_SHA256


def test_inner_eos_source_exits_2_on_every_command(tmp_path, capsys):
    """A source with an inner ``<eos>`` fails with the corpus loader's
    message, whether simulate reads it from --src or from --sentence."""
    vocab, _, model = copy_world(n_pairs=2)
    src, tgt, path = tmp_path / "s.txt", tmp_path / "t.txt", tmp_path / "m.json"
    sk.save_model(model, path)
    src.write_text("w1 <eos> w2\n")
    tgt.write_text("w1 w2\n")
    with pytest.raises(sk.CorpusError) as loader:
        sk.load_parallel_corpus(src, tgt, vocab=vocab)
    out = str(tmp_path / "o")
    for argv in (["simulate", "--src", str(src)],
                 ["simulate", "--sentence", "w1 <eos> w2"],
                 ["sweep", "--policy", "waitk", "--k", "1", "--src", str(src),
                  "--tgt", str(tgt), "--out", out],
                 ["divergence", "--src", str(src), "--tgt", str(tgt), "--out", out]):
        capsys.readouterr()
        assert run_cli(*argv, "--model", str(path)) == 2, argv
        assert capsys.readouterr() == ("", f"simtkit: CorpusError: {loader.value}\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("line_2, align_2, message", [
    ("w1 <eos>", "1-1", "line 2: source sequence contains more than one EOS"),
    ("w1 w2", "9-9", "line 2: alignment link (9,9) outside [1,3]x[1,3]"),
    ("w1 w2", "1:1", "line 2: bad alignment link '1:1'"),
], ids=["inner-eos", "link-outside", "bad-link"])
def test_a_bad_corpus_line_is_named(tmp_path, capsys, line_2, align_2, message):
    """A bad pair fails the whole command before its first forward, with its
    1-based line in front of the loader's message."""
    vocab, _, model = copy_world(n_pairs=2)
    src, tgt, aln, path = (tmp_path / name for name in ("s.txt", "t.txt", "a.txt", "m.json"))
    sk.save_model(model, path)
    src.write_text(f"w1 w2\n{line_2}\n")
    tgt.write_text("w1 w2\nw1 w2\n")
    aln.write_text(f"1-1\n{align_2}\n")
    with pytest.raises(sk.CorpusError) as loader:
        sk.load_parallel_corpus(src, tgt, vocab=vocab, align_path=aln)
    assert str(loader.value) == message
    commands = [["sweep", "--policy", "waitk", "--k", "1", "--align", str(aln)]]
    if align_2 == "1-1":  # divergence reads no alignment
        commands.append(["divergence", "--index", "0"])
    for argv in commands:
        capsys.readouterr()
        assert run_cli(*argv, "--src", str(src), "--tgt", str(tgt), "--model", str(path),
                       "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr() == ("", f"simtkit: CorpusError: {message}\n")
    assert not (tmp_path / "o").exists()


def test_cli_text_reports_are_their_lines_on_file_or_stdout(tmp_path, capsys):
    """Each text report is the library's lines, each ended by a newline, and
    reads the same on stdout as in a file."""
    src, tgt, path, out = (str(tmp_path / name) for name in ("s.txt", "t.txt", "m.json", "o"))
    assert run_cli("gen-corpus", "--kind", "copy", "--vocab-size", "8", "--len-min", "4",
                   "--len-max", "5", "--n-pairs", "4", "--seed", "2", "--out-src", src,
                   "--out-tgt", tgt, "--out-model", path) == 0
    model = sk.load_model(path)
    vocab, pairs = sk.load_parallel_corpus(src, tgt, vocab=model.vocab)

    def written(*argv):
        assert run_cli(*argv, "--out", out) == 0
        with open(out, "rb") as fh:
            return fh.read().decode("utf-8")

    for argv in (["simulate", "--model", path, "--src", src, "--index", "1"],
                 ["eval", "--hyp", src, "--ref", tgt]):
        capsys.readouterr()
        assert run_cli(*argv) == 0
        stdout = capsys.readouterr().out
        assert stdout.endswith("\n") and written(*argv) == stdout
    spec = SweepSpec(policy="waitk", ks=(1,))
    lines = sweep_csv_lines(run_sweep(model, vocab, pairs, spec), spec,
                            {"model": path, "src": src, "tgt": tgt})
    assert written("sweep", "--policy", "waitk", "--k", "1", "--model", path, "--src", src,
                   "--tgt", tgt) == "\n".join(lines) + "\n"
    lines = divergence_report_lines(model, vocab, pairs[0], suffix_from_name("eos", vocab),
                                    sk.PolicyConfig.lam)
    assert written("divergence", "--model", path, "--src", src, "--tgt", tgt,
                   "--suffix", "eos") == "\n".join(lines) + "\n"


def test_cli_usage_errors_exit_1(tmp_path, capsys):
    assert run_cli("simulate") == 1
    err = capsys.readouterr().err
    assert "--model" in err
    assert run_cli("sweep", "--bogus-flag") == 1
    assert run_cli() == 1


def test_cli_runtime_errors_exit_2(tmp_path, capsys):
    assert run_cli("simulate", "--model", str(tmp_path / "missing.json"),
                   "--sentence", "w0 w1") == 2
    # psfuture sweep without lambdas is a config problem detected at runtime
    src, tgt = tmp_path / "s.txt", tmp_path / "t.txt"
    model = tmp_path / "m.json"
    run_cli("gen-corpus", "--kind", "copy", "--vocab-size", "8", "--len-min", "4",
            "--len-max", "4", "--n-pairs", "2", "--seed", "2",
            "--out-src", str(src), "--out-tgt", str(tgt), "--out-model", str(model))
    assert run_cli("sweep", "--policy", "psfuture", "--lambda", "",
                   "--model", str(model), "--src", str(src), "--tgt", str(tgt),
                   "--out", str(tmp_path / "o.csv")) == 2


def test_cli_train_and_config_precedence(tmp_path, capsys):
    src, tgt = tmp_path / "s.txt", tmp_path / "t.txt"
    run_cli("gen-corpus", "--kind", "copy", "--vocab-size", "9", "--len-min", "4",
            "--len-max", "5", "--n-pairs", "8", "--seed", "4",
            "--out-src", str(src), "--out-tgt", str(tgt))
    cfg = tmp_path / "train.cfg"
    cfg.write_text(
        f"regime = p2f\nratio_r = 0.5\nepochs = 2\nbatch_size = 4\nlr = 0.1\n"
        f"seed = 3\nsrc = {src}\ntgt = {tgt}\n"
        f"checkpoint = {tmp_path / 'ck.json'}\ncurve = {tmp_path / 'curve.csv'}\n")
    assert run_cli("train", "--config", str(cfg), "--epochs", "1", "--d", "8") == 0
    curve = (tmp_path / "curve.csv").read_text().splitlines()
    assert curve[0] == "epoch,mean_loss,alpha_rate,mean_l,k_histogram"
    assert len(curve) == 2  # CLI --epochs 1 overrides the config file's 2
    loaded = sk.load_model(tmp_path / "ck.json")
    assert loaded.d == 8


def test_cli_eval_scores_files(tmp_path, capsys):
    hyp, ref = tmp_path / "h.txt", tmp_path / "r.txt"
    hyp.write_text("a b c d\n")
    ref.write_text("a b c d e\n")
    assert run_cli("eval", "--hyp", str(hyp), "--ref", str(ref)) == 0
    out = capsys.readouterr().out
    assert "77.88" in out


def test_cli_eval_with_g_records_and_alignment(tmp_path, capsys):
    hyp, ref, src = tmp_path / "h.txt", tmp_path / "r.txt", tmp_path / "s.txt"
    g_rec, aln = tmp_path / "g.txt", tmp_path / "a.txt"
    hyp.write_text("a b c d e\n")
    ref.write_text("a b c d e\n")
    src.write_text("a b c d e\n")          # N = 5 content + EOS = 6
    g_rec.write_text("6 6 6 6 6 6\n")      # offline: writes after full source
    aln.write_text("1-1 2-2 3-3\n")        # 2 of 5 hyp tokens unaligned
    assert run_cli("eval", "--hyp", str(hyp), "--ref", str(ref), "--src", str(src),
                   "--g-records", str(g_rec), "--hyp-align", str(aln)) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert row[4] == "6.0"    # AL = N for offline decoding
    assert row[5] == "100.0"
    assert row[6] == "0.4"
    # a source file with more lines than the hypotheses is rejected, as is a
    # g-record file that does not match them
    src.write_text("a b c d e\na b\n")
    assert run_cli("eval", "--hyp", str(hyp), "--ref", str(ref), "--src", str(src),
                   "--g-records", str(g_rec)) == 2
    assert capsys.readouterr().err == \
        "simtkit: ValueError: --src is not line-aligned with the corpus\n"


@pytest.mark.parametrize("g_records, message", [
    ("1 2 3\n9 9 9\n", "MetricError: line 2: g value 9 outside [1, 3]"),
    ("1 2 3\n1 x 3\n", "MetricError: line 2: invalid literal for int() with base 10: 'x'"),
    ("3 2 3\n1 2 3\n", "MetricError: line 1: g_record is not monotone non-decreasing"),
    ("1 2 3\n1 1 2 3\n", "MetricError: line 2: g-record length 4 matches neither the "
                          "hypothesis's 2 tokens nor 3 with its EOS"),
], ids=["out-of-range", "non-integer", "not-monotone", "wrong-length"])
def test_cli_eval_names_the_line_of_a_bad_g_record(tmp_path, capsys, g_records, message):
    hyp, ref, src, g_rec = (tmp_path / name for name in ("h.txt", "r.txt", "s.txt", "g.txt"))
    for path in (hyp, ref, src):
        path.write_text("a b\na b\n")  # N = 2 content + EOS = 3
    g_rec.write_text(g_records)
    assert run_cli("eval", "--hyp", str(hyp), "--ref", str(ref), "--src", str(src),
                   "--g-records", str(g_rec)) == 2
    assert capsys.readouterr().err == f"simtkit: {message}\n"


def test_cli_eval_scores_a_g_record_with_or_without_its_eos_value(tmp_path, capsys):
    hyp, ref, src, g_rec = (tmp_path / name for name in ("h.txt", "r.txt", "s.txt", "g.txt"))
    for path in (hyp, ref, src):
        path.write_text("a b\na b\n")  # N = 2 content + EOS = 3
    g_rec.write_text("1 2\n1 2 3\n")
    assert run_cli("eval", "--hyp", str(hyp), "--ref", str(ref), "--src", str(src),
                   "--g-records", str(g_rec)) == 0
    assert capsys.readouterr().out.splitlines()[1] == "external,,,,0.875,0.0,,2,0"


@pytest.mark.parametrize("alignments, message", [
    ("1-1\nx\n", "CorpusError: line 2: bad alignment link 'x'"),
    ("1-1 2-2 3-3\n", "ValueError: --hyp-align is not line-aligned with the corpus"),
    ("1-1\n1-1\n1-1\n", "ValueError: --hyp-align is not line-aligned with the corpus"),
], ids=["bad-link", "too-few-lines", "too-many-lines"])
def test_cli_eval_checks_its_hyp_align_file_as_the_loader_does(tmp_path, capsys, alignments,
                                                                message):
    hyp, ref, aln = (tmp_path / name for name in ("h.txt", "r.txt", "a.txt"))
    for path in (hyp, ref):
        path.write_text("a b\na b\n")
    aln.write_text(alignments)
    assert run_cli("eval", "--hyp", str(hyp), "--ref", str(ref), "--hyp-align", str(aln)) == 2
    assert capsys.readouterr().err == f"simtkit: {message}\n"
