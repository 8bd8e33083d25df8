import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from simtkit import (
    EvalResult,
    MetricError,
    SentencePair,
    average_lagging,
    corpus_bleu,
    evaluate_run,
    hallucination_rate,
)

import bleu_oracle
from conftest import make_vocab


# -- average lagging -----------------------------------------------------------

def test_al_waitk_closed_form_family():
    # equal-length pairs: AL of wait-k is exactly k for every N >= k+1
    for k in range(1, 6):
        for n in range(k + 1, 13):
            g = [min(t + k - 1, n) for t in range(1, n + 1)]
            assert average_lagging(g, n) == float(k), (k, n)


def test_al_offline_and_single_write():
    assert average_lagging([7] * 5, 7) == 7.0  # tau = 1, AL = N
    assert average_lagging([1], 1) == 1.0


def test_al_content_independent_and_validation():
    g = [2, 2, 3, 4]
    assert average_lagging(g, 4) == average_lagging(list(g), 4)
    with pytest.raises(MetricError):
        average_lagging([], 4)
    with pytest.raises(MetricError):
        average_lagging([3, 2], 4)
    with pytest.raises(MetricError):
        average_lagging([0, 2], 4)
    with pytest.raises(MetricError):
        average_lagging([2, 5], 4)


# -- corpus BLEU ------------------------------------------------------------------

def test_bleu_identity_is_exactly_100():
    hyps = [["a", "b", "c", "d", "e"], ["x", "y", "z", "w"]]
    assert corpus_bleu(hyps, [list(h) for h in hyps]) == 100.0


def test_bleu_brevity_penalty_hand_case():
    got = corpus_bleu([["a", "b", "c", "d"]], [["a", "b", "c", "d", "e"]])
    assert math.isclose(got, 100 * math.exp(1 - 5 / 4), rel_tol=0, abs_tol=1e-9)
    assert abs(got - 77.88) < 0.01


def test_bleu_empty_and_zero_cases():
    assert corpus_bleu([[], []], [["a"], ["b"]]) == 0.0
    assert corpus_bleu([["q", "q", "q", "q", "q"]], [["a", "b", "c", "d", "e"]]) == 0.0


def test_bleu_case_insensitive():
    assert corpus_bleu([["A", "b", "C", "d", "E"]], [["a", "B", "c", "D", "e"]]) == 100.0


def test_bleu_mismatched_lengths_rejected():
    with pytest.raises(MetricError):
        corpus_bleu([["a"]], [])


@given(st.integers(0, 10_000))
def test_bleu_permutation_invariant(seed):
    rng = random.Random(seed)
    alphabet = ["a", "b", "c", "d", "e", "f"]
    hyps = [[rng.choice(alphabet) for _ in range(rng.randint(1, 8))] for _ in range(6)]
    refs = [[rng.choice(alphabet) for _ in range(rng.randint(1, 8))] for _ in range(6)]
    order = list(range(6))
    rng.shuffle(order)
    base = corpus_bleu(hyps, refs)
    shuffled = corpus_bleu([hyps[i] for i in order], [refs[i] for i in order])
    assert math.isclose(base, shuffled, rel_tol=1e-12)


# mixed case, few letters: repeated n-grams, clipping and case folding are common
_TOKENS = st.sampled_from(["a", "A", "b", "B", "c"])


@st.composite
def _bleu_pair(draw):
    """A hypothesis of 0-9 tokens and a reference that is a random sentence or
    the hypothesis with tokens added around it, so that all four precisions
    are often non-zero."""
    hyp = draw(st.lists(_TOKENS, max_size=9))
    if draw(st.booleans()):
        ref = draw(st.lists(_TOKENS, min_size=1, max_size=9))
    else:
        ref = draw(st.lists(_TOKENS, max_size=2)) + hyp + draw(st.lists(_TOKENS, max_size=2))
    return hyp, ref


@settings(max_examples=300)
@given(st.lists(_bleu_pair(), min_size=1, max_size=6))
@example([([], ["a"]), ([], ["b", "c"])])                  # every hypothesis empty
@example([(["a", "b", "c"], ["a", "b", "c"])])            # no 4-gram at all
@example([(["A", "b", "a", "B", "a", "b"], ["a", "B", "a", "b", "A", "b"])])  # repeats
def test_bleu_equals_the_slice_oracle_exactly(pairs):
    hyps = [hyp for hyp, _ in pairs]
    refs = [ref for _, ref in pairs]
    assert corpus_bleu(hyps, refs) == bleu_oracle.corpus_bleu(hyps, refs)


# -- hallucination rate --------------------------------------------------------------

def test_hallucination_arithmetic():
    hyps = [["a", "b", "c", "d", "e"]]
    full = frozenset({(i, i) for i in range(1, 6)})
    assert hallucination_rate(hyps, [full]) == 0.0
    assert hallucination_rate(hyps, [frozenset()]) == 1.0
    partial = frozenset({(1, 1), (2, 4), (5, 2)})
    assert hallucination_rate(hyps, [partial]) == 0.4  # 2 of 5 unaligned


def test_hallucination_invariant_to_extra_links():
    hyps = [["a", "b", "c"]]
    links = frozenset({(1, 1), (3, 2)})
    more = links | {(1, 2), (1, 3), (3, 3)}
    assert hallucination_rate(hyps, [links]) == hallucination_rate(hyps, [more])


def test_hallucination_missing_alignment_rejected():
    with pytest.raises(MetricError):
        hallucination_rate([["a"], ["b"]], [frozenset({(1, 1)}), None])


# -- evaluate_run -----------------------------------------------------------------------

def test_evaluate_run_perfect_sentence_offline():
    vocab = make_vocab()
    pair = SentencePair(source=(3, 4, 5, 6, 1), target=(3, 4, 5, 6, 1),
                        alignment=frozenset({(i, i) for i in range(1, 6)}))
    n = len(pair.source)
    res = evaluate_run(vocab, [pair.source], [pair.target], [pair.target],
                       [[n] * n], [pair.alignment],
                       policy="psfuture", lambda_or_k=0.1, suffix="eos", seed=0)
    assert res.al == float(n) and res.bleu == 100.0 and res.hr == 0.0
    assert res.n_sentences == 1


def test_evaluate_run_empty_corpus_rejected():
    vocab = make_vocab()
    with pytest.raises(MetricError):
        evaluate_run(vocab, [], [], [], [])


def test_evaluate_run_matches_standalone_metrics():
    vocab = make_vocab()
    rng = np.random.default_rng(0)
    sources, refs, hyps, g_records = [], [], [], []
    for _ in range(5):
        n = int(rng.integers(3, 7))
        src = tuple(int(x) for x in rng.integers(3, 11, size=n - 1)) + (1,)
        hyp = tuple(int(x) for x in rng.integers(3, 11, size=n - 1)) + (1,)
        g = sorted(int(x) for x in rng.integers(1, n + 1, size=n))
        sources.append(src)
        refs.append(src)
        hyps.append(hyp)
        g_records.append(g)
    res = evaluate_run(vocab, sources, refs, hyps, g_records)
    als = [average_lagging(g, len(s)) for g, s in zip(g_records, sources)]
    assert math.isclose(res.al, sum(als) / len(als), rel_tol=1e-12)
    from simtkit.core import decode_sentence
    expected_bleu = corpus_bleu([decode_sentence(h, vocab) for h in hyps],
                                [decode_sentence(r, vocab) for r in refs])
    assert res.bleu == expected_bleu
    assert res.hr is None


def test_evaluate_run_rejects_empty_hypothesis_naming_the_sentence():
    vocab = make_vocab()
    src = (3, 4, 5, 1)
    good = (3, 4, 5, 1)
    with pytest.raises(MetricError, match="^sentence 1: average lagging is undefined "
                                          "for an empty hypothesis$"):
        evaluate_run(vocab, [src, src], [good, good], [good, ()], [[4, 4, 4, 4], []])


def test_eval_result_csv_row_shape():
    row = EvalResult(policy="waitk", lambda_or_k=3, suffix="", r_max=None,
                     al=3.0, bleu=100.0, hr=None, n_sentences=5, seed=1).csv_row()
    assert row == "waitk,3,,,3.0,100.0,,5,1"
