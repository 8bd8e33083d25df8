import hashlib
import itertools

import numpy as np
import pytest

import simtkit as sk
from simtkit import ConfigError, SyntheticSpec, generate_corpus, validate_pair
from simtkit.cli import main
from simtkit.synthetic import _source_index, possible_next_tokens


def test_copy_pair_shape_and_alignment():
    vocab, pairs, _ = generate_corpus(
        SyntheticSpec(kind="copy", vocab_size=8, n_range=(4, 4), n_pairs=3, seed=0))
    for p in pairs:
        validate_pair(p, vocab)
        assert p.target == p.source
        assert p.alignment == frozenset({(i, i) for i in range(1, 5)})


def test_local_swap_pair_shape():
    vocab, pairs, _ = generate_corpus(
        SyntheticSpec(kind="local_swap", vocab_size=9, n_range=(5, 5), n_pairs=2, seed=1))
    for p in pairs:
        a, b, c, d = p.source[:4]
        assert p.target == (b, a, d, c, p.source[4])
        assert (1, 2) in p.alignment and (2, 1) in p.alignment
        assert (5, 5) in p.alignment


def test_local_swap_odd_tail_stays():
    # 5 content tokens, window 2: blocks (1,2) (3,4) swap, 5 stays
    assert [_source_index("local_swap", 2, 5, t) for t in range(1, 6)] == [2, 1, 4, 3, 5]


def test_tail_first_pair_shape():
    vocab, pairs, _ = generate_corpus(
        SyntheticSpec(kind="tail_first", vocab_size=8, n_range=(5, 5), n_pairs=2, seed=2))
    for p in pairs:
        content = p.source[:-1]
        assert p.target == (content[-1],) + content[:-1] + (vocab.eos,)
        assert (1, len(content)) in p.alignment


def test_spec_validation():
    with pytest.raises(ConfigError):
        SyntheticSpec(kind="mystery")
    with pytest.raises(ConfigError):
        SyntheticSpec(kind="copy", vocab_size=3)
    with pytest.raises(ConfigError):
        SyntheticSpec(kind="copy", n_range=(1, 4))
    with pytest.raises(ConfigError):
        SyntheticSpec(kind="copy", n_range=(6, 4))


# -- enumeration oracle for the next-token sets ---------------------------------

def brute_force_next_tokens(kind, window, m_bounds, content_ids, eos, src_ctx, t):
    """Enumerate every corpus-consistent completion of src_ctx and collect the
    set of tokens observed at target position t."""
    out = set()
    if eos in src_ctx:
        candidates = [src_ctx[:-1]]
    else:
        j = len(src_ctx)
        candidates = []
        for m in range(m_bounds[0], m_bounds[1] + 1):
            if m < j:
                continue
            for tail in itertools.product(content_ids, repeat=m - j):
                candidates.append(tuple(src_ctx) + tail)
        if not candidates:  # context longer than the language admits
            candidates = [tuple(src_ctx)]
    for content in candidates:
        m = len(content)
        if t > m:
            out.add(eos)
        else:
            from simtkit.synthetic import _source_index as srcidx
            out.add(content[srcidx(kind, window, m, t) - 1])
    return out


@pytest.mark.parametrize("kind", ["copy", "local_swap", "tail_first"])
def test_possible_next_tokens_matches_enumeration(kind):
    content_ids = (3, 4, 5)
    eos = 1
    rng = np.random.default_rng(7)
    for m_bounds in [(2, 4), (3, 3), (1, 3)]:
        for _ in range(60):
            complete = rng.random() < 0.4
            j = int(rng.integers(1, m_bounds[1] + 1))
            ctx = tuple(int(content_ids[i]) for i in rng.integers(0, 3, size=j))
            if complete:
                ctx = ctx + (eos,)
            t = int(rng.integers(1, m_bounds[1] + 2))
            got = possible_next_tokens(kind, 2, m_bounds, content_ids, eos, ctx, t)
            want = brute_force_next_tokens(kind, 2, m_bounds, content_ids, eos, ctx, t)
            assert got == want, (kind, m_bounds, ctx, t)


def test_tail_first_table_first_token_cells():
    # fixed length N: uniform before the last content token arrives, a delta at
    # j = N-1, verified per cell against the model itself
    n = 6
    vocab, pairs, model = generate_corpus(
        SyntheticSpec(kind="tail_first", vocab_size=8, n_range=(n, n), n_pairs=4, seed=3))
    k_content = len(vocab) - 3
    for p in pairs:
        for j in range(1, n - 1):
            probs = model.next_dist(p.source[:j], ()).probs
            assert np.count_nonzero(probs) == k_content
            assert np.isclose(probs.max(), 1.0 / k_content)
        delta = model.next_dist(p.source[:n - 1], ()).probs
        assert delta[p.target[0]] == 1.0 and np.count_nonzero(delta) == 1


@pytest.mark.parametrize("kind", ["copy", "local_swap", "tail_first"])
def test_table_default_is_uniform_over_emittable_tokens(kind):
    vocab, _, model = generate_corpus(SyntheticSpec(kind=kind, vocab_size=8, seed=2))
    emittable = [vocab.eos] + [i for i in range(len(vocab)) if i >= 3]
    probs = model.default.probs
    assert probs[vocab.bos] == probs[vocab.unk] == 0.0
    assert set(probs[emittable]) == {1.0 / len(emittable)}
    # a context the language never produces writes EOS, not BOS
    off_table = model.next_dist((vocab.unk, vocab.eos), (vocab.unk,) * 3)
    assert off_table is model.default and off_table.argmax() == vocab.eos


def test_copy_table_determined_cells_are_correct_deltas():
    vocab, pairs, model = generate_corpus(
        SyntheticSpec(kind="copy", vocab_size=8, n_range=(4, 6), n_pairs=5, seed=4))
    for p in pairs:
        n = len(p.source)
        for j in range(1, n + 1):
            for t in range(1, min(j, len(p.target)) + 1):
                probs = model.next_dist(p.source[:j], p.target[:t - 1]).probs
                assert probs[p.target[t - 1]] == 1.0


def test_generated_corpus_round_trips_through_files(tmp_path):
    vocab, pairs, _ = generate_corpus(
        SyntheticSpec(kind="local_swap", vocab_size=10, n_range=(4, 8),
                      n_pairs=20, seed=5))
    sk.write_parallel_corpus(pairs, vocab, tmp_path / "s.txt", tmp_path / "t.txt",
                             align_path=tmp_path / "a.txt")
    _, loaded = sk.load_parallel_corpus(tmp_path / "s.txt", tmp_path / "t.txt",
                                        vocab=vocab, align_path=tmp_path / "a.txt")
    assert loaded == pairs


def test_freq_rank_reflects_corpus_counts():
    vocab, pairs, _ = generate_corpus(
        SyntheticSpec(kind="copy", vocab_size=9, n_range=(4, 8), n_pairs=50, seed=6))
    counts = {}
    for p in pairs:
        for tok in p.source[:-1]:
            counts[tok] = counts.get(tok, 0) + 1
    ranked = sorted(counts, key=lambda i: (-counts[i], i))
    for rank, tok_id in enumerate(ranked, start=1):
        assert vocab.freq_rank[vocab.token(tok_id)] == rank


# sha256 of small `gen-corpus --out-model` files: a change that moves any
# byte of a model file (a float, the key order, the layout) shows here
MODEL_FILE_SHA256 = {
    ("copy", 2): "39f510893363cbfb43be581779339da9b50a94a3329fcf5b78d41a04a0fc3e5c",
    ("local-swap", 5): "05cd1133795032e99c651dbbbce1673a17e2c3752f2dfaa0c8010f49b5b34b4f",
    ("tail-first", 7): "422fdb43cab6c6b1bc7948b0388d4d7b0714b801c78b1551e5608a080701de4c",
}


@pytest.mark.parametrize("kind, seed", sorted(MODEL_FILE_SHA256))
def test_gen_corpus_model_file_bytes_are_pinned(tmp_path, kind, seed):
    out = tmp_path / "table.json"
    assert main(["gen-corpus", "--kind", kind, "--vocab-size", "8", "--len-min", "4",
                 "--len-max", "7", "--n-pairs", "6", "--window", "3", "--seed", str(seed),
                 "--out-src", str(tmp_path / "s"), "--out-tgt", str(tmp_path / "t"),
                 "--out-model", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == MODEL_FILE_SHA256[kind, seed]
