import numpy as np
import pytest
from hypothesis import given, strategies as st

from simtkit import (
    ConfigError,
    CorpusError,
    Distribution,
    PolicyConfig,
    SentencePair,
    Vocabulary,
    build_vocabulary,
    load_parallel_corpus,
    validate_pair,
    write_parallel_corpus,
)

from conftest import make_vocab
from simtkit.core import DIST_TOL


# -- vocabulary -------------------------------------------------------------

def test_build_vocabulary_counts_and_specials():
    vocab = build_vocabulary([["a", "b"], ["a"]])
    assert len(vocab) == 5
    assert vocab.tokens[:3] == ("<bos>", "<eos>", "<unk>")
    assert vocab.freq_rank["a"] == 1
    assert vocab.id_of[vocab.tokens[3]] == 3


def test_vocabulary_id_of_is_derived_not_passed():
    tokens = ("<bos>", "<eos>", "<unk>", "a")
    with pytest.raises(TypeError):
        Vocabulary(tokens=tokens, bos=0, eos=1, unk=2,
                   id_of={"<bos>": 1, "<eos>": 2, "<unk>": 3, "a": 0})
    vocab = Vocabulary(tokens=tokens, bos=0, eos=1, unk=2)
    assert all(vocab.token(vocab.id(t)) == t for t in tokens)


def test_build_vocabulary_empty_corpus_rejected():
    with pytest.raises(ConfigError):
        build_vocabulary([])


def test_freq_rank_tie_broken_by_first_occurrence():
    corpus = [["a", "b"] * 10]  # a and b both occur 10 times, a seen first
    vocab = build_vocabulary(corpus)
    # independent recount
    counts = {}
    for sent in corpus:
        for tok in sent:
            counts[tok] = counts.get(tok, 0) + 1
    assert counts["a"] == counts["b"] == 10
    assert vocab.freq_rank["a"] == 1
    assert vocab.freq_rank["b"] == 2


def test_top_ranked_ids_ordering_and_bounds():
    vocab = build_vocabulary([["x"] * 3 + ["y"] * 2 + ["z"]])
    ids = vocab.top_ranked_ids(2)
    assert [vocab.token(i) for i in ids] == ["x", "y"]
    with pytest.raises(ConfigError, match="top_k=99 exceeds 3 ranked tokens"):
        vocab.top_ranked_ids(99)
    for bad in (0, -1):  # -1 would otherwise slice off the last ranked token
        with pytest.raises(ConfigError, match=f"top_k={bad} must be >= 1"):
            vocab.top_ranked_ids(bad)


def test_vocab_invariants_enforced():
    with pytest.raises(ConfigError):
        Vocabulary(tokens=("a", "b", "c"), bos=0, eos=0, unk=2)
    with pytest.raises(ConfigError):
        Vocabulary(tokens=("a", "b", "c"), bos=0, eos=1, unk=5)
    with pytest.raises(ConfigError):
        Vocabulary(tokens=("a", "b", "c", "d"), bos=0, eos=1, unk=2,
                   freq_rank={"d": 2})  # ranks must start at 1
    for bad in (1.5, "1", None, True, np.float64(1.0)):
        with pytest.raises(ConfigError, match=r"^eos id .* is not an integer$"):
            Vocabulary(tokens=("a", "b", "c"), bos=0, eos=bad, unk=2)
    Vocabulary(tokens=("a", "b", "c"), bos=np.int64(0), eos=1, unk=2)


def test_a_ranked_special_token_is_rejected():
    """Special tokens are never ranked, so a random suffix over the top
    ranks can draw no BOS, EOS or UNK."""
    tokens = ("<bos>", "<eos>", "<unk>", "a")
    for special in tokens[:3]:
        with pytest.raises(ConfigError, match=f"^special token '{special}' must not be ranked$"):
            Vocabulary(tokens=tokens, bos=0, eos=1, unk=2, freq_rank={"a": 1, special: 2})
    with pytest.raises(ConfigError, match="^special token '<bos>' must not be ranked$"):
        Vocabulary(tokens=tokens, bos=0, eos=1, unk=2,
                   freq_rank={"<bos>": 1, "<eos>": 2, "a": 3})
    # a special is told by its id, not by its name
    vocab = Vocabulary(tokens=("s", "e", "u", "<bos>"), bos=0, eos=1, unk=2,
                       freq_rank={"<bos>": 1})
    assert vocab.top_ranked_ids(1) == (3,)


# -- distributions ----------------------------------------------------------

def test_distribution_accepts_valid_rejects_invalid():
    Distribution([0.5, 0.5])
    Distribution([1.0, 0.0])
    with pytest.raises(ValueError):
        Distribution([0.6, 0.6])
    with pytest.raises(ValueError):
        Distribution([-0.1, 1.1])
    with pytest.raises(ValueError):
        Distribution([0.5, 0.5 - 1e-6])
    for bad in ([np.nan, 0.5, 0.5], [np.nan], [None, 1.0], [np.inf, np.nan]):
        with pytest.raises(ValueError, match="distribution mass"):
            Distribution(bad)  # a NaN entry makes a NaN mass


@given(st.lists(st.floats(min_value=0.001, max_value=10.0), min_size=2, max_size=30))
def test_distribution_normalized_vectors_accepted(raw):
    vec = np.asarray(raw)
    dist = Distribution(vec / vec.sum())
    assert abs(float(dist.probs.sum()) - 1.0) <= 1e-9
    assert not dist.probs.flags.writeable


@given(st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0]), min_size=1, max_size=12)
       .filter(lambda raw: sum(raw) > 0))
def test_distribution_argmax_is_numpys_first_maximum_on_every_call(raw):
    # few distinct weights, so ties among maximal entries are common
    vec = np.asarray(raw) / sum(raw)
    dist = Distribution(vec)
    first = dist.argmax()
    assert type(first) is int
    assert first == int(np.argmax(vec)) == raw.index(max(raw))  # lowest index wins
    assert dist.argmax() == dist.argmax() == first


@st.composite
def probability_vectors(draw):
    """A float64 vector that is a valid distribution, or one spoilt by a
    negative entry, a NaN entry or a mass 10 tolerances off one, with the
    name of its spoil ("none" when it is valid)."""
    raw = np.asarray(draw(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=12)))
    vec = raw / raw.sum() if raw.sum() > 0 else np.full(raw.size, 1.0 / raw.size)
    spoil, i = draw(st.sampled_from(["none", "negative", "nan", "heavy", "light"])), \
        draw(st.integers(0, vec.size - 1))
    if spoil == "negative":
        vec[i] = -draw(st.floats(1e-300, 1.0))
    elif spoil == "nan":
        vec[i] = np.nan
    elif spoil == "heavy":
        vec[i] += 10 * DIST_TOL
    elif spoil == "light":
        vec[np.argmax(vec)] -= 10 * DIST_TOL  # the largest entry is at least 1/12
    return spoil, vec


@given(case=probability_vectors())
def test_the_constructor_accepts_exactly_the_unspoilt_vectors_and_keeps_a_copy(case):
    """``Distribution(...)`` accepts every valid vector and rejects each
    spoilt one with its message. It keeps a read-only copy: a later write to
    the caller's array, which stays writable, changes nothing."""
    spoil, vec = case
    if spoil != "none":
        message = "distribution has negative entries" if spoil == "negative" else \
            f"distribution mass {float(vec.sum())!r} not within {DIST_TOL} of 1"
        with pytest.raises(ValueError) as raised:
            Distribution(vec)
        assert str(raised.value) == message
        return
    kept = vec.tobytes()
    dist = Distribution(vec)
    assert dist.probs is not vec and dist.probs.tobytes() == kept
    vec[:] = 2.0
    assert dist.probs.tobytes() == kept
    assert vec.flags.writeable and not dist.probs.flags.writeable
    with pytest.raises(ValueError):
        dist.probs[0] = 0.0


# -- sentence pairs ---------------------------------------------------------

def test_validate_pair_happy_and_errors():
    vocab = make_vocab()
    validate_pair(SentencePair(source=(5, 1), target=(7, 1)), vocab)
    with pytest.raises(CorpusError):
        validate_pair(SentencePair(source=(5,), target=(7, 1)), vocab)  # no EOS
    with pytest.raises(CorpusError):
        validate_pair(SentencePair(source=(99, 1), target=(7, 1)), vocab)
    with pytest.raises(CorpusError):
        validate_pair(SentencePair(source=(5, 1), target=(7, 1),
                                   alignment=frozenset({(3, 1)})), vocab)
    with pytest.raises(CorpusError):
        validate_pair(SentencePair(source=(1, 5, 1), target=(7, 1)), vocab)


# -- policy config / decisions ----------------------------------------------

def test_policy_config_validation():
    PolicyConfig(lam=-0.5)  # negative lambda is a legal degenerate probe
    with pytest.raises(ConfigError):
        PolicyConfig(initial_prefix=0)
    with pytest.raises(ConfigError):
        PolicyConfig(max_target_len=0)
    with pytest.raises(ConfigError):
        PolicyConfig(r_max=0)


# -- corpus file I/O ----------------------------------------------------------

def test_corpus_round_trip(tmp_path):
    vocab = make_vocab()
    pairs = [
        SentencePair(source=(3, 4, 1), target=(4, 3, 1),
                     alignment=frozenset({(1, 2), (2, 1), (3, 3)})),
        SentencePair(source=(5, 1), target=(5, 1),
                     alignment=frozenset({(1, 1), (2, 2)})),
    ]
    src, tgt, aln = tmp_path / "s.txt", tmp_path / "t.txt", tmp_path / "a.txt"
    write_parallel_corpus(pairs, vocab, src, tgt, align_path=aln)
    vocab2, loaded = load_parallel_corpus(src, tgt, vocab=vocab, align_path=aln)
    assert loaded == pairs
    # EOS never appears in the files themselves
    assert "<eos>" not in src.read_text() + tgt.read_text()


def test_corpus_load_errors(tmp_path):
    (tmp_path / "s.txt").write_text("a b\nc\n")
    (tmp_path / "t.txt").write_text("a b\n")
    with pytest.raises(CorpusError):
        load_parallel_corpus(tmp_path / "s.txt", tmp_path / "t.txt")


def test_corpus_oov_maps_to_unk(tmp_path):
    vocab = make_vocab()
    (tmp_path / "s.txt").write_text("w0 mystery\n")
    (tmp_path / "t.txt").write_text("w0 w1\n")
    _, pairs = load_parallel_corpus(tmp_path / "s.txt", tmp_path / "t.txt", vocab=vocab)
    assert pairs[0].source == (3, vocab.unk, 1)
