import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from simtkit import (
    ModelFileError,
    TableModel,
    Vocabulary,
    load_model,
    save_model,
    uniform_distribution,
)
from simtkit.tables import backoff_probes


def _oracle_probe_order(src, tgt):
    """Hand-written probe order per the documented schedule: target suffixes
    (full, 2, 1, 0) under the full source, then the same under source
    suffixes (2, 1, 0). Deduplicated, most specific first."""
    def suffixes(seq):
        out = []
        for lvl in (len(seq), 2, 1, 0):
            if lvl <= len(seq):
                cand = tuple(seq[len(seq) - lvl:])
                if cand not in out:
                    out.append(cand)
        return out

    order = []
    for s in suffixes(src):
        for t in suffixes(tgt):
            if (s, t) not in order:
                order.append((s, t))
    return order


def _linear_scan_lookup(entry_items, src, tgt, default):
    for key in _oracle_probe_order(src, tgt):
        for stored_key, dist in entry_items:
            if stored_key == key:
                return dist.probs
    return default.probs


def test_copy_delta_and_default_lookup():
    n = 6
    entries = {((3,), ()): np.eye(n)[3]}
    model = TableModel(n, entries, uniform_distribution(n).probs)
    assert model.next_dist((3,), ()).argmax() == 3
    # unseen context falls through to the uniform default
    out = model.next_dist((4, 5), (3,)).probs
    assert np.array_equal(out, np.full(n, 1 / n))


def test_entry_at_truncation_level_found():
    n = 6
    # only a target-suffix-1 entry exists for this source context
    entries = {((3, 4), (5,)): np.eye(n)[2]}
    model = TableModel(n, entries, uniform_distribution(n).probs)
    out = model.next_dist((3, 4), (4, 4, 5))  # full target (4,4,5) misses
    assert out.argmax() == 2


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_lookup_matches_linear_scan_oracle(data):
    n = 6
    rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
    ids = st.integers(min_value=0, max_value=n - 1)
    seqs = st.lists(ids, max_size=4).map(tuple)
    entries = {}
    for _ in range(data.draw(st.integers(0, 8))):
        key = (data.draw(seqs), data.draw(seqs))
        vec = rng.random(n) + 0.01
        entries[key] = vec / vec.sum()
    model = TableModel(n, entries, uniform_distribution(n).probs)
    entry_items = list(model.entries.items())
    for _ in range(5):
        src, tgt = data.draw(seqs), data.draw(seqs)
        expected = _linear_scan_lookup(entry_items, src, tgt, model.default)
        assert np.array_equal(model.next_dist(src, tgt).probs, expected)


def test_probe_order_most_specific_first():
    probes = backoff_probes((7, 8, 9), (1, 2, 3))
    assert probes[0] == ((7, 8, 9), (1, 2, 3))
    assert probes[1] == ((7, 8, 9), (2, 3))
    assert probes[-1] == ((), ())
    assert probes == _oracle_probe_order((7, 8, 9), (1, 2, 3))


def test_determinism_and_totality_on_random_queries():
    n = 8
    rng = np.random.default_rng(5)
    entries = {}
    for _ in range(30):
        src = tuple(int(x) for x in rng.integers(0, n, size=rng.integers(1, 5)))
        tgt = tuple(int(x) for x in rng.integers(0, n, size=rng.integers(0, 4)))
        vec = rng.random(n) + 0.01
        entries[(src, tgt)] = vec / vec.sum()
    model = TableModel(n, entries, uniform_distribution(n).probs)
    for _ in range(10_000):
        src = tuple(int(x) for x in rng.integers(0, n, size=rng.integers(1, 6)))
        tgt = tuple(int(x) for x in rng.integers(0, n, size=rng.integers(0, 5)))
        first = model.next_dist(src, tgt)
        assert abs(float(first.probs.sum()) - 1.0) <= 1e-9
        assert np.array_equal(first.probs, model.next_dist(src, tgt).probs)


def test_bad_backoff_and_bad_dist_rejected(tmp_path):
    n = 4
    vocab = Vocabulary(tokens=("<bos>", "<eos>", "<unk>", "w0"), bos=0, eos=1, unk=2)
    path = tmp_path / "t.json"
    save_model(TableModel(n, {}, uniform_distribution(n).probs, vocab=vocab), path)
    text = path.read_text()
    assert '"backoff": "t2,t1,t0,s*"' in text
    path.write_text(text.replace('"backoff": "t2,t1,t0,s*"', '"backoff": "bogus"'))
    with pytest.raises(ModelFileError, match="bogus"):
        load_model(path)
    with pytest.raises(ValueError):
        TableModel(n, {((0,), ()): [0.5, 0.5]}, uniform_distribution(n).probs)
