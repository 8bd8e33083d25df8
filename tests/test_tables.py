import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from simtkit import (
    Distribution,
    ModelFileError,
    SyntheticSpec,
    TableModel,
    generate_corpus,
    load_model,
    save_model,
    uniform_distribution,
)
from simtkit.core import DIST_TOL
from simtkit.tables import backoff_probes

from conftest import make_vocab


def _table(n, entries):
    """A table over an ``n``-token vocabulary whose default is uniform."""
    return TableModel(make_vocab(n - 3), {key: Distribution(vec) for key, vec in entries.items()},
                      uniform_distribution(n, range(n)))


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
    model = _table(n, {((3,), ()): np.eye(n)[3]})
    assert model.next_dist((3,), ()).argmax() == 3
    # unseen context falls through to the uniform default
    out = model.next_dist((4, 5), (3,)).probs
    assert np.array_equal(out, np.full(n, 1 / n))


def test_entry_at_truncation_level_found():
    n = 6
    # only a target-suffix-1 entry exists for this source context
    model = _table(n, {((3, 4), (5,)): np.eye(n)[2]})
    out = model.next_dist((3, 4), (4, 4, 5))  # full target (4,4,5) misses
    assert out.argmax() == 2


def _context(rng, n, max_len):
    return tuple(int(x) for x in rng.integers(0, n, size=rng.integers(0, max_len + 1)))


def _queries_from_keys(rng, n, keys, count):
    """Queries that end in a stored key: random tokens in front of an entry's
    source and target, mixed with empty targets, 1-token sources and
    unrelated contexts, so first hits fall at every backoff position. With
    no keys, every query is an unrelated context."""
    out = []
    for _ in range(count):
        if not keys:
            out.append((_context(rng, n, 4), _context(rng, n, 4)))
            continue
        src, tgt = keys[rng.integers(len(keys))]
        src, tgt = _context(rng, n, 3) + src, _context(rng, n, 3) + tgt
        kind = rng.integers(10)  # 5 in 10 as built, 2 empty targets, 2 short sources
        if kind in (5, 6):
            tgt = ()
        elif kind in (7, 8):
            src = src[-1:] or (int(rng.integers(n)),)
        elif kind == 9:
            src, tgt = _context(rng, n, 4), _context(rng, n, 4)
        out.append((src, tgt))
    return out


def _oracle_case(rng, n=6):
    """A table of 0 to 8 random entries over contexts of up to 4 tokens, and
    8 queries built from its keys."""
    entries = {}
    for _ in range(rng.integers(0, 9)):
        vec = rng.random(n) + 0.01
        entries[(_context(rng, n, 4), _context(rng, n, 4))] = vec / vec.sum()
    model = _table(n, entries)
    return model, _queries_from_keys(rng, n, list(model.entries), 8)


def _first_hit_position(model, src, tgt):
    """The position in ``backoff_probes`` of the first stored key, else None."""
    for pos, key in enumerate(backoff_probes(src, tgt)):
        if key in model.entries:
            return pos
    return None


def _check_lookup(model, src, tgt):
    expected = _linear_scan_lookup(list(model.entries.items()), src, tgt, model.default)
    got = model.next_dist(src, tgt)
    assert np.array_equal(got.probs, expected)
    # the stored object of the first probe that hits, else the default
    pos = _first_hit_position(model, src, tgt)
    assert got is (model.default if pos is None else
                   model.entries[backoff_probes(src, tgt)[pos]])
    return pos


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_lookup_matches_linear_scan_oracle(seed):
    model, queries = _oracle_case(np.random.default_rng(seed))
    for src, tgt in queries:
        _check_lookup(model, src, tgt)


def test_empty_table_answers_every_query_with_its_default(monkeypatch):
    built = []
    build = TableModel._build_index
    monkeypatch.setattr(TableModel, "_build_index", lambda self: built.append(self) or build(self))
    model = _table(6, {})
    for src, tgt in _queries_from_keys(np.random.default_rng(5), 6, [], 50):
        assert _check_lookup(model, src, tgt) is None
        assert model.next_dist(src, tgt) is model.default
    assert built == [model]


def test_entries_are_a_read_only_copy():
    one, two = Distribution(np.eye(6)[1]), Distribution(np.eye(6)[2])
    given = {((1,), ()): one}
    model = TableModel(make_vocab(3), given, uniform_distribution(6, range(6)))
    with pytest.raises(TypeError):
        model.entries[((2,), ())] = two
    with pytest.raises(TypeError):
        del model.entries[((1,), ())]
    given[((2,), ())] = two  # the caller's dict is not the table's
    assert dict(model.entries) == {((1,), ()): one}
    assert model.next_dist((2,), ()) is model.default


def test_oracle_queries_first_hit_every_backoff_position():
    """The oracle test's queries reach each of the 16 probe positions of a
    query with 3+ source and 3+ target tokens, and the default."""
    rng = np.random.default_rng(0)
    seen = set()
    for _ in range(400):
        model, queries = _oracle_case(rng)
        for src, tgt in queries:
            seen.add(_check_lookup(model, src, tgt))
    assert seen == set(range(16)) | {None}


def test_reloaded_table_answers_with_its_own_first_hit(tmp_path):
    _, _, table = generate_corpus(SyntheticSpec("tail_first", 10, (5, 9), 40, seed=1))
    save_model(table, tmp_path / "t.json")
    loaded = load_model(tmp_path / "t.json")
    queries = _queries_from_keys(np.random.default_rng(3), 10, sorted(table.entries), 500)
    for src, tgt in queries:
        got = loaded.next_dist(src, tgt)
        assert got.probs.tobytes() == table.next_dist(src, tgt).probs.tobytes()
        hits = [loaded.entries[key] for key in backoff_probes(src, tgt) if key in loaded.entries]
        assert got is (hits[0] if hits else loaded.default)


def test_index_is_built_by_the_first_lookup_and_kept(tmp_path, monkeypatch):
    built = []
    build = TableModel._build_index

    def counted(self):
        built.append(self)
        return build(self)

    monkeypatch.setattr(TableModel, "_build_index", counted)
    _, _, table = generate_corpus(SyntheticSpec("tail_first", 10, (5, 9), 40, seed=1))
    save_model(table, tmp_path / "t.json")
    load_model(tmp_path / "t.json")
    assert built == []  # constructing, saving and loading build none
    for src, tgt in _queries_from_keys(np.random.default_rng(4), 10, sorted(table.entries), 1000):
        table.next_dist(src, tgt)
    assert built == [table]


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
    model = _table(n, entries)
    for _ in range(10_000):
        src = tuple(int(x) for x in rng.integers(0, n, size=rng.integers(1, 6)))
        tgt = tuple(int(x) for x in rng.integers(0, n, size=rng.integers(0, 5)))
        first = model.next_dist(src, tgt)
        assert abs(float(first.probs.sum()) - 1.0) <= 1e-9
        assert np.array_equal(first.probs, model.next_dist(src, tgt).probs)


def test_bad_backoff_and_bad_dist_rejected(tmp_path):
    n = 4
    path = tmp_path / "t.json"
    save_model(_table(n, {}), path)
    text = path.read_text()
    assert '"backoff": "t2,t1,t0,s*"' in text
    path.write_text(text.replace('"backoff": "t2,t1,t0,s*"', '"backoff": "bogus"'))
    with pytest.raises(ModelFileError, match="bogus"):
        load_model(path)
    with pytest.raises(ValueError):
        _table(n, {((0,), ()): [0.5, 0.5]})
    with pytest.raises(ValueError):  # a table holds Distributions, not arrays
        TableModel(make_vocab(n - 3), {((0,), ()): np.full(n, 1 / n)},
                   uniform_distribution(n, range(n)))


# --- table files: one Distribution per distinct row -------------------------

N = 5  # vocabulary size of the hand-built table files below
GOOD_ROWS = [list(np.eye(N)[3]), [0.0, 0.5, 0.0, 0.5, 0.0], [0.2] * N,
             [0.0, 1.0, 0.0, 0.0, -0.0], [0.0, 1.0, 0.0, 0.0, 0.0]]
BAD_ROWS = {
    "nan": [float("nan"), 1.0, 0.0, 0.0, 0.0],
    "negative": [-0.25, 1.25, 0.0, 0.0, 0.0],
    "short": [0.25] * (N - 1),
    "long": [1.0 / (N + 1)] * (N + 1),
    "mass": [0.0, 0.5, 0.0, 0.5 + 10 * DIST_TOL, 0.0],
    "huge": [10 ** 400, 1.0, 0.0, 0.0, 0.0],  # an integer beyond float64
}


def _table_doc(rows, default):
    """A table file's document whose entries hold ``rows`` in order."""
    vocab = make_vocab(N - 3)
    return {"format_version": 1, "kind": "table", "backoff": "t2,t1,t0,s*",
                "vocab": {"tokens": list(vocab.tokens), "bos": 0, "eos": 1, "unk": 2,
                          "freq_rank": None},
                "default": default,
                "entries": [{"src": [3] * (i + 1), "tgt": [], "dist": row}
                            for i, row in enumerate(rows)]}


def _write(path, doc):
    path.write_text(json.dumps(doc, sort_keys=True) + "\n")
    return path


def _row_bytes(dist):
    return dist.probs.tobytes()


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.sampled_from(GOOD_ROWS), min_size=2, max_size=12),
       bad=st.sampled_from(sorted(BAD_ROWS)), data=st.data())
def test_table_file_with_one_bad_row_is_rejected_wherever_it_sits(tmp_path_factory, rows, bad,
                                                                 data):
    where = data.draw(st.integers(-1, len(rows) - 1))  # -1 is the default
    default = list(GOOD_ROWS[2])
    if where < 0:
        default = BAD_ROWS[bad]
    else:
        rows[where] = BAD_ROWS[bad]
    path = _write(tmp_path_factory.mktemp("bad") / "t.json", _table_doc(rows, default))
    entry = "table default" if where < 0 else f"table entry (src, tgt) = {((3,) * (where + 1), ())}"
    with pytest.raises(ModelFileError, match=re.escape(entry + ": ")):
        load_model(path)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.sampled_from(GOOD_ROWS), min_size=0, max_size=12),
       default=st.sampled_from(GOOD_ROWS))
def test_good_table_file_shares_equal_rows_and_round_trips(tmp_path_factory, rows, default):
    d = tmp_path_factory.mktemp("good")
    path = _write(d / "t.json", _table_doc(rows, default))
    model = load_model(path)
    dists = list(model.entries.values()) + [model.default]
    # exactly one object per distinct row; 0.0 and -0.0 rows are not equal
    assert len({id(x) for x in dists}) == len({_row_bytes(x) for x in dists})
    assert len({_row_bytes(x) for x in dists}) == \
        len({np.array(row).tobytes() for row in rows + [default]})
    save_model(model, d / "again.json")
    assert (d / "again.json").read_bytes() == path.read_bytes()


def test_signed_zero_rows_stay_apart(tmp_path):
    plus, minus = GOOD_ROWS[4], GOOD_ROWS[3]
    path = _write(tmp_path / "t.json", _table_doc([plus, minus], plus))
    model = load_model(path)
    a, b = model.entries[((3,), ())], model.entries[((3, 3), ())]
    assert a is model.default and b is not a
    assert np.signbit(b.probs[-1]) and not np.signbit(a.probs[-1])
    save_model(model, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_duplicate_table_key_is_rejected(tmp_path):
    _, _, table = generate_corpus(SyntheticSpec("copy", 8, (4, 6), 5, seed=0))
    path = tmp_path / "t.json"
    save_model(table, path)
    doc = json.loads(path.read_text())
    doc["entries"].append({"src": [3], "tgt": [], "dist": list(np.eye(8)[3])})
    _write(path, doc)
    with pytest.raises(ModelFileError, match=re.escape("((3,), ())")):
        load_model(path)


def test_generate_and_load_build_one_distribution_per_distinct_row(tmp_path, monkeypatch):
    built = []
    init = Distribution.__init__

    def counted(self, probs):
        built.append(1)
        init(self, probs)

    monkeypatch.setattr(Distribution, "__init__", counted)
    _, _, table = generate_corpus(SyntheticSpec("tail_first", 10, (5, 9), 40, seed=1))
    rows = {_row_bytes(x) for x in list(table.entries.values()) + [table.default]}
    assert len(table.entries) > 10 * len(rows)
    assert len(built) <= len(rows) + 1
    save_model(table, tmp_path / "t.json")
    built.clear()
    load_model(tmp_path / "t.json")
    assert len(built) <= len(rows) + 1
