"""Bad model files and corpora, run in-process through the CLI.

Every bad input exits 1 or 2 with one line on stderr and no traceback, and
writes no output file. Model files are a table and a micro checkpoint cut
short, missing a key, holding a value of the wrong JSON type, holding a
NaN or null probability, holding a tensor one number short of its shape,
or holding a number no model may hold (a NaN or infinite weight, an
integer beyond float64); corpora have line counts that differ or an empty
line. Out-of-vocabulary tokens are not an error: they map to UNK. A bad
train config file, a missing input flag and eval files that do not line up
exit 2 with their one-line message, and so does a sweep given a setting
its policy does not read. `simulate` given both --sentence and --src
exits 1 after argparse's usage lines.
"""

import contextlib
import copy
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from simtkit.cli import main

# keys a model file may leave out: the vocabulary's ranks and the backoff
# schedule; a rank map's keys are tokens, so dropping one may leave a valid map
OPTIONAL = {("vocab", "freq_rank"), ("backoff",)}
# one value of each JSON type
JSON_VALUES = [None, True, 7, 0.5, "x", [], {}]


def _run(argv):
    err, out = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A three-pair copy corpus, its table model and a micro checkpoint
    trained on it, each model as its parsed JSON document."""
    d = tmp_path_factory.mktemp("files")
    paths = {"src": str(d / "s.txt"), "tgt": str(d / "t.txt")}
    assert main(["gen-corpus", "--kind", "copy", "--vocab-size", "6", "--len-min", "3",
                 "--len-max", "4", "--n-pairs", "3", "--seed", "1", "--out-src",
                 paths["src"], "--out-tgt", paths["tgt"], "--out-model",
                 str(d / "table.json")]) == 0
    assert main(["train", "--src", paths["src"], "--tgt", paths["tgt"], "--epochs", "1",
                 "--d", "2", "--max-len", "8", "--checkpoint", str(d / "micro.json")]) == 0
    docs = {}
    for kind in ("table", "micro"):
        with open(d / f"{kind}.json", encoding="utf-8") as fh:
            docs[kind] = fh.read()
    return paths, docs


def _commands(paths, model):
    """Each command that reads a model file or a corpus, with its outputs."""
    src, tgt = paths["src"], paths["tgt"]
    return {
        "simulate": (["simulate", "--model", model, "--src", src, "--max-target-len", "8",
                      "--out", "{out}/o"], ["o"]),
        "simulate sentence": (["simulate", "--model", model, "--sentence", "w0 w1",
                               "--max-target-len", "8", "--out", "{out}/o"], ["o"]),
        "sweep": (["sweep", "--model", model, "--src", src, "--tgt", tgt, "--policy",
                   "psfuture", "--lambda", "0.2", "--max-target-len", "8",
                   "--out", "{out}/o"], ["o"]),
        "divergence": (["divergence", "--model", model, "--src", src, "--tgt", tgt,
                        "--out", "{out}/o"], ["o"]),
        "train": (["train", "--src", src, "--tgt", tgt, "--epochs", "1", "--d", "2",
                   "--checkpoint", "{out}/ck.json", "--curve", "{out}/c.csv"],
                  ["ck.json", "c.csv"]),
    }


def _check(argv, outputs, out):
    """Run ``argv``; return its exit code, stdout, stderr and the outputs written."""
    code, stdout, stderr = _run([a.format(out=out) for a in argv])
    written = [name for name in outputs if os.path.exists(os.path.join(out, name))]
    return code, stdout, stderr, written


def _assert_rejected(code, stdout, stderr, written):
    assert code in (1, 2), (stdout, stderr)
    assert len(stderr.splitlines()) == 1, stderr
    assert "Traceback" not in stderr + stdout
    assert written == []


def _paths(node, path=()):
    """Every key and index path below a JSON node."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def _json_type(value):
    return "number" if isinstance(value, (int, float)) and not isinstance(value, bool) \
        else type(value).__name__


@st.composite
def bad_model(draw, docs):
    """(kind, text, what): a model file's text with one fault."""
    kind = draw(st.sampled_from(sorted(docs)))
    text = docs[kind]
    fault = draw(st.sampled_from(["truncated", "deleted key", "wrong type", "bad probability",
                                  "tensor length"]))
    if fault == "truncated":  # any cut that removes part of the JSON itself
        return kind, text[:draw(st.integers(0, len(text.rstrip()) - 1))], fault
    doc = json.loads(text)
    if fault == "deleted key":
        keys = [p for p in _paths(doc) if isinstance(_parent(doc, p), dict)
                and not any(p[:len(o)] == o for o in OPTIONAL)]
        path = draw(st.sampled_from(keys))
        del _parent(doc, path)[path[-1]]
    elif fault == "wrong type":
        path = draw(st.sampled_from(list(_paths(doc))))
        old = _parent(doc, path)[path[-1]]
        new = draw(st.sampled_from([v for v in JSON_VALUES
                                    if _json_type(v) != _json_type(old)
                                    and not (v is None and path in OPTIONAL)]))
        _parent(doc, path)[path[-1]] = copy.deepcopy(new)
    elif fault == "tensor length":  # a table file holds no tensors; use the micro file
        kind, doc = "micro", json.loads(docs["micro"])
        data = doc["tensors"][draw(st.sampled_from(sorted(doc["tensors"])))]["data"]
        del data[draw(st.integers(0, len(data) - 1))]
    else:
        if kind == "micro":  # a micro file holds no probabilities; use the table
            kind, doc = "table", json.loads(docs["table"])
        dists = [("default",)] + [("entries", i, "dist") for i in range(len(doc["entries"]))]
        dist = _parent(doc, draw(st.sampled_from(dists)) + (0,))
        dist[draw(st.integers(0, len(dist) - 1))] = draw(st.sampled_from([float("nan"), None]))
    return kind, json.dumps(doc), fault


MODEL_COMMANDS = ["simulate", "simulate sentence", "sweep", "divergence"]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), command=st.sampled_from(MODEL_COMMANDS))
def test_bad_model_file_is_rejected(files, data, command):
    paths, docs = files
    kind, text, fault = data.draw(bad_model(docs))
    with tempfile.TemporaryDirectory() as out:
        model = os.path.join(out, "model.json")
        with open(model, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv, outputs = _commands(paths, model)[command]
        result = _check(argv, outputs, out)
    _assert_rejected(*result)
    if fault == "tensor length":
        assert result[2].startswith("simtkit: ModelFileError: tensor '"), result[2]


def _one_hot_entry(doc):
    """The path of the first table probability that is exactly 1.0."""
    for i, entry in enumerate(doc["entries"]):
        if 1.0 in entry["dist"]:
            return ("entries", i, "dist", entry["dist"].index(1.0))
    raise AssertionError("no one-hot entry")


# values Python would take for the right ones: true == 1, and an object or
# a string iterates like an empty or one-item list
COERCIBLE = {
    "format_version true": ("table", lambda doc: ("format_version",), True),
    "entries object": ("table", lambda doc: ("entries",), {}),
    "entries string": ("table", lambda doc: ("entries",), ""),
    "probability true": ("table", _one_hot_entry, True),
    "source id string": ("table", lambda doc: ("entries", 0, "src", 0), "x"),
    "token number": ("table", lambda doc: ("vocab", "tokens", 3), 7),
    "rank true": ("table", lambda doc: ("vocab", "freq_rank",
                                        min(doc["vocab"]["freq_rank"],
                                            key=doc["vocab"]["freq_rank"].get)), True),
    "tensor data true": ("micro", lambda doc: ("tensors", "embed", "data", 0), True),
}


@pytest.mark.parametrize("case", sorted(COERCIBLE))
def test_wrong_json_type_is_rejected_where_python_would_coerce_it(files, case):
    paths, docs = files
    kind, where, value = COERCIBLE[case]
    doc = json.loads(docs[kind])
    path = where(doc)
    _parent(doc, path)[path[-1]] = value
    with tempfile.TemporaryDirectory() as out:
        model = os.path.join(out, "model.json")
        with open(model, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        code, stdout, stderr, written = _check(*_commands(paths, model)["simulate"], out)
    _assert_rejected(code, stdout, stderr, written)
    assert stderr.startswith("simtkit: ModelFileError: "), stderr


# values json reads that no model may hold, each with the place the error names
OUT_OF_RANGE = {
    "tensor NaN": ("micro", ("tensors", "ff_w1", "data", 0), float("nan"),
                   "tensor 'ff_w1' holds non-finite values"),
    "tensor Infinity": ("micro", ("tensors", "embed", "data", 3), float("inf"),
                        "tensor 'embed' holds non-finite values"),
    "tensor -Infinity": ("micro", ("tensors", "pos", "data", 1), float("-inf"),
                         "tensor 'pos' holds non-finite values"),
    "tensor huge integer": ("micro", ("tensors", "out_proj", "data", 2), 10 ** 400,
                            "tensor 'out_proj': int too large to convert to float"),
    "probability huge integer": ("table", ("entries", 0, "dist", 0), 10 ** 400,
                                 "int too large to convert to float"),
    "default huge integer": ("table", ("default", 0), 10 ** 400,
                             "table default: int too large to convert to float"),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
def test_out_of_range_number_is_rejected_naming_its_place(files, case):
    paths, docs = files
    kind, path, value, message = OUT_OF_RANGE[case]
    doc = json.loads(docs[kind])
    _parent(doc, path)[path[-1]] = value
    if path[0] == "entries":
        entry = doc["entries"][path[1]]
        message = f"table entry (src, tgt) = {(tuple(entry['src']), tuple(entry['tgt']))}: " \
            + message
    with tempfile.TemporaryDirectory() as out:
        model = os.path.join(out, "model.json")
        with open(model, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc))  # NaN and Infinity as json writes and reads them
        code, stdout, stderr, written = _check(*_commands(paths, model)["simulate"], out)
    _assert_rejected(code, stdout, stderr, written)
    assert stderr == f"simtkit: ModelFileError: {message}\n"


@pytest.mark.parametrize("kind", ["table", "micro"])
@pytest.mark.parametrize("command", MODEL_COMMANDS)
def test_good_model_files_run(files, kind, command):
    paths, docs = files
    with tempfile.TemporaryDirectory() as out:
        model = os.path.join(out, "model.json")
        with open(model, "w", encoding="utf-8") as fh:
            fh.write(docs[kind])
        code, _, stderr, written = _check(*_commands(paths, model)[command], out)
    assert code == 0, stderr
    assert written == ["o"]


CORPUS_COMMANDS = ["simulate", "sweep", "divergence", "train"]
tokens = st.lists(st.sampled_from(["w0", "w1", "w2", "zz", "<unk>"]), min_size=1, max_size=4)


@settings(max_examples=40, deadline=None)
@given(src=st.lists(tokens, min_size=1, max_size=4), tgt=st.lists(tokens, min_size=1, max_size=4),
       empty=st.sets(st.integers(0, 7), max_size=2), command=st.sampled_from(CORPUS_COMMANDS))
def test_bad_corpus_is_rejected_and_oov_runs(files, src, tgt, empty, command):
    """Lines of ``src`` and ``tgt`` named in ``empty`` (counted over both
    files) are made blank; out-of-vocabulary ``zz`` maps to UNK."""
    paths, docs = files
    lines = [" ".join(t) for t in src + tgt]
    for i in empty:
        if i < len(lines):
            lines[i] = ""
    with tempfile.TemporaryDirectory() as out:
        corpus = {"src": os.path.join(out, "s.txt"), "tgt": os.path.join(out, "t.txt")}
        for name, text in (("src", lines[:len(src)]), ("tgt", lines[len(src):])):
            with open(corpus[name], "w", encoding="utf-8") as fh:
                fh.write("".join(line + "\n" for line in text))
        model = os.path.join(out, "model.json")
        with open(model, "w", encoding="utf-8") as fh:
            fh.write(docs["table"])
        argv, outputs = _commands(corpus, model)[command]
        code, stdout, stderr, written = _check(argv, outputs, out)
    blank = {i for i in empty if i < len(lines)}
    read = len(src) if command == "simulate" else len(lines)  # simulate reads no targets
    if command != "simulate" and len(src) != len(tgt):
        message = f"source/target line counts differ: {len(src)} vs {len(tgt)}"
    elif any(i < read for i in blank):  # the first line blank on either side
        line = min(i if i < len(src) else i - len(src) for i in blank if i < read) + 1
        message = f"line {line}: corpus contains an empty sentence"
    else:
        assert code == 0, stderr
        return
    _assert_rejected(code, stdout, stderr, written)
    assert stderr == f"simtkit: CorpusError: {message}\n"


@pytest.mark.parametrize("sentence", ["", "  "])
def test_simulate_rejects_an_empty_sentence_as_the_loader_does(files, sentence):
    paths, docs = files
    with tempfile.TemporaryDirectory() as out:
        model = os.path.join(out, "model.json")
        with open(model, "w", encoding="utf-8") as fh:
            fh.write(docs["table"])
        argv = ["simulate", "--model", model, "--sentence", sentence, "--out", "{out}/o"]
        code, stdout, stderr, written = _check(argv, ["o"], out)
    _assert_rejected(code, stdout, stderr, written)
    assert stderr == "simtkit: CorpusError: line 1: corpus contains an empty sentence\n"


_TRAIN_CONFIG = ["train", "--config", "{out}/in.txt", "--src", "{src}", "--tgt", "{tgt}",
                 "--checkpoint", "{out}/ck.json"]
# (name, argv, the text of {out}/in.txt with {table} the table model, message)
INPUT_ERRORS = [
    # r is the config file's short name for ratio_r: the check names ratio_r
    ("config r alias", _TRAIN_CONFIG, "r = 1.5\n", "ConfigError: ratio_r must lie in [0, 1]"),
    ("config unknown key", _TRAIN_CONFIG, "epoch = 1\n",
     "ValueError: unknown config key 'epoch'"),
    ("config line without =", _TRAIN_CONFIG, "# epochs\nepochs 1\n",
     "ValueError: bad config line 'epochs 1' (expected key = value)"),
    ("train without src", ["train", "--tgt", "{tgt}", "--checkpoint", "{out}/ck.json"], "",
     "ValueError: train requires --src and --tgt (or config keys src/tgt)"),
    ("simulate without sentence or src", ["simulate", "--model", "{out}/in.txt",
                                          "--out", "{out}/o"], "{table}",
     "ValueError: simulate needs --sentence or --src"),
    ("simulate index without src", ["simulate", "--model", "{out}/in.txt", "--sentence",
                                    "w0 w1", "--index", "5", "--out", "{out}/o"], "{table}",
     "ValueError: --index requires --src"),
    # a sweep rejects the settings its policy does not read
    ("sweep waitk with psfuture settings",
     ["sweep", "--policy", "waitk", "--k", "2", "--r-max", "3", "--lambda", "0.5",
      "--suffix", "oracle", "--model", "{out}/in.txt", "--src", "{src}", "--tgt", "{tgt}",
      "--out", "{out}/o"], "{table}",
     "ConfigError: a waitk sweep does not read lambdas=(0.5,), suffixes=('oracle',), r_max=3"),
    ("sweep psfuture with k",
     ["sweep", "--policy", "psfuture", "--lambda", "0.1", "--k", "0", "--model",
      "{out}/in.txt", "--src", "{src}", "--tgt", "{tgt}", "--out", "{out}/o"], "{table}",
     "ConfigError: a psfuture sweep does not read ks=(0,)"),
    ("eval line counts", ["eval", "--hyp", "{src}", "--ref", "{out}/in.txt",
                          "--out", "{out}/o"], "w0 w1\n",
     "ValueError: hypothesis/reference line counts differ"),
    ("eval g-records without src", ["eval", "--hyp", "{src}", "--ref", "{tgt}",
                                    "--g-records", "{out}/in.txt", "--out", "{out}/o"],
     "1 2\n1 2\n1 2\n", "ValueError: --g-records requires --src for source lengths"),
    ("eval src without g-records", ["eval", "--hyp", "{src}", "--ref", "{tgt}",
                                    "--src", "{out}/in.txt", "--out", "{out}/o"],
     "w0\nw0\nw0\n", "ValueError: --src requires --g-records"),
]


@pytest.mark.parametrize("argv, text, message", [c[1:] for c in INPUT_ERRORS],
                         ids=[c[0] for c in INPUT_ERRORS])
def test_bad_input_exits_2_with_its_message(files, argv, text, message):
    paths, docs = files
    with tempfile.TemporaryDirectory() as out:
        with open(os.path.join(out, "in.txt"), "w", encoding="utf-8") as fh:
            fh.write(text.format(**docs))
        code, stdout, stderr = _run([a.format(out=out, **paths) for a in argv])
        written = os.listdir(out)
    assert code == 2, stderr
    assert stderr == f"simtkit: {message}\n"
    assert stdout == "" and written == ["in.txt"]


def test_simulate_takes_a_sentence_or_a_corpus_not_both(files):
    paths, docs = files
    with tempfile.TemporaryDirectory() as out:
        model = os.path.join(out, "model.json")
        with open(model, "w", encoding="utf-8") as fh:
            fh.write(docs["table"])
        code, stdout, stderr = _run(["simulate", "--model", model, "--sentence", "w0 w1",
                                     "--src", paths["src"], "--index", "1",
                                     "--out", os.path.join(out, "o")])
        written = os.listdir(out)
    assert (code, stdout, written) == (1, "", ["model.json"])
    assert stderr.splitlines()[-1] == \
        "simtkit simulate: error: argument --src: not allowed with argument --sentence"
