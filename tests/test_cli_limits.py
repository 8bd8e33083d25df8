"""The numeric flags of gen-corpus, train, simulate, sweep and divergence, at
and past their limits, and the flags' defaults against the types that own them.

At its limit a flag's command exits 0. Past it, the command exits 1 or 2
with one line on stderr and no traceback, and writes no output file. The
seed, lambda and learning-rate errors also name their setting. A sweep flag
that its policy does not read fails at any value, naming its setting.
"""

import contextlib
import dataclasses
import inspect
import io
import os
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from simtkit import PolicyConfig, RandomSuffix, SweepSpec, SyntheticSpec, load_model
from simtkit.cli import build_parser, main
from simtkit.policy import simulate_waitk, suffix_from_name


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A three-pair copy corpus, its table model, its number of ranked
    tokens and the smallest micro ``max_len`` that fits it."""
    d = tmp_path_factory.mktemp("corpus")
    paths = {"src": str(d / "s.txt"), "tgt": str(d / "t.txt"), "model": str(d / "m.json")}
    assert main(["gen-corpus", "--kind", "copy", "--vocab-size", "6", "--len-min", "3",
                 "--len-max", "4", "--n-pairs", "3", "--seed", "1",
                 "--out-src", paths["src"], "--out-tgt", paths["tgt"],
                 "--out-model", paths["model"]]) == 0
    with open(paths["src"], encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    n_ranked = len(load_model(paths["model"]).vocab.freq_rank)
    # copy targets equal their sources; both count EOS
    fit_len = max(len(line.split()) for line in lines) + 1
    return paths, len(lines), n_ranked, fit_len


def _commands(n_lines, n_ranked, fit_len):
    """(name, argv, outputs, flag, limit, direction, step): the value past the
    limit by ``past`` steps is ``limit + direction * past * step``."""
    gen = (["gen-corpus", "--kind", "copy", "--out-src", "{out}/s", "--out-tgt", "{out}/t"],
           ["s", "t"])
    swap = (["gen-corpus", "--kind", "local-swap", "--out-src", "{out}/s",
             "--out-tgt", "{out}/t"], ["s", "t"])
    train = (["train", "--src", "{src}", "--tgt", "{tgt}", "--epochs", "1", "--d", "4",
              "--checkpoint", "{out}/ck.json", "--curve", "{out}/curve.csv"],
             ["ck.json", "curve.csv"])
    simulate = (["simulate", "--model", "{model}", "--src", "{src}", "--out", "{out}/o"],
                ["o"])
    sweep = (["sweep", "--model", "{model}", "--src", "{src}", "--tgt", "{tgt}",
              "--out", "{out}/o"], ["o"])
    divergence = (["divergence", "--model", "{model}", "--src", "{src}", "--tgt", "{tgt}",
                   "--out", "{out}/o"], ["o"])
    random = ["--suffix", "random", "--random-top-k", "1"]  # a later flag wins
    psfuture = ["--policy", "psfuture", "--lambda", "0.2"]
    waitk = ["--policy", "waitk", "--k", "1"]
    lo_len = SyntheticSpec.n_range[0]
    rows = [
        ("gen vocab", gen, [], "--vocab-size", 4, -1, 1),
        ("gen len-min", gen, [], "--len-min", 2, -1, 1),
        ("gen len-max", gen, [], "--len-max", lo_len, -1, 1),
        ("gen n-pairs", gen, [], "--n-pairs", 1, -1, 1),
        ("gen window", swap, [], "--window", 2, -1, 1),
        ("gen seed", gen, [], "--seed", 0, -1, 1),
        ("train ratio-r low", train, ["--regime", "p2f"], "--ratio-r", 0.0, -1, 1e-3),
        ("train ratio-r high", train, ["--regime", "p2f"], "--ratio-r", 1.0, 1, 1e-3),
        ("train k-choices", train, ["--regime", "multipath"], "--k-choices", 1, -1, 1),
        ("train epochs", train, [], "--epochs", 0, -1, 1),
        ("train batch-size", train, [], "--batch-size", 1, -1, 1),
        ("train lr", train, [], "--lr", 0.0, -1, 1e-3),
        ("train seed", train, [], "--seed", 0, -1, 1),
        ("train d", train, [], "--d", 1, -1, 1),
        ("train max-len", train, [], "--max-len", fit_len, -1, 1),
        ("simulate index low", simulate, [], "--index", 0, -1, 1),
        ("simulate index high", simulate, [], "--index", n_lines - 1, 1, 1),
        ("simulate r-max", simulate, [], "--r-max", 1, -1, 1),
        ("simulate initial-prefix", simulate, [], "--initial-prefix", 1, -1, 1),
        ("simulate max-target-len", simulate, [], "--max-target-len", 1, -1, 1),
        ("simulate random-count", simulate, random, "--random-count", 1, -1, 1),
        ("simulate random-top-k low", simulate, random, "--random-top-k", 1, -1, 1),
        ("simulate random-top-k high", simulate, random, "--random-top-k", n_ranked, 1, 1),
        ("simulate seed", simulate, random, "--seed", 0, -1, 1),
        ("sweep k", sweep, ["--policy", "waitk"], "--k", 1, -1, 1),
    ]
    rows += [(f"sweep psfuture {flag[2:]}", sweep, psfuture, flag, 1, -1, 1)
             for flag in ("--r-max", "--initial-prefix")]
    for policy, pol_args in (("psfuture", psfuture), ("waitk", waitk)):
        rows.append((f"sweep {policy} max-target-len", sweep, pol_args, "--max-target-len",
                     1, -1, 1))
        rows.append((f"sweep {policy} seed", sweep, pol_args, "--seed", 0, -1, 1))
    rows += [
        ("sweep random-count", sweep, psfuture + random, "--random-count", 1, -1, 1),
        ("sweep random-top-k low", sweep, psfuture + random, "--random-top-k", 1, -1, 1),
        ("sweep random-top-k high", sweep, psfuture + random, "--random-top-k",
         n_ranked, 1, 1),
        ("divergence index low", divergence, [], "--index", 0, -1, 1),
        ("divergence index high", divergence, [], "--index", n_lines - 1, 1, 1),
        ("divergence random-count", divergence, random, "--random-count", 1, -1, 1),
        ("divergence random-top-k low", divergence, random, "--random-top-k", 1, -1, 1),
        ("divergence random-top-k high", divergence, random, "--random-top-k",
         n_ranked, 1, 1),
    ]
    return [(name, base + extra, outputs, flag, limit, direction, step)
            for name, (base, outputs), extra, flag, limit, direction, step in rows]


# the three values only name the cases; the fixture supplies the real ones
CASES = _commands(n_lines=0, n_ranked=0, fit_len=0)


def _run(argv):
    err, out = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("index", range(len(CASES)), ids=[c[0] for c in CASES])
@settings(max_examples=4, deadline=None)
@given(past=st.integers(min_value=1, max_value=10_000))
@example(past=0)
@example(past=1)
def test_numeric_flag_at_and_past_its_limit(corpus, index, past):
    paths, n_lines, n_ranked, fit_len = corpus
    _, argv, outputs, flag, limit, direction, step = _commands(n_lines, n_ranked, fit_len)[index]
    value = limit + direction * past * step
    with tempfile.TemporaryDirectory() as out:
        argv = [a.format(out=out, **paths) for a in argv] + [f"{flag}={value}"]
        code, stdout, stderr = _run(argv)
        written = [name for name in outputs if os.path.exists(os.path.join(out, name))]
    if past == 0:
        assert code == 0, stderr
        return
    assert code in (1, 2), (argv, stdout)
    assert len(stderr.splitlines()) == 1, stderr
    assert "Traceback" not in stderr + stdout
    assert written == []


_TRAIN_MISSING_SRC = ["train", "--src", "{out}/missing", "--tgt", "{out}/missing",
                      "--checkpoint", "{out}/ck.json"]
_DIVERGENCE = ["divergence", "--model", "{model}", "--src", "{src}", "--tgt", "{tgt}",
               "--out", "{out}/o"]
_SIMULATE = ["simulate", "--model", "{model}", "--src", "{src}", "--out", "{out}/o"]
_SWEEP = ["sweep", "--model", "{model}", "--src", "{src}", "--tgt", "{tgt}", "--out", "{out}/o"]
NAMED = [
    ("gen-corpus seed", ["gen-corpus", "--kind", "copy", "--out-src", "{out}/o",
                         "--out-tgt", "{out}/t", "--seed", "-1"], "seed=-1 must be >= 0"),
    # a corpus that does not exist shows that the check comes before reading it
    ("train seed", _TRAIN_MISSING_SRC + ["--seed", "-1"], "seed=-1 must be >= 0"),
    ("train lr nan", _TRAIN_MISSING_SRC + ["--lr", "nan"], "lr=nan must be finite"),
    ("train lr inf", _TRAIN_MISSING_SRC + ["--lr", "inf"], "lr=inf must be finite"),
    ("simulate seed", _SIMULATE + ["--seed", "-1"], "seed=-1 must be >= 0"),
    ("divergence seed", _DIVERGENCE + ["--seed", "-1"], "seed=-1 must be >= 0"),
    ("sweep seed", _SWEEP + ["--policy", "psfuture", "--lambda", "0.2", "--seed", "-1"],
     "seed=-1 must be >= 0"),
    ("simulate lambda nan", _SIMULATE + ["--lambda", "nan"], "lam=nan must not be NaN"),
    ("sweep lambda nan", _SWEEP + ["--policy", "psfuture", "--lambda", "0.1,nan"],
     "lam=nan must not be NaN"),
    ("divergence lambda nan", _DIVERGENCE + ["--lambda", "nan"], "lam=nan must not be NaN"),
]


@pytest.mark.parametrize("argv, message", [c[1:] for c in NAMED], ids=[c[0] for c in NAMED])
def test_bad_setting_is_named_in_the_error(corpus, argv, message):
    paths = corpus[0]
    with tempfile.TemporaryDirectory() as out:
        code, stdout, stderr = _run([a.format(out=out, **paths) for a in argv])
        written = os.listdir(out)
    assert code == 2, (argv, stdout)
    assert stderr.startswith(f"simtkit: ConfigError: {message}"), stderr
    assert len(stderr.splitlines()) == 1 and written == []


@pytest.mark.parametrize("argv", [_SIMULATE, _DIVERGENCE], ids=["simulate", "divergence"])
@pytest.mark.parametrize("side", ["low", "high"])
def test_index_outside_the_corpus_is_named(corpus, argv, side):
    paths, n_lines = corpus[:2]
    index = -1 if side == "low" else n_lines
    with tempfile.TemporaryDirectory() as out:
        code, _, stderr = _run([a.format(out=out, **paths) for a in argv]
                               + [f"--index={index}"])
    assert code == 2
    assert stderr == f"simtkit: ValueError: --index {index} outside corpus of {n_lines}\n"


@pytest.mark.parametrize("argv", [_SIMULATE + ["--lambda=-inf"], _SIMULATE + ["--lambda=inf"],
                                  _SWEEP + ["--policy", "psfuture", "--lambda=-inf,-1,inf"],
                                  _DIVERGENCE + ["--lambda=-inf"]],
                         ids=["simulate -inf", "simulate inf", "sweep -inf,-1,inf",
                              "divergence -inf"])
def test_infinite_and_negative_lambda_stay_allowed(corpus, argv):
    paths = corpus[0]
    with tempfile.TemporaryDirectory() as out:
        code, _, stderr = _run([a.format(out=out, **paths) for a in argv])
        assert code == 0, stderr
        assert os.listdir(out) == ["o"]


# (policy, flag, a value the other policy accepts, the setting and value named)
UNREAD_FLAGS = [
    ("waitk", "--lambda", "0.5", "lambdas=(0.5,)"),
    ("waitk", "--suffix", "oracle", "suffixes=('oracle',)"),
    ("waitk", "--suffix-tokens", "w1", "suffix_tokens=('w1',)"),
    ("waitk", "--r-max", "1", "r_max=1"),
    ("waitk", "--initial-prefix", "1", "initial_prefix=1"),
    ("waitk", "--random-count", "1", "random_count=1"),
    ("waitk", "--random-top-k", "1", "random_top_k=1"),
    ("psfuture", "--k", "1", "ks=(1,)"),
]


@pytest.mark.parametrize("policy, flag, value, named", UNREAD_FLAGS,
                         ids=[f"sweep {c[0]} {c[1][2:]}" for c in UNREAD_FLAGS])
def test_a_sweep_rejects_a_flag_its_policy_does_not_read(corpus, policy, flag, value, named):
    paths = corpus[0]
    reads = {"waitk": ["--k", "1"], "psfuture": ["--lambda", "0.2"]}[policy]
    with tempfile.TemporaryDirectory() as out:
        code, stdout, stderr = _run(["sweep", "--policy", policy, *reads, "--model",
                                     paths["model"], "--src", paths["src"], "--tgt",
                                     paths["tgt"], "--out", f"{out}/o", f"{flag}={value}"])
        written = os.listdir(out)
    assert (code, stdout, written) == (2, "", [])
    assert stderr == f"simtkit: ConfigError: a {policy} sweep does not read {named}\n"


def _defaults(cls) -> dict:
    return {f.name: f.default for f in dataclasses.fields(cls)}


def test_flag_defaults_are_the_owning_types_defaults():
    parser = build_parser()
    policy, suffix, synthetic = _defaults(PolicyConfig), _defaults(RandomSuffix), \
        _defaults(SyntheticSpec)
    loop = {key: policy[key] for key in ("r_max", "initial_prefix", "max_target_len")}
    random = {"random_count": suffix["count"], "random_top_k": suffix["top_k"]}
    sweep_spec = _defaults(SweepSpec)

    def parsed(*argv):
        return vars(parser.parse_args(list(argv)))

    sim = parsed("simulate", "--model", "m")
    assert {k: sim[k] for k in loop} == loop
    assert {k: sim[k] for k in random} == random
    assert sim["lam"] == policy["lam"]
    assert sim["suffix"] == ",".join(sweep_spec["suffixes"])

    sweep = parsed("sweep", "--policy", "waitk", "--model", "m", "--src", "s",
                   "--tgt", "t", "--out", "o")
    assert {k: sweep[k] for k in loop} == loop
    assert {k: sweep[k] for k in random} == random
    assert {k: sweep[k] for k in ("lambdas", "ks", "seed")} == \
        {k: sweep_spec[k] for k in ("lambdas", "ks", "seed")}
    assert sweep["suffix"] == ",".join(sweep_spec["suffixes"])
    assert {k: sweep_spec[k] for k in loop} == loop
    assert {k: sweep_spec[k] for k in random} == random

    div = parsed("divergence", "--model", "m", "--src", "s", "--tgt", "t", "--out", "o")
    assert div["lam"] == policy["lam"]
    assert {k: div[k] for k in random} == random

    gen = parsed("gen-corpus", "--kind", "copy", "--out-src", "s", "--out-tgt", "t")
    assert {k: gen[k] for k in ("vocab_size", "n_pairs", "window", "seed")} == \
        {k: synthetic[k] for k in ("vocab_size", "n_pairs", "window", "seed")}
    assert (gen["len_min"], gen["len_max"]) == synthetic["n_range"]

    # train passes on only what a flag or the config file gives, so no flag
    # has a default of its own: the dataclasses' defaults apply
    train = parsed("train", "--src", "s", "--tgt", "t")
    assert {k: v for k, v in train.items() if v is not None} == \
        {"command": "train", "src": "s", "tgt": "t"}

    # the Python API's copies of the same settings
    assert inspect.signature(simulate_waitk).parameters["max_target_len"].default == \
        policy["max_target_len"]
    params = inspect.signature(suffix_from_name).parameters
    assert {k: params[k].default for k in random} == random
