"""Command-line interface.

Subcommands: gen-corpus, train, simulate, sweep, divergence, eval.
Exit codes: 0 success, 1 usage error, 2 runtime failure. Every invocation
is a pure function of its flags, input files, and --seed; re-runs produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .core import PolicyConfig, load_parallel_corpus, decode_sentence, encode_sentence
from .metrics import EvalResult, MetricError, average_lagging, corpus_bleu, hallucination_rate
from .micro import MODES, UNIDIRECTIONAL, MicroModel
from .modelio import load_model, save_model
from .policy import RandomSuffix, suffix_from_name, simulate_sentence
from .sweep import (POLICIES, SweepSpec, divergence_report_lines, run_sweep, sentence_rng,
                    sweep_csv_lines)
from .synthetic import KINDS, SyntheticSpec, _exact_table, _generate_pairs
from .training import REGIMES, TrainConfig, train
from . import core


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(",") if x)


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",") if x)


def _r_max(text: str):
    return None if text == "unbounded" else int(text)


def _add_suffix_flags(parser, suffix_help=None) -> None:
    parser.add_argument("--suffix", default=",".join(SweepSpec.suffixes), help=suffix_help)
    parser.add_argument("--suffix-tokens")
    parser.add_argument("--random-count", type=int, default=RandomSuffix.count)
    parser.add_argument("--random-top-k", type=int, default=RandomSuffix.top_k)


def _add_loop_flags(parser) -> None:
    parser.add_argument("--r-max", type=_r_max, default=PolicyConfig.r_max)
    parser.add_argument("--initial-prefix", type=int, default=PolicyConfig.initial_prefix)
    parser.add_argument("--max-target-len", type=int, default=PolicyConfig.max_target_len)


def _write(lines, path) -> None:
    """Write a text report's ``lines`` to ``path``, or to stdout if it is None."""
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _pick(args, items):
    """Item ``--index`` of a corpus, and the generator a sweep with ``--seed``
    gives that sentence."""
    if not (0 <= args.index < len(items)):
        raise ValueError(f"--index {args.index} outside corpus of {len(items)}")
    return items[args.index], sentence_rng(args.seed, args.index)


def _suffix_spec(args, vocab):
    return suffix_from_name(
        args.suffix, vocab,
        tokens=args.suffix_tokens.split() if args.suffix_tokens else None,
        random_count=args.random_count, random_top_k=args.random_top_k)


# train's config-file keys and the add_argument keywords of their flags
_TRAIN_FLAGS = {
    "regime": {"choices": REGIMES},
    "ratio_r": {"type": float},
    "k_choices": {"type": _ints},
    "epochs": {"type": int},
    "batch_size": {"type": int},
    "lr": {"type": float},
    "seed": {"type": int},
    "src": {},
    "tgt": {},
    "checkpoint": {},
    "curve": {"help": "loss curve CSV output path"},
    "d": {"type": int},
    "max_len": {"type": int},
    "mode": {"choices": MODES},
}


def build_parser() -> _Parser:
    p = _Parser(prog="simtkit", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-corpus", help="generate a synthetic corpus")
    g.add_argument("--kind", required=True, choices=[k.replace("_", "-") for k in KINDS])
    g.add_argument("--vocab-size", type=int, default=SyntheticSpec.vocab_size)
    len_min, len_max = SyntheticSpec.n_range
    g.add_argument("--len-min", type=int, default=len_min, help="min length incl. EOS")
    g.add_argument("--len-max", type=int, default=len_max, help="max length incl. EOS")
    g.add_argument("--n-pairs", type=int, default=SyntheticSpec.n_pairs)
    g.add_argument("--window", type=int, default=SyntheticSpec.window)
    g.add_argument("--seed", type=int, default=SyntheticSpec.seed)
    g.add_argument("--out-src", required=True)
    g.add_argument("--out-tgt", required=True)
    g.add_argument("--out-align")
    g.add_argument("--out-model", help="write the exact table model as JSON")

    t = sub.add_parser("train", help="train a micro model")
    t.add_argument("--config", help="key=value config file; flags override it")
    for key, kwargs in _TRAIN_FLAGS.items():
        t.add_argument("--" + key.replace("_", "-"), **kwargs)

    s = sub.add_parser("simulate", help="trace one adaptive decoding session")
    s.add_argument("--model", required=True)
    source = s.add_mutually_exclusive_group()
    source.add_argument("--sentence", help="space-separated source tokens (no EOS)")
    source.add_argument("--src", help="corpus file to pick a sentence from")
    s.add_argument("--index", type=int, default=0, help="line of --src, from 0")
    s.add_argument("--lambda", dest="lam", type=float, default=PolicyConfig.lam)
    _add_suffix_flags(s)
    _add_loop_flags(s)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", help="trace JSONL output (default stdout)")

    w = sub.add_parser("sweep", help="latency/quality curve over a corpus")
    w.add_argument("--policy", required=True, choices=POLICIES)
    w.add_argument("--lambda", dest="lambdas", type=_floats, default=SweepSpec.lambdas)
    _add_suffix_flags(w, "comma-separated suffix names")
    w.add_argument("--k", dest="ks", type=_ints, default=SweepSpec.ks)
    w.add_argument("--model", required=True)
    w.add_argument("--src", required=True)
    w.add_argument("--tgt", required=True)
    w.add_argument("--align")
    _add_loop_flags(w)
    w.add_argument("--seed", type=int, default=SweepSpec.seed)
    w.add_argument("--out", required=True)

    d = sub.add_parser("divergence", help="divergence matrix for one pair")
    d.add_argument("--model", required=True)
    d.add_argument("--src", required=True)
    d.add_argument("--tgt", required=True)
    d.add_argument("--index", type=int, default=0)
    _add_suffix_flags(d)
    d.add_argument("--lambda", dest="lam", type=float, default=PolicyConfig.lam)
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--out", required=True)

    e = sub.add_parser("eval", help="score existing hypothesis files")
    e.add_argument("--hyp", required=True)
    e.add_argument("--ref", required=True)
    e.add_argument("--src", help="source lengths for the AL of --g-records")
    e.add_argument("--g-records", help="one line per sentence: g(1) g(2) ...")
    e.add_argument("--hyp-align", help="alignments of hypothesis tokens")
    e.add_argument("--seed", type=int, default=0, help="echoed into the output row")
    e.add_argument("--out", help="CSV output (default stdout)")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _dispatch(args)
    except BrokenPipeError:
        return 2
    except Exception as exc:  # runtime failures exit 2 with a message
        print(f"simtkit: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    return {
        "gen-corpus": _cmd_gen_corpus,
        "train": _cmd_train,
        "simulate": _cmd_simulate,
        "sweep": _cmd_sweep,
        "divergence": _cmd_divergence,
        "eval": _cmd_eval,
    }[args.command](args)


def _cmd_gen_corpus(args) -> int:
    spec = SyntheticSpec(
        kind=args.kind.replace("-", "_"),
        vocab_size=args.vocab_size,
        n_range=(args.len_min, args.len_max),
        n_pairs=args.n_pairs,
        seed=args.seed,
        window=args.window,
    )
    vocab, pairs = _generate_pairs(spec)
    core.write_parallel_corpus(pairs, vocab, args.out_src, args.out_tgt,
                               align_path=args.out_align)
    if args.out_model:
        save_model(_exact_table(spec, vocab, pairs), args.out_model)
    print(f"wrote {len(pairs)} pairs (vocab {len(vocab)})")
    return 0


def _read_config_file(path) -> dict:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line {line!r} (expected key = value)")
            key, value = (part.strip() for part in line.split("=", 1))
            out[key.replace("-", "_")] = value
    return out


def _cmd_train(args) -> int:
    # precedence: CLI flag > config file > TrainConfig/MicroModel default
    given = {}
    if args.config:
        for key, raw in _read_config_file(args.config).items():
            if key == "r":  # documented short name for the mixing ratio
                key = "ratio_r"
            if key not in _TRAIN_FLAGS:
                raise ValueError(f"unknown config key {key!r}")
            given[key] = _TRAIN_FLAGS[key].get("type", str)(raw)
    given.update((key, getattr(args, key)) for key in _TRAIN_FLAGS
                 if getattr(args, key) is not None)
    if not given.get("src") or not given.get("tgt"):
        raise ValueError("train requires --src and --tgt (or config keys src/tgt)")

    cfg = TrainConfig(**{f.name: given[f.name] for f in dataclasses.fields(TrainConfig)
                         if f.name in given})
    model_kwargs = {k: given[k] for k in ("d", "max_len", "mode", "seed") if k in given}
    if cfg.regime == "multipath":  # wait-k training needs the causal encoder
        model_kwargs.setdefault("mode", UNIDIRECTIONAL)
    vocab, pairs = load_parallel_corpus(given["src"], given["tgt"])
    model = MicroModel(vocab, **model_kwargs)
    result = train(model, pairs, cfg)
    if given.get("checkpoint"):
        save_model(model, given["checkpoint"])
    if given.get("curve"):
        _write(result.curve_csv_lines(), given["curve"])
    final = result.epoch_stats[-1].mean_loss if result.epoch_stats else float("nan")
    print(f"trained {cfg.epochs} epochs, final mean loss {final!r}")
    return 0


def _cmd_simulate(args) -> int:
    model = load_model(args.model)
    vocab = model.vocab
    if args.sentence is not None:  # sentence 0 of a one-line corpus
        if args.index != 0:
            raise ValueError("--index requires --src")
        lines, index = [args.sentence.split()], 0
        tokens, rng = lines[0], sentence_rng(args.seed, 0)
    elif args.src:
        lines, index = core.read_token_lines(args.src), args.index
        tokens, rng = _pick(args, lines)
    else:
        raise ValueError("simulate needs --sentence or --src")
    core._no_empty_sentence(lines)  # the corpus loader's rules
    source = encode_sentence(tokens, vocab)
    with core._at(f"line {index + 1}"):
        core._validate_sequence("source", source, vocab)
    suffix = _suffix_spec(args, vocab)
    cfg = PolicyConfig(**{f.name: getattr(args, f.name)
                          for f in dataclasses.fields(PolicyConfig)})
    sim = simulate_sentence(model, vocab, cfg, suffix, source, rng=rng)

    summary = {
        "summary": True,
        "hypothesis": " ".join(decode_sentence(sim.hypothesis, vocab)),
        "g_record": list(sim.g_record),
        "al": average_lagging(sim.g_record, len(source)) if sim.g_record else None,
        "truncated": sim.truncated,
    }
    _write([json.dumps(r, sort_keys=True) for r in sim.trace + [summary]], args.out)
    return 0


def _cmd_sweep(args) -> int:
    given = dict(vars(args), suffixes=tuple(args.suffix.split(",")) if args.suffix else (),
                 suffix_tokens=tuple((args.suffix_tokens or "").split()))
    spec = SweepSpec(**{f.name: given[f.name] for f in dataclasses.fields(SweepSpec)})
    model = load_model(args.model)
    vocab = model.vocab
    _, pairs = load_parallel_corpus(args.src, args.tgt, vocab=vocab,
                                    align_path=args.align)
    results = run_sweep(model, vocab, pairs, spec)
    provenance = {"model": args.model, "src": args.src, "tgt": args.tgt}
    _write(sweep_csv_lines(results, spec, provenance), args.out)
    print(f"wrote {len(results)} rows to {args.out}")
    return 0


def _cmd_divergence(args) -> int:
    model = load_model(args.model)
    vocab = model.vocab
    _, pairs = load_parallel_corpus(args.src, args.tgt, vocab=vocab)
    pair, rng = _pick(args, pairs)
    suffix = _suffix_spec(args, vocab)
    _write(divergence_report_lines(model, vocab, pair, suffix, args.lam, rng=rng), args.out)
    print(f"wrote divergence report to {args.out}")
    return 0


def _line_lag(number: int, line: str, n_hyp: int, n_source: int) -> float:
    """Average lagging of the g-record on line ``number`` (1-based) of the
    --g-records file, for a hypothesis of ``n_hyp`` tokens; a bad record
    fails naming its line."""
    try:
        g_record = [int(x) for x in line.split()]
        if len(g_record) not in (n_hyp, n_hyp + 1):  # +1: the hypothesis's EOS
            raise MetricError(f"g-record length {len(g_record)} matches neither the "
                              f"hypothesis's {n_hyp} tokens nor {n_hyp + 1} with its EOS")
        return average_lagging(g_record, n_source)
    except ValueError as exc:  # a MetricError, or a token that is no integer
        raise MetricError(f"line {number}: {exc}") from None


def _line_aligned(path, flag: str, n_lines: int) -> list[str]:
    """The lines of the ``flag`` file, which must hold one per hypothesis."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if len(lines) != n_lines:
        raise ValueError(f"{flag} is not line-aligned with the corpus")
    return lines


def _cmd_eval(args) -> int:
    if args.src and not args.g_records:
        raise ValueError("--src requires --g-records")
    hyp_lines = core.read_token_lines(args.hyp)
    ref_lines = core.read_token_lines(args.ref)
    if len(hyp_lines) != len(ref_lines):
        raise ValueError("hypothesis/reference line counts differ")
    al = hr = None
    if args.g_records:
        if not args.src:
            raise ValueError("--g-records requires --src for source lengths")
        src_lines = core.read_token_lines(args.src)
        if len(src_lines) != len(hyp_lines):
            raise ValueError("--src is not line-aligned with the corpus")
        g_lines = _line_aligned(args.g_records, "--g-records", len(hyp_lines))
        lags = [_line_lag(number, line, len(hyp), len(src) + 1)  # +1: EOS is part of N
                for number, (line, hyp, src)
                in enumerate(zip(g_lines, hyp_lines, src_lines), start=1)]
        al = sum(lags) / len(lags)
    if args.hyp_align:
        aligns = []
        for number, line in enumerate(
                _line_aligned(args.hyp_align, "--hyp-align", len(hyp_lines)), start=1):
            with core._at(f"line {number}"):
                aligns.append(core.parse_alignment_line(line))
        hr = hallucination_rate(hyp_lines, aligns)
    row = EvalResult(policy="external", lambda_or_k=None, suffix="", r_max=None, al=al,
                     bleu=corpus_bleu(hyp_lines, ref_lines), hr=hr,
                     n_sentences=len(hyp_lines), seed=args.seed)
    _write([EvalResult.CSV_HEADER, row.csv_row()], args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
