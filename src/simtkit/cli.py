"""Command-line interface.

Subcommands: gen-corpus, train, simulate, sweep, divergence, eval.
Exit codes: 0 success, 1 usage error, 2 runtime failure. Every invocation
is a pure function of its flags, input files, and --seed; re-runs produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .core import PolicyConfig, load_parallel_corpus, decode_sentence, encode_sentence
from .metrics import EvalResult, average_lagging, corpus_bleu, hallucination_rate
from .micro import BIDIRECTIONAL, UNIDIRECTIONAL, MicroModel
from .modelio import load_model, save_model
from .policy import suffix_from_name, simulate_sentence
from .sweep import SweepSpec, emit_divergence_report, run_sweep, sweep_csv_lines
from .synthetic import SyntheticSpec, generate_corpus
from .training import TrainConfig, train
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
    parser.add_argument("--suffix", default="eos", help=suffix_help)
    parser.add_argument("--suffix-tokens")
    parser.add_argument("--random-count", type=int, default=4)
    parser.add_argument("--random-top-k", type=int, default=200)


def _suffix_spec(args, vocab):
    return suffix_from_name(
        args.suffix, vocab,
        tokens=args.suffix_tokens.split() if args.suffix_tokens else None,
        random_count=args.random_count, random_top_k=args.random_top_k)


def build_parser() -> _Parser:
    p = _Parser(prog="simtkit", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-corpus", parents=[], help="generate a synthetic corpus",
                       add_help=True)
    g.add_argument("--kind", required=True, choices=["copy", "local-swap", "tail-first"])
    g.add_argument("--vocab-size", type=int, default=10)
    g.add_argument("--len-min", type=int, default=5, help="min length incl. EOS")
    g.add_argument("--len-max", type=int, default=9, help="max length incl. EOS")
    g.add_argument("--n-pairs", type=int, default=50)
    g.add_argument("--window", type=int, default=2)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out-src", required=True)
    g.add_argument("--out-tgt", required=True)
    g.add_argument("--out-align")
    g.add_argument("--out-model", help="write the exact table model as JSON")

    t = sub.add_parser("train", help="train a micro model")
    t.add_argument("--config", help="key=value config file; flags override it")
    t.add_argument("--regime", choices=["offline", "multipath", "p2f"])
    t.add_argument("--ratio-r", type=float)
    t.add_argument("--k-choices", type=_ints)
    t.add_argument("--epochs", type=int)
    t.add_argument("--batch-size", type=int)
    t.add_argument("--lr", type=float)
    t.add_argument("--seed", type=int)
    t.add_argument("--src")
    t.add_argument("--tgt")
    t.add_argument("--checkpoint")
    t.add_argument("--curve", help="loss curve CSV output path")
    t.add_argument("--d", type=int)
    t.add_argument("--max-len", type=int)
    t.add_argument("--mode", choices=[BIDIRECTIONAL, UNIDIRECTIONAL])

    s = sub.add_parser("simulate", help="trace one adaptive decoding session")
    s.add_argument("--model", required=True)
    s.add_argument("--sentence", help="space-separated source tokens (no EOS)")
    s.add_argument("--src", help="corpus file to pick a sentence from")
    s.add_argument("--index", type=int, default=0)
    s.add_argument("--lambda", dest="lam", type=float, default=0.2)
    _add_suffix_flags(s)
    s.add_argument("--r-max", type=_r_max, default=None)
    s.add_argument("--initial-prefix", type=int, default=2)
    s.add_argument("--max-target-len", type=int, default=64)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", help="trace JSONL output (default stdout)")

    w = sub.add_parser("sweep", help="latency/quality curve over a corpus")
    w.add_argument("--policy", required=True, choices=["psfuture", "waitk"])
    w.add_argument("--lambda", dest="lambdas", type=_floats, default=())
    _add_suffix_flags(w, "comma-separated suffix names")
    w.add_argument("--k", dest="ks", type=_ints, default=())
    w.add_argument("--model", required=True)
    w.add_argument("--src", required=True)
    w.add_argument("--tgt", required=True)
    w.add_argument("--align")
    w.add_argument("--r-max", type=_r_max, default=None)
    w.add_argument("--initial-prefix", type=int, default=2)
    w.add_argument("--max-target-len", type=int, default=64)
    w.add_argument("--seed", type=int, default=0)
    w.add_argument("--out", required=True)

    d = sub.add_parser("divergence", help="divergence matrix for one pair")
    d.add_argument("--model", required=True)
    d.add_argument("--src", required=True)
    d.add_argument("--tgt", required=True)
    d.add_argument("--index", type=int, default=0)
    _add_suffix_flags(d)
    d.add_argument("--lambda", dest="lam", type=float, default=0.2)
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--out", required=True)

    e = sub.add_parser("eval", help="score existing hypothesis files")
    e.add_argument("--hyp", required=True)
    e.add_argument("--ref", required=True)
    e.add_argument("--src", help="needed for AL")
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
    vocab, pairs, model = generate_corpus(spec)
    core.write_parallel_corpus(pairs, vocab, args.out_src, args.out_tgt,
                               align_path=args.out_align)
    if args.out_model:
        save_model(model, args.out_model)
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


_TRAIN_DEFAULTS = {
    "regime": "offline", "ratio_r": 0.5, "k_choices": (1, 3, 5, 7, 9),
    "epochs": 10, "batch_size": 16, "lr": 0.05, "seed": 0,
    "d": 32, "max_len": 64, "mode": None, "src": None, "tgt": None,
    "checkpoint": None, "curve": None,
}
_TRAIN_PARSERS = {
    "ratio_r": float, "epochs": int, "batch_size": int, "lr": float,
    "seed": int, "d": int, "max_len": int, "k_choices": _ints,
}


def _cmd_train(args) -> int:
    # precedence: CLI flag > config file > default
    merged = dict(_TRAIN_DEFAULTS)
    if args.config:
        for key, raw in _read_config_file(args.config).items():
            if key == "r":  # documented short name for the mixing ratio
                key = "ratio_r"
            if key not in merged:
                raise ValueError(f"unknown config key {key!r}")
            merged[key] = _TRAIN_PARSERS.get(key, str)(raw)
    for key in merged:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    if not merged["src"] or not merged["tgt"]:
        raise ValueError("train requires --src and --tgt (or config keys src/tgt)")

    vocab, pairs = load_parallel_corpus(merged["src"], merged["tgt"])
    mode = merged["mode"] or (
        UNIDIRECTIONAL if merged["regime"] == "multipath" else BIDIRECTIONAL)
    model = MicroModel(vocab, d=merged["d"], max_len=merged["max_len"],
                       mode=mode, seed=merged["seed"])
    cfg = TrainConfig(
        regime=merged["regime"], ratio_r=merged["ratio_r"],
        k_choices=tuple(merged["k_choices"]), epochs=merged["epochs"],
        batch_size=merged["batch_size"], lr=merged["lr"], seed=merged["seed"],
    )
    result = train(model, pairs, cfg)
    if merged["checkpoint"]:
        save_model(model, merged["checkpoint"])
    if merged["curve"]:
        with open(merged["curve"], "w", encoding="utf-8") as fh:
            fh.write("\n".join(result.curve_csv_lines()) + "\n")
    final = result.epoch_stats[-1].mean_loss if result.epoch_stats else float("nan")
    print(f"trained {cfg.epochs} epochs, final mean loss {final!r}")
    return 0


def _cmd_simulate(args) -> int:
    model = load_model(args.model)
    vocab = model.vocab
    if args.sentence:
        source = encode_sentence(args.sentence.split(), vocab)
    elif args.src:
        lines = core.read_token_lines(args.src)
        if not (0 <= args.index < len(lines)):
            raise ValueError(f"--index {args.index} outside corpus of {len(lines)}")
        source = encode_sentence(lines[args.index], vocab)
    else:
        raise ValueError("simulate needs --sentence or --src")
    suffix = _suffix_spec(args, vocab)
    cfg = PolicyConfig(lam=args.lam, r_max=args.r_max,
                       initial_prefix=args.initial_prefix,
                       max_target_len=args.max_target_len)
    rng = np.random.default_rng(np.random.SeedSequence([args.seed, 0]))
    sim = simulate_sentence(model, vocab, cfg, suffix, source, rng=rng)

    records = [dict(rec) for rec in sim.trace]
    summary = {
        "summary": True,
        "hypothesis": " ".join(decode_sentence(sim.hypothesis, vocab)),
        "g_record": list(sim.g_record),
        "al": average_lagging(sim.g_record, len(source)) if sim.g_record else None,
        "truncated": sim.truncated,
    }
    lines = [json.dumps(r, sort_keys=True) for r in records + [summary]]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_sweep(args) -> int:
    model = load_model(args.model)
    vocab = model.vocab
    _, pairs = load_parallel_corpus(args.src, args.tgt, vocab=vocab,
                                    align_path=args.align)
    spec = SweepSpec(
        policy=args.policy,
        lambdas=args.lambdas,
        suffixes=tuple(args.suffix.split(",")) if args.suffix else (),
        suffix_tokens=tuple(args.suffix_tokens.split()) if args.suffix_tokens else (),
        ks=args.ks,
        r_max=args.r_max,
        initial_prefix=args.initial_prefix,
        max_target_len=args.max_target_len,
        seed=args.seed,
        random_count=args.random_count,
        random_top_k=args.random_top_k,
    )
    results = run_sweep(model, vocab, pairs, spec)
    provenance = {"model": args.model, "src": args.src, "tgt": args.tgt}
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(sweep_csv_lines(results, spec, provenance)) + "\n")
    print(f"wrote {len(results)} rows to {args.out}")
    return 0


def _cmd_divergence(args) -> int:
    model = load_model(args.model)
    vocab = model.vocab
    _, pairs = load_parallel_corpus(args.src, args.tgt, vocab=vocab)
    if not (0 <= args.index < len(pairs)):
        raise ValueError(f"--index {args.index} outside corpus of {len(pairs)}")
    suffix = _suffix_spec(args, vocab)
    rng = np.random.default_rng(np.random.SeedSequence([args.seed, args.index]))
    emit_divergence_report(model, vocab, pairs[args.index], suffix, args.lam,
                           args.out, rng=rng)
    print(f"wrote divergence report to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    hyp_lines = core.read_token_lines(args.hyp)
    ref_lines = core.read_token_lines(args.ref)
    if len(hyp_lines) != len(ref_lines):
        raise ValueError("hypothesis/reference line counts differ")
    bleu = corpus_bleu(hyp_lines, ref_lines)
    al = ""
    if args.g_records:
        if not args.src:
            raise ValueError("--g-records requires --src for source lengths")
        src_lines = core.read_token_lines(args.src)
        with open(args.g_records, encoding="utf-8") as fh:
            g_lines = [[int(x) for x in line.split()] for line in fh.read().splitlines()]
        if len(g_lines) != len(hyp_lines):
            raise ValueError("--g-records is not line-aligned with the corpus")
        lags = [average_lagging(g, len(src) + 1)  # +1: EOS is part of N
                for g, src in zip(g_lines, src_lines)]
        al = repr(sum(lags) / len(lags))
    hr = ""
    if args.hyp_align:
        with open(args.hyp_align, encoding="utf-8") as fh:
            aligns = [core.parse_alignment_line(line)
                      for line in fh.read().splitlines()]
        hr = repr(hallucination_rate(hyp_lines, aligns))
    lines = [EvalResult.CSV_HEADER,
             f"external,,,,{al},{bleu!r},{hr},{len(hyp_lines)},{args.seed}"]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
