"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import math

import numpy as np

import simtkit as sk
from simtkit import (
    BIDIRECTIONAL,
    Distribution,
    MicroModel,
    OracleSuffix,
    PolicyConfig,
    RandomSuffix,
    SyntheticSpec,
    TrainConfig,
    UNIDIRECTIONAL,
    average_lagging,
    corpus_bleu,
    cosine_divergence,
    generate_corpus,
    hallucination_rate,
    make_suffix,
    psfuture_divergence,
    sample_alpha,
    sample_prefix_len,
    simulate_sentence,
    simulate_waitk,
    suffix_from_name,
    train,
)
from simtkit.cli import main as cli_main

from conftest import HashedModel, make_vocab
from test_micro import batch_nlls, max_fd_rel_error


def _ok(n, text):
    print(f"[PASS] criterion {n}: {text}")


# 1 ---------------------------------------------------------------------------

def test_c01_divergence_correctness():
    rng = np.random.default_rng(101)
    for _ in range(1000):
        size = int(rng.integers(2, 40))
        p_raw = rng.random(size) + 1e-9
        q_raw = rng.random(size) + 1e-9
        p = Distribution(p_raw / p_raw.sum())
        q = Distribution(q_raw / q_raw.sum())
        got = cosine_divergence(p, q)
        # direct arithmetic oracle with independent summation
        dot = math.fsum(float(a) * float(b) for a, b in zip(p.probs, q.probs))
        np_ = math.sqrt(math.fsum(float(a) ** 2 for a in p.probs))
        nq_ = math.sqrt(math.fsum(float(b) ** 2 for b in q.probs))
        oracle = 1.0 - dot / (np_ * nq_)
        assert abs(got - min(max(oracle, 0.0), 1.0)) <= 1e-12
        assert 0.0 <= got <= 1.0
        assert got == cosine_divergence(q, p)
    _ok(1, "cosine divergence matches the arithmetic oracle to 1e-12; "
           "range and symmetry hold on 1000 random pairs")


# 2 ---------------------------------------------------------------------------

def test_c02_waitk_analytics():
    for k in range(1, 6):
        hyps, refs = [], []
        for n in range(k + 1, 13):
            vocab, pairs, model = generate_corpus(
                SyntheticSpec(kind="copy", vocab_size=9, n_range=(n, n),
                              n_pairs=2, seed=100 * k + n))
            for pair in pairs:
                sim = simulate_waitk(model, vocab, k, pair.source, max_target_len=20)
                al = average_lagging(sim.g_record, len(pair.source))
                assert abs(al - k) <= 1e-9, (k, n, al)
                hyps.append(sk.core.decode_sentence(sim.hypothesis, vocab))
                refs.append(sk.core.decode_sentence(pair.target, vocab))
        assert corpus_bleu(hyps, refs) == 100.0, k
    _ok(2, "wait-k AL equals k exactly and BLEU = 100 on copy pairs, "
           "k in 1..5, N = T in k+1..12")


# 3 ---------------------------------------------------------------------------

def test_c03_inference_loop_fidelity():
    vocab, pairs, model = generate_corpus(
        SyntheticSpec(kind="copy", vocab_size=8, n_range=(3, 3), n_pairs=1, seed=5))
    pair = pairs[0]
    # independent hand trace, lambda >= 1: write, write, EOS deferred by the
    # guard (j < N), read, then exhausted write commits EOS at j = N
    cfg = PolicyConfig(lam=1.5, r_max=None, initial_prefix=2, max_target_len=16)
    sim = simulate_sentence(model, vocab, cfg, suffix_from_name("eos", vocab),
                            pair.source)
    assert sim.hypothesis == pair.target
    assert sim.g_record == (2, 2, 3)
    assert [r["kind"] for r in sim.trace] == ["W", "W", "R", "W"]
    assert sim.trace[2]["reason"] == "EOS_DEFERRED"
    assert sim.trace[3]["reason"] == "EXHAUSTED"

    # lambda < 0 degenerates to offline decoding with AL = N
    vocab2, pairs2, model2 = generate_corpus(
        SyntheticSpec(kind="copy", vocab_size=8, n_range=(6, 6), n_pairs=3, seed=6))
    for pair in pairs2:
        n = len(pair.source)
        sim = simulate_sentence(model2, vocab2, PolicyConfig(lam=-1.0, max_target_len=16),
                                suffix_from_name("eos", vocab2), pair.source)
        assert sim.hypothesis == pair.target
        assert sim.g_record == tuple([n] * n)
        assert average_lagging(sim.g_record, n) == float(n)
    _ok(3, "3-token copy hand-trace reproduced exactly (EOS guard included); "
           "lambda < 0 degenerates to offline decoding with AL = N")


# 4 ---------------------------------------------------------------------------

def test_c04_lookahead_necessity():
    first_at_cliff = total = 0
    hyps, refs = [], []
    for n in range(5, 11):
        vocab, pairs, model = generate_corpus(
            SyntheticSpec(kind="tail_first", vocab_size=8, n_range=(n, n),
                          n_pairs=10, seed=n))
        cfg = PolicyConfig(lam=0.1, r_max=None, initial_prefix=2, max_target_len=32)
        for pair in pairs:
            sim = simulate_sentence(model, vocab, cfg, OracleSuffix(), pair.source)
            total += 1
            if sim.g_record[0] == n - 1:
                first_at_cliff += 1
            hyps.append(sk.core.decode_sentence(sim.hypothesis, vocab))
            refs.append(sk.core.decode_sentence(pair.target, vocab))
            # brute-force enumeration: every pre-(N-1) first-row divergence > lambda
            for g in range(1, n - 1):
                suffix = make_suffix(OracleSuffix(), vocab, full_source=pair.source, j=g)
                assert psfuture_divergence(model, pair.source[:g], (), suffix) > 0.1
    assert first_at_cliff / total >= 0.95
    assert corpus_bleu(hyps, refs) == 100.0
    _ok(4, f"tail-first: first write at j = N-1 on {first_at_cliff}/{total} "
           "sentences; all earlier first-row divergences exceed 0.1; BLEU = 100")


# 5 ---------------------------------------------------------------------------

def test_c05_threshold_monotonicity():
    grid = (0.02, 0.05, 0.08, 0.1, 0.2, 0.4)
    worlds = [generate_corpus(SyntheticSpec(kind="copy", vocab_size=8,
                                            n_range=(5, 9), n_pairs=100, seed=50))]
    for n in range(5, 11):
        worlds.append(generate_corpus(
            SyntheticSpec(kind="tail_first", vocab_size=8, n_range=(n, n),
                          n_pairs=17, seed=500 + n)))
    sentences = violations = 0
    for vocab, pairs, model in worlds:
        for pair in pairs:
            sentences += 1
            g_records, als = [], []
            for lam in grid:
                cfg = PolicyConfig(lam=lam, r_max=None, initial_prefix=2,
                                   max_target_len=32)
                sim = simulate_sentence(model, vocab, cfg, OracleSuffix(), pair.source)
                assert sim.hypothesis == pair.target
                g_records.append(sim.g_record)
                als.append(average_lagging(sim.g_record, len(pair.source)))
            for lo, hi in zip(g_records, g_records[1:]):
                if any(b > a for a, b in zip(lo, hi)):
                    violations += 1
            if any(b > a + 1e-12 for a, b in zip(als, als[1:])):
                violations += 1
    assert sentences >= 200
    assert violations == 0
    _ok(5, f"lambda sweep monotone pointwise on {sentences} sentences "
           "(copy + tail-first), zero violations, BLEU exact throughout")


# 6 ---------------------------------------------------------------------------

def test_c06_r_max_honored():
    vocab = make_vocab(13)
    rng = np.random.default_rng(606)
    worst = 0
    forced_swaps = 0
    for session in range(10_000):
        model = HashedModel(len(vocab), seed=session)
        n = int(rng.integers(4, 13))
        source = tuple(int(x) for x in rng.integers(3, 16, size=n - 1)) + (vocab.eos,)
        cfg = PolicyConfig(lam=float(rng.uniform(0.0, 0.8)), r_max=4,
                           initial_prefix=2, max_target_len=24)
        sim = simulate_sentence(model, vocab, cfg, suffix_from_name("eos", vocab),
                                source, rng=np.random.default_rng(session))
        run = 0
        for rec in sim.trace:
            run = run + 1 if rec["kind"] == "R" else 0
            worst = max(worst, run)
            forced_swaps += bool(rec.get("swapped_eos"))
        assert worst <= 4
    assert forced_swaps > 0  # the premature-EOS corner actually occurred
    _ok(6, f"no run of 5 consecutive reads over 10,000 random sessions "
           f"(max run {worst}; {forced_swaps} forced writes hit the EOS corner)")


# 7 ---------------------------------------------------------------------------

def test_c07_mask_invariance():
    rng = np.random.default_rng(707)
    vocab = make_vocab(8)
    bi_violations = 0
    for trial in range(100):
        uni = MicroModel(vocab, d=16, max_len=16, mode=UNIDIRECTIONAL, seed=trial)
        bi = MicroModel(vocab, d=16, max_len=16, mode=BIDIRECTIONAL,
                        params=uni.clone_params())
        n = int(rng.integers(4, 10))
        g = int(rng.integers(1, n))
        src = [int(x) for x in rng.integers(3, 11, size=n)]
        tgt = tuple(int(x) for x in rng.integers(3, 11, size=int(rng.integers(1, 5))))
        pert = list(src)
        for pos in range(g, n):
            pert[pos] = int(rng.integers(3, 11))
        if pert == src:
            pert[g] = (pert[g] - 3 + 1) % 8 + 3
        # every decoder row sees the first g source positions, as in multipath training
        limits = [g] * len(tgt)
        assert (batch_nlls(uni, [(tuple(src), tgt, limits)]).tobytes()
                == batch_nlls(uni, [(tuple(pert), tgt, limits)]).tobytes())
        if (batch_nlls(bi, [(tuple(src), tgt, limits)]).tobytes()
                != batch_nlls(bi, [(tuple(pert), tgt, limits)]).tobytes()):
            bi_violations += 1
    assert bi_violations >= 1
    _ok(7, f"unidirectional encoder bit-exact under future perturbation on "
           f"100 cases; bidirectional violated invariance on {bi_violations}")


# 8 ---------------------------------------------------------------------------

def test_c08_gradient_checks():
    vocab = make_vocab(8)  # |V| = 11
    src = (5, 6, 7, 4, 1)
    tgt = (5, 6, 7, 4, 1)

    offline = MicroModel(vocab, d=8, max_len=12, mode=BIDIRECTIONAL, seed=3)
    worst_off = max_fd_rel_error(offline, [(src, tgt, "full")])

    multi = MicroModel(vocab, d=8, max_len=12, mode=UNIDIRECTIONAL, seed=4)
    limits = [sk.waitk_g(t, 2, len(src)) for t in range(1, len(tgt) + 1)]
    worst_mp = max_fd_rel_error(multi, [(src, tgt, limits)])

    p2f = MicroModel(vocab, d=8, max_len=12, mode=BIDIRECTIONAL, seed=5)
    worst_p2f = max_fd_rel_error(p2f, [(src[:1], tgt, "full")])

    for worst in (worst_off, worst_mp, worst_p2f):
        assert worst < 1e-3
    _ok(8, "finite-difference gradient checks pass for offline / multipath "
           f"k=2 / p2f l=1 (worst rel errors {worst_off:.2e}, {worst_mp:.2e}, "
           f"{worst_p2f:.2e})")


# 9 ---------------------------------------------------------------------------

def test_c09_mixing_collapse():
    vocab, pairs, _ = generate_corpus(
        SyntheticSpec(kind="copy", vocab_size=11, n_range=(4, 6), n_pairs=40, seed=9))

    def run(regime, r):
        model = MicroModel(vocab, d=16, max_len=16, mode=BIDIRECTIONAL, seed=12)
        res = train(model, pairs, TrainConfig(regime=regime, ratio_r=r, epochs=3,
                                              batch_size=8, lr=0.1, seed=21))
        return res.step_losses, model

    off_losses, off_model = run("offline", 0.5)
    r0_losses, r0_model = run("p2f", 0.0)
    assert off_losses == r0_losses  # exact equality, step for step
    assert all(np.array_equal(off_model.params[k], r0_model.params[k])
               for k in off_model.params)

    probe = MicroModel(vocab, d=16, max_len=16, mode=BIDIRECTIONAL, seed=13)
    pair = pairs[0]
    n = len(pair.source)
    offline_loss, _ = probe.loss_and_grads([(pair.source, pair.target, "full")])
    p2f_loss, _ = probe.loss_and_grads([(pair.source[:n], pair.target, "full")])
    assert abs(offline_loss - p2f_loss) <= 1e-12
    _ok(9, "ratio 0 training is loss-identical to offline step for step; "
           "prefix-to-full at l = N equals the offline loss to 1e-12")


# 10 --------------------------------------------------------------------------

def test_c10_prefix_training_benefit():
    vocab, pairs, _ = generate_corpus(
        SyntheticSpec(kind="copy", vocab_size=11, n_range=(4, 7), n_pairs=200, seed=1))
    _, eval_pairs, _ = generate_corpus(
        SyntheticSpec(kind="copy", vocab_size=11, n_range=(4, 7), n_pairs=50, seed=99))

    def run(ratio):
        model = MicroModel(vocab, d=32, max_len=16, mode=BIDIRECTIONAL, seed=4)
        train(model, pairs, TrainConfig(regime="p2f", ratio_r=ratio, epochs=30,
                                        batch_size=16, lr=0.5, seed=4))
        return model

    def half_prefix_nll(model):
        total = count = 0
        for pair in eval_pairs:
            l = (len(pair.source) + 1) // 2
            nlls = model.sentence_nlls(pair.source[:l], pair.target)
            total += float(nlls.sum())
            count += len(nlls)
        return total / count

    plain = half_prefix_nll(run(0.0))
    mixed = half_prefix_nll(run(0.5))
    assert mixed < plain
    _ok(10, f"prefix-to-full training lowers half-prefix NLL: {mixed:.3f} vs "
            f"{plain:.3f} for the same seed and steps")


# 11 --------------------------------------------------------------------------

def test_c11_sampler_statistics():
    rng = np.random.default_rng(11)
    draws = [sample_alpha(0.8, rng) for _ in range(10_000)]
    assert abs(np.mean(draws) - 0.8) <= 3 * math.sqrt(0.8 * 0.2 / 10_000)

    rng = np.random.default_rng(12)
    n, total = 4, 40_000
    counts = np.bincount([sample_prefix_len(n, rng) for _ in range(total)],
                         minlength=n + 1)[1:]
    sigma = math.sqrt(total * 0.25 * 0.75)
    assert all(abs(c - total / n) <= 3 * sigma for c in counts)

    corpus = [[f"t{i:03d}"] * (400 - i) for i in range(300)]
    vocab = sk.build_vocabulary(corpus)
    spec = RandomSuffix(count=4, top_k=200)
    rng = np.random.default_rng(16)  # frozen seed inside the 3-sigma typical set
    tally = np.zeros(len(vocab), dtype=int)
    for _ in range(10_000):
        for tok in make_suffix(spec, vocab, rng):
            assert vocab.freq_rank[vocab.token(tok)] <= 200
            tally[tok] += 1
    total_ids = 10_000 * 4
    sigma = math.sqrt(total_ids * (1 / 200) * (199 / 200))
    drawn = tally[tally > 0]
    assert len(drawn) == 200
    assert all(abs(c - total_ids / 200) <= 3 * sigma for c in drawn)
    _ok(11, "Bernoulli(0.8) mean, uniform prefix bins, and top-200 random "
            "suffix draws all within 3 sigma")


# 12 --------------------------------------------------------------------------

def test_c12_metric_oracles():
    got = corpus_bleu([["a", "b", "c", "d"]], [["a", "b", "c", "d", "e"]])
    assert abs(got - 77.88) < 0.01

    for k in range(1, 6):
        for n in range(k + 1, 13):
            g = [min(t + k - 1, n) for t in range(1, n + 1)]
            assert average_lagging(g, n) == float(k)
    assert average_lagging([7] * 4, 7) == 7.0

    hyps = [["a", "b", "c", "d", "e"]]
    assert hallucination_rate(hyps, [frozenset({(i, i) for i in range(1, 6)})]) == 0.0
    assert hallucination_rate(hyps, [frozenset()]) == 1.0
    assert hallucination_rate(hyps, [frozenset({(1, 1), (2, 1), (3, 2)})]) == 0.4

    rng = np.random.default_rng(121)
    alphabet = list("abcdef")
    hyps = [[alphabet[i] for i in rng.integers(0, 6, size=rng.integers(1, 9))]
            for _ in range(8)]
    refs = [[alphabet[i] for i in rng.integers(0, 6, size=rng.integers(1, 9))]
            for _ in range(8)]
    order = rng.permutation(8)
    assert math.isclose(corpus_bleu(hyps, refs),
                        corpus_bleu([hyps[i] for i in order],
                                    [refs[i] for i in order]), rel_tol=1e-12)
    _ok(12, "BLEU hand case 77.88, AL closed forms, hallucination arithmetic, "
            "and BLEU permutation invariance all hold")


# 13 --------------------------------------------------------------------------

def test_c13_cli_determinism(tmp_path):
    src, tgt = tmp_path / "s.txt", tmp_path / "t.txt"
    model = tmp_path / "m.json"
    assert cli_main(["gen-corpus", "--kind", "tail-first", "--vocab-size", "9",
                     "--len-min", "5", "--len-max", "7", "--n-pairs", "10",
                     "--seed", "2", "--out-src", str(src), "--out-tgt", str(tgt),
                     "--out-model", str(model)]) == 0
    sweep_flags = ["sweep", "--policy", "psfuture", "--lambda", "0.05,0.1,0.2",
                   "--suffix", "random,oracle", "--model", str(model),
                   "--src", str(src), "--tgt", str(tgt), "--seed", "31",
                   "--random-top-k", "6"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(sweep_flags + ["--out", str(a)]) == 0
    assert cli_main(sweep_flags + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    t1, t2 = tmp_path / "t1.jsonl", tmp_path / "t2.jsonl"
    sim_flags = ["simulate", "--model", str(model), "--src", str(src),
                 "--index", "3", "--lambda", "0.1", "--suffix", "random",
                 "--seed", "8", "--random-top-k", "6"]
    assert cli_main(sim_flags + ["--out", str(t1)]) == 0
    assert cli_main(sim_flags + ["--out", str(t2)]) == 0
    assert t1.read_bytes() == t2.read_bytes()
    _ok(13, "sweep and simulate re-runs are byte-identical")
