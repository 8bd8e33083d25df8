"""Training regimes for the micro model.

Three regimes:
  * offline     - full-source cross-entropy
  * multipath   - prefix-to-prefix wait-k training; one k is drawn per batch
    and cross-attention at target step t is capped at g(t;k). Requires the
    unidirectional encoder, which ``train`` checks before the first step,
    also when it runs no epoch.
  * p2f         - prefix-to-full mixing: per example, a Bernoulli(ratio_r)
    draw picks between the offline loss and the loss of producing the *full*
    target from a uniformly drawn source prefix x_<=l. The truncated prefix
    is the entire encoder input, matching inference where unread tokens do
    not exist.

Everything (shuffling, draws, gradient accumulation order) is deterministic
under the configured seed; two runs with the same seed produce identical
loss curves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import ConfigError, NumericError, SentencePair, _at, validate_pair
from .micro import MicroModel, UNIDIRECTIONAL, _check_lr, sgd_step
from .policy import _check_lengths, waitk_g

REGIMES = ("offline", "multipath", "p2f")


@dataclass(frozen=True)
class TrainConfig:
    """Training knobs, whose defaults and checks the train flags and config
    file use too; ``d``, ``max_len`` and ``mode`` are ``MicroModel``'s."""
    regime: str = "offline"
    ratio_r: float = 0.5                 # p2f Bernoulli parameter
    k_choices: tuple[int, ...] = (1, 3, 5, 7, 9)
    epochs: int = 10
    batch_size: int = 16
    lr: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ConfigError(f"regime must be one of {REGIMES}")
        if not (0.0 <= self.ratio_r <= 1.0):
            raise ConfigError("ratio_r must lie in [0, 1]")
        if not self.k_choices or any(k < 1 for k in self.k_choices):
            raise ConfigError("k_choices must be non-empty with every k >= 1")
        if self.epochs < 0 or self.batch_size < 1:
            raise ConfigError("epochs >= 0 and batch_size >= 1 required")
        _check_lr(self.lr)
        if self.seed < 0:
            raise ConfigError(f"seed={self.seed} must be >= 0")


def sample_prefix_len(n: int, rng: np.random.Generator) -> int:
    """Uniform over {1..n}."""
    if n < 1:
        raise ConfigError("source length must be >= 1")
    return int(rng.integers(1, n + 1))


def sample_alpha(r: float, rng: np.random.Generator) -> int:
    """Bernoulli(r) in {0, 1}; ``TrainConfig.ratio_r`` is checked to lie in [0, 1]."""
    return int(rng.random() < r)


@dataclass
class EpochStats:
    epoch: int
    mean_loss: float
    alpha_rate: float | None = None   # p2f audit
    mean_l: float | None = None       # p2f audit
    k_histogram: dict[int, int] = field(default_factory=dict)  # multipath audit

    def audit_csv(self) -> str:
        alpha = "" if self.alpha_rate is None else repr(self.alpha_rate)
        mean_l = "" if self.mean_l is None else repr(self.mean_l)
        hist = "|".join(f"{k}:{self.k_histogram[k]}" for k in sorted(self.k_histogram))
        return f"{self.epoch},{self.mean_loss!r},{alpha},{mean_l},{hist}"


@dataclass
class TrainResult:
    epoch_stats: list[EpochStats]
    step_losses: list[float]

    def curve_csv_lines(self) -> list[str]:
        lines = ["epoch,mean_loss,alpha_rate,mean_l,k_histogram"]
        lines += [s.audit_csv() for s in self.epoch_stats]
        return lines


def train(model: MicroModel, corpus: Sequence[SentencePair], cfg: TrainConfig) -> TrainResult:
    """Run epochs of shuffled minibatch SGD under the configured regime.

    Before the first step, ``train`` checks the multipath regime's encoder
    and every pair's length against the model's ``max_len`` (ConfigError),
    and every pair as ``validate_pair`` does under the model's vocabulary
    (CorpusError naming the sentence), so a run that cannot train leaves
    the model as it was. On a NaN loss, parameters are rolled back to the
    start of the epoch and NumericError is raised (the rolled-back model is
    the last good state).
    """
    if not corpus:
        raise ConfigError("training corpus is empty")
    if cfg.regime == "multipath" and model.mode != UNIDIRECTIONAL:
        raise ConfigError("multipath wait-k training requires a UNIDIRECTIONAL encoder")
    for i, pair in enumerate(corpus):
        with _at(f"sentence {i}"):
            validate_pair(pair, model.vocab)
        _check_lengths(model, pair.source, target=pair.target, sentence=i)
    seeds = np.random.SeedSequence(cfg.seed).spawn(2)
    shuffle_rng = np.random.default_rng(seeds[0])
    regime_rng = np.random.default_rng(seeds[1])

    stats: list[EpochStats] = []
    step_losses: list[float] = []
    for epoch in range(cfg.epochs):
        checkpoint = model.clone_params()
        order = shuffle_rng.permutation(len(corpus))
        epoch_losses: list[float] = []
        alphas: list[int] = []
        ls: list[int] = []
        k_hist: dict[int, int] = {}
        try:
            for start in range(0, len(order), cfg.batch_size):
                batch = [corpus[i] for i in order[start:start + cfg.batch_size]]
                loss, grads = _batch_step(model, batch, cfg, regime_rng,
                                          alphas, ls, k_hist)
                if not np.isfinite(loss):
                    raise NumericError("loss is not finite")
                sgd_step(model, grads, cfg.lr)
                epoch_losses.append(loss)
                step_losses.append(loss)
        except NumericError as exc:
            model.set_params(checkpoint)
            raise NumericError(
                f"training diverged at epoch {epoch}; parameters rolled back "
                f"to the epoch start ({exc})") from exc
        stat = EpochStats(epoch=epoch, mean_loss=float(np.mean(epoch_losses)),
                          k_histogram=dict(k_hist))
        if cfg.regime == "p2f":
            stat.alpha_rate = float(np.mean(alphas)) if alphas else 0.0
            stat.mean_l = float(np.mean(ls)) if ls else 0.0
        stats.append(stat)
    return TrainResult(epoch_stats=stats, step_losses=step_losses)


def _batch_step(model, batch, cfg, rng, alphas, ls, k_hist):
    if cfg.regime == "multipath":
        k = int(cfg.k_choices[rng.integers(0, len(cfg.k_choices))])
        k_hist[k] = k_hist.get(k, 0) + 1
    # every regime builds items for one padded batch: multipath caps row t at
    # g(t;k) and p2f may truncate a source; untruncated p2f items are offline
    # ones, so ratio_r = 0 reproduces offline training bit for bit
    items = []
    for pair in batch:
        source, limits = pair.source, "full"
        if cfg.regime == "multipath":
            limits = [waitk_g(t, k, len(source)) for t in range(1, len(pair.target) + 1)]
        elif cfg.regime == "p2f":
            alpha = sample_alpha(cfg.ratio_r, rng)
            alphas.append(alpha)
            if alpha:
                l = sample_prefix_len(len(source), rng)
                ls.append(l)
                source = source[:l]
        items.append((source, pair.target, limits))
    return model.loss_and_grads(items)
