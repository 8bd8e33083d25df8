"""Text-based (JSON) model container for micro and table models.

Both formats embed the vocabulary so a saved model is self-contained.
Floats are serialized via repr and round-trip bit-exactly; entry and key
ordering is fixed so saving the same model twice produces identical bytes.
"""

from __future__ import annotations

import json

import numpy as np

from .core import ModelFileError, Vocabulary
from .micro import MicroModel, tensor_shapes
from .tables import BACKOFF_SCHEDULE, TableModel

FORMAT_VERSION = 1


def _vocab_to_json(vocab: Vocabulary) -> dict:
    return {
        "tokens": list(vocab.tokens),
        "bos": vocab.bos,
        "eos": vocab.eos,
        "unk": vocab.unk,
        "freq_rank": dict(vocab.freq_rank) if vocab.freq_rank is not None else None,
    }


def _vocab_from_json(obj: dict) -> Vocabulary:
    return Vocabulary(
        tokens=tuple(obj["tokens"]),
        bos=obj["bos"],
        eos=obj["eos"],
        unk=obj["unk"],
        freq_rank=obj.get("freq_rank"),
    )


def save_model(model, path) -> None:
    if isinstance(model, MicroModel):
        doc = {
            "format_version": FORMAT_VERSION,
            "kind": "micro",
            "vocab": _vocab_to_json(model.vocab),
            "meta": {
                "d": model.d,
                "max_len": model.max_len,
                "mode": model.mode,
                "vocab_hash": model.vocab.hash_hex(),
            },
            "tensors": {
                name: {"data": model.params[name].ravel().tolist(),
                       "shape": list(model.params[name].shape)}
                for name in sorted(model.params)
            },
        }
    elif isinstance(model, TableModel):
        if model.vocab is None:
            raise ModelFileError("table model has no vocabulary attached")
        doc = {
            "format_version": FORMAT_VERSION,
            "kind": "table",
            "vocab": _vocab_to_json(model.vocab),
            "default": model.default.probs.tolist(),
            "backoff": BACKOFF_SCHEDULE,
            "entries": [
                {"src": list(src), "tgt": list(tgt), "dist": dist.probs.tolist()}
                for (src, tgt), dist in sorted(model.entries.items())
            ],
        }
    else:
        raise ModelFileError(f"cannot serialize model of type {type(model).__name__}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def load_model(path):
    """Load a model saved by save_model; returns MicroModel or TableModel."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ModelFileError(f"cannot read model file {path}: {exc}") from exc
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ModelFileError(f"{path} is not a simtkit model file")
    if doc.get("format_version") != FORMAT_VERSION:
        raise ModelFileError(
            f"unsupported model format_version {doc.get('format_version')!r}")

    vocab = _vocab_from_json(doc["vocab"]) if doc.get("vocab") else None
    if doc["kind"] == "micro":
        if vocab is None:
            raise ModelFileError("micro model file is missing its vocabulary")
        meta = doc["meta"]
        if meta["vocab_hash"] != vocab.hash_hex():
            raise ModelFileError("vocab_hash does not match the embedded vocabulary")
        shapes = tensor_shapes(len(vocab), meta["d"], meta["max_len"])
        params = {}
        for name, shape in shapes.items():
            entry = doc["tensors"].get(name)
            if entry is None or tuple(entry["shape"]) != shape:
                raise ModelFileError(f"tensor {name!r} missing or has wrong shape")
            params[name] = np.array(entry["data"], dtype=np.float64).reshape(shape)
        return MicroModel(vocab, d=meta["d"], max_len=meta["max_len"],
                          mode=meta["mode"], params=params)
    if doc["kind"] == "table":
        if vocab is None:
            raise ModelFileError("table model file is missing its vocabulary")
        if doc.get("backoff", BACKOFF_SCHEDULE) != BACKOFF_SCHEDULE:
            raise ModelFileError(f"unsupported backoff schedule {doc['backoff']!r}")
        entries = {(tuple(e["src"]), tuple(e["tgt"])): np.array(e["dist"])
                   for e in doc["entries"]}
        return TableModel(len(vocab), entries, np.array(doc["default"]), vocab=vocab)
    raise ModelFileError(f"unknown model kind {doc['kind']!r}")
