"""Text-based (JSON) model container for micro and table models.

Both formats embed the vocabulary so a saved model is self-contained.
Floats are serialized via repr and round-trip bit-exactly; entry and key
ordering is fixed so saving the same model twice produces identical bytes.
"""

from __future__ import annotations

import json
from array import array
from functools import cache
from itertools import chain

import numpy as np

from .core import Distribution, ModelFileError, Vocabulary
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


# the Python types ``json`` reads: a JSON true is a bool, never a number
_INT, _NUMBER, _STR, _LIST, _OBJECT = {int}, {int, float}, {str}, {list}, {dict}


def _fields(objs, key, kinds, items=None) -> list:
    """``obj[key]`` of each of the JSON objects ``objs``, if the type of each
    is in ``kinds`` and, when ``items`` is given, the type of each of their
    list items or object values is in ``items``."""
    values = [obj.get(key) for obj in objs]
    if not kinds.issuperset(map(type, values)) or items is not None and not items.issuperset(
            map(type, chain.from_iterable(map(dict.values, values) if kinds is _OBJECT
                                          else values))):
        raise ModelFileError(f"model file field {key!r} is missing or has the wrong type")
    return values


def _field(obj, key, kinds, items=None):
    return _fields([obj], key, kinds, items)[0]


def _vocab_from_json(obj: dict) -> Vocabulary:
    ranks = obj.get("freq_rank")
    return Vocabulary(
        tokens=tuple(_field(obj, "tokens", _LIST, _STR)),
        bos=obj.get("bos"),  # Vocabulary checks the special ids
        eos=obj.get("eos"),
        unk=obj.get("unk"),
        freq_rank=None if ranks is None else _field(obj, "freq_rank", _OBJECT, _INT),
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
        # entries share their Distributions, so each distinct one converts once
        rows = {dist: dist.probs.tolist() for dist in set(model.entries.values())}
        doc = {
            "format_version": FORMAT_VERSION,
            "kind": "table",
            "vocab": _vocab_to_json(model.vocab),
            "default": model.default.probs.tolist(),
            "backoff": BACKOFF_SCHEDULE,
            "entries": [
                {"src": list(src), "tgt": list(tgt), "dist": rows[dist]}
                for (src, tgt), dist in sorted(model.entries.items())
            ],
        }
    else:
        raise ModelFileError(f"cannot serialize model of type {type(model).__name__}")
    text = json.dumps(doc, sort_keys=True) + "\n"  # dumps uses the C encoder; dump does not
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_model(path):
    """Load a model saved by save_model; returns MicroModel or TableModel."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ModelFileError(f"cannot read model file {path}: {exc}") from exc
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ModelFileError(f"{path} is not a simtkit model file")
    if type(doc.get("format_version")) is not int or doc["format_version"] != FORMAT_VERSION:
        raise ModelFileError(
            f"unsupported model format_version {doc.get('format_version')!r}")

    vocab = _vocab_from_json(_field(doc, "vocab", _OBJECT))
    if doc["kind"] == "micro":
        meta = _field(doc, "meta", _OBJECT)
        d, max_len = _field(meta, "d", _INT), _field(meta, "max_len", _INT)
        if _field(meta, "vocab_hash", _STR) != vocab.hash_hex():
            raise ModelFileError("vocab_hash does not match the embedded vocabulary")
        tensors = _field(doc, "tensors", _OBJECT, _OBJECT)
        params = {}
        for name, shape in tensor_shapes(len(vocab), d, max_len).items():
            if name not in tensors or tuple(_field(tensors[name], "shape", _LIST, _INT)) != shape:
                raise ModelFileError(f"tensor {name!r} missing or has wrong shape")
            data = _field(tensors[name], "data", _LIST, _NUMBER)
            try:
                params[name] = np.array(data, dtype=np.float64).reshape(shape)
            except (OverflowError, ValueError) as exc:  # an int beyond float64, a wrong count
                raise ModelFileError(f"tensor {name!r}: {exc}") from exc
            if not np.isfinite(params[name]).all():  # json reads NaN and Infinity
                raise ModelFileError(f"tensor {name!r} holds non-finite values")
        return MicroModel(vocab, d=d, max_len=max_len, mode=_field(meta, "mode", _STR),
                          params=params)
    if doc["kind"] == "table":
        if doc.get("backoff", BACKOFF_SCHEDULE) != BACKOFF_SCHEDULE:
            raise ModelFileError(f"unsupported backoff schedule {doc['backoff']!r}")
        entries = _field(doc, "entries", _LIST, _OBJECT)
        keys = zip(map(tuple, _fields(entries, "src", _LIST, _INT)),
                   map(tuple, _fields(entries, "tgt", _LIST, _INT)))
        # one Distribution per distinct row, keyed on the row's exact float64
        # bytes so that a 0.0 row and a -0.0 row stay apart; a bad row raises
        # and is not stored, so each entry that holds it raises
        @cache
        def shared(data):
            probs = np.frombuffer(data)
            if len(probs) != len(vocab):
                raise ValueError(f"distribution length {len(probs)} != vocab size {len(vocab)}")
            return Distribution(probs)

        def dist(row, key=None):
            """The Distribution of ``row``, the entry ``key``'s or (None) the default's."""
            try:
                return shared(array("d", row).tobytes())  # OverflowError: an int beyond float64
            except (OverflowError, ValueError) as exc:
                where = "table default" if key is None else f"table entry (src, tgt) = {key}"
                raise ModelFileError(f"{where}: {exc}") from exc

        table = {}
        for key, row in zip(keys, _fields(entries, "dist", _LIST, _NUMBER)):
            if key in table:
                raise ModelFileError(f"table entry (src, tgt) = {key} appears twice")
            table[key] = dist(row, key)
        return TableModel(vocab, table, dist(_field(doc, "default", _LIST, _NUMBER)))
    raise ModelFileError(f"unknown model kind {doc['kind']!r}")
