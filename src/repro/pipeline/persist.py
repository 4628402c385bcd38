"""Persistence for trained classifier banks.

A deployment trains in the lab and runs for months on a border tap
(§5.1); the models must survive process restarts. Forests serialize to
compact numpy archives (one array block per tree) and the attribute
encoders' codebooks to JSON; everything lands in one directory:

    bank/
      manifest.json            scenarios, thresholds, versions
      <provider>_<transport>.npz      tree arrays for 3 models
      <provider>_<transport>.json     encoder codebooks + label spaces
"""

from __future__ import annotations

import json
import zipfile
import zlib
from pathlib import Path

import numpy as np

from repro.errors import ConfigError
from repro.features.encode import AttributeEncoder, _Codebook
from repro.fingerprints.model import Provider, Transport
from repro.fingerprints.packs import active_pack
from repro.ml.base import LabelEncoder
from repro.ml.forest import RandomForestClassifier, _SharedEncoder
from repro.ml.tree import DecisionTreeClassifier
from repro.pipeline.bank import ClassifierBank, TrainedScenario

_FORMAT_VERSION = 1


def _serialize_forest(forest: RandomForestClassifier, prefix: str,
                      arrays: dict[str, np.ndarray]) -> dict:
    meta = {
        "classes": [str(c) for c in forest.classes_],
        "n_trees": len(forest._trees),
        "params": {
            "n_estimators": forest.n_estimators,
            "max_depth": forest.max_depth,
            "max_features": forest.max_features
            if not isinstance(forest.max_features, str)
            else forest.max_features,
            "random_state": forest.random_state,
        },
    }
    for i, tree in enumerate(forest._trees):
        arrays[f"{prefix}_t{i}_feature"] = tree._feature_arr
        arrays[f"{prefix}_t{i}_threshold"] = tree._threshold_arr
        arrays[f"{prefix}_t{i}_left"] = tree._left_arr
        arrays[f"{prefix}_t{i}_right"] = tree._right_arr
        arrays[f"{prefix}_t{i}_value"] = tree._value_arr
    return meta


def _deserialize_forest(meta: dict, prefix: str, arrays) -> \
        RandomForestClassifier:
    forest = RandomForestClassifier(**{
        k: v for k, v in meta["params"].items()
    })
    encoder = LabelEncoder()
    encoder.fit(meta["classes"])
    forest._encoder = encoder
    n_trees = meta["n_trees"]
    if not isinstance(n_trees, int) or n_trees < 1:
        raise ValueError(f"{prefix} model has n_trees {n_trees!r}")
    trees = []
    for i in range(n_trees):
        tree = DecisionTreeClassifier()
        tree._encoder = _SharedEncoder(encoder)
        tree._builder = object()  # marks the tree as fitted
        tree._feature_arr = arrays[f"{prefix}_t{i}_feature"]
        tree._threshold_arr = arrays[f"{prefix}_t{i}_threshold"]
        tree._left_arr = arrays[f"{prefix}_t{i}_left"]
        tree._right_arr = arrays[f"{prefix}_t{i}_right"]
        tree._value_arr = arrays[f"{prefix}_t{i}_value"]
        trees.append(tree)
    forest._trees = trees
    return forest


def _encoder_state(encoder: AttributeEncoder) -> dict:
    return {
        "transport": encoder.transport.value,
        "attribute_names": encoder.attribute_names,
        "max_list_slots": encoder.max_list_slots,
        "list_slots": encoder._list_slots,
        "codebooks": {
            name: [[_json_key(k), v] for k, v in book.codes.items()]
            for name, book in encoder._codebooks.items()
        },
    }


def _json_key(value) -> list:
    """Codebook keys can be ints, strings or tuples; tag the type so the
    round trip is exact."""
    if isinstance(value, tuple):
        return ["tuple", [_json_key(v) for v in value]]
    if isinstance(value, int):
        return ["int", value]
    return ["str", str(value)]


def _from_json_key(tagged):
    kind, value = tagged
    if kind == "tuple":
        return tuple(_from_json_key(v) for v in value)
    if kind == "int":
        return int(value)
    return str(value)


def _restore_encoder(state: dict) -> AttributeEncoder:
    encoder = AttributeEncoder(
        Transport(state["transport"]),
        attribute_names=state["attribute_names"],
        max_list_slots=state["max_list_slots"],
    )
    encoder._list_slots = {k: int(v)
                           for k, v in state["list_slots"].items()}
    encoder._codebooks = {}
    for name, entries in state["codebooks"].items():
        book = _Codebook()
        book.codes = {_from_json_key(k): v for k, v in entries}
        encoder._codebooks[name] = book
    # Rebuild column layout exactly as fit() does.
    encoder._columns = []
    encoder._column_attr = []
    from repro.features.schema import AttributeKind

    for spec in encoder.specs:
        if spec.kind is AttributeKind.LIST:
            for i in range(encoder._list_slots[spec.name]):
                encoder._columns.append(f"{spec.name}[{i}]")
                encoder._column_attr.append(spec.name)
        else:
            encoder._columns.append(spec.name)
            encoder._column_attr.append(spec.name)
    encoder._fitted = True
    return encoder


def save_bank(bank: ClassifierBank, path: str | Path) -> None:
    """Write a trained bank to ``path`` (a directory, created)."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format_version": _FORMAT_VERSION,
        "pack": bank.pack_info,
        "label_mode": bank.label_mode,
        "scenarios": [],
    }
    for (provider, transport), scenario in bank.scenarios.items():
        stem = f"{provider.value}_{transport.value}"
        arrays: dict[str, np.ndarray] = {}
        meta = {
            "provider": provider.value,
            "transport": transport.value,
            "n_training_flows": scenario.n_training_flows,
            "encoder": _encoder_state(scenario.encoder),
            "models": {
                "platform": _serialize_forest(scenario.platform_model,
                                              "platform", arrays),
                "device": _serialize_forest(scenario.device_model,
                                            "device", arrays),
                "agent": _serialize_forest(scenario.agent_model,
                                           "agent", arrays),
            },
        }
        np.savez_compressed(root / f"{stem}.npz", **arrays)
        (root / f"{stem}.json").write_text(json.dumps(meta))
        manifest["scenarios"].append(stem)
    (root / "manifest.json").write_text(json.dumps(manifest, indent=2))


def load_bank(path: str | Path) -> ClassifierBank:
    """Load a bank previously written by :func:`save_bank`.

    A bank directory that is corrupted, truncated, or of an unknown
    format version raises :class:`ConfigError` — a restarted
    deployment must refuse a damaged model store rather than come up
    classifying with garbage.
    """
    root = Path(path)
    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        raise ConfigError(f"no bank manifest at {root}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
        raise ConfigError(
            f"unreadable bank manifest at {root}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ConfigError(f"malformed bank manifest at {root}")
    if manifest.get("format_version") != _FORMAT_VERSION:
        raise ConfigError(
            f"unsupported bank format {manifest.get('format_version')}")
    pack_info = manifest.get("pack")
    if pack_info is not None:
        if not isinstance(pack_info, dict):
            raise ConfigError(f"malformed pack stamp at {root}")
        current = active_pack()
        if pack_info.get("digest") != current.digest:
            raise ConfigError(
                f"bank at {root} was trained against pack "
                f"{pack_info.get('name')}@{pack_info.get('version')} "
                f"(digest {str(pack_info.get('digest'))[:12]}…) but the "
                f"active pack is {current.name}@{current.version} "
                f"(digest {current.digest[:12]}…); activate the matching "
                "pack or retrain")
    label_mode = manifest.get("label_mode", "platform")
    scenarios = {}
    try:
        stems = list(manifest["scenarios"])
    except (KeyError, TypeError) as exc:
        raise ConfigError(
            f"malformed bank manifest at {root}: {exc}") from exc
    for stem in stems:
        try:
            meta = json.loads((root / f"{stem}.json").read_text())
            arrays = np.load(root / f"{stem}.npz")
            provider = Provider(meta["provider"])
            transport = Transport(meta["transport"])
            scenarios[(provider, transport)] = TrainedScenario(
                provider=provider,
                transport=transport,
                encoder=_restore_encoder(meta["encoder"]),
                platform_model=_deserialize_forest(
                    meta["models"]["platform"], "platform", arrays),
                device_model=_deserialize_forest(
                    meta["models"]["device"], "device", arrays),
                agent_model=_deserialize_forest(
                    meta["models"]["agent"], "agent", arrays),
                n_training_flows=meta["n_training_flows"],
            )
        except ConfigError:
            raise
        except (json.JSONDecodeError, UnicodeDecodeError, KeyError,
                TypeError, ValueError, OSError,
                zipfile.BadZipFile, zlib.error) as exc:
            # np.load raises BadZipFile/zlib.error/ValueError/OSError
            # on damaged archives; enum and dict lookups raise the
            # rest.
            raise ConfigError(
                f"corrupt bank artifact {stem!r} at {root}: "
                f"{exc}") from exc
    return ClassifierBank(scenarios, pack_info=pack_info,
                          label_mode=label_mode)
