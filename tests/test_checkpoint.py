import hashlib
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tabdiffuse import checkpoint
from tabdiffuse.checkpoint import MAGIC, CheckpointError, load_checkpoint, save_checkpoint
from tabdiffuse.data import MinMaxScaler
from tabdiffuse.denoisers import ARCHITECTURES, DenoiserConfig, build_denoiser
from tabdiffuse.rng import Rng

CONFIGS = {
    "mlp": DenoiserConfig(arch="mlp", n_features=3, hidden=6, blocks=2),
    "resnet": DenoiserConfig(arch="resnet", n_features=3, hidden=4, blocks=1),
    "transformer": DenoiserConfig(arch="transformer", n_features=3, embed_dim=8, heads=2, blocks=1),
    "unet": DenoiserConfig(arch="unet", n_features=8, unet_channels=(4, 8),
                           groupnorm_groups=2, heads=2),
}


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_roundtrip_bit_exact(tmp_path, arch):
    den = build_denoiser(CONFIGS[arch], seed=31)
    scaler = MinMaxScaler().fit(Rng(0).normal((10, CONFIGS[arch].n_features)))
    den.train_t, den.scaler = 1000, scaler
    path = tmp_path / f"{arch}.ckpt"
    save_checkpoint(path, den)
    loaded, meta = load_checkpoint(path)
    assert loaded.train_t == 1000
    assert loaded.feature_names is None
    assert loaded.config == den.config
    for (na, pa), (nb, pb) in zip(den.named_parameters(), loaded.named_parameters()):
        assert na == nb
        np.testing.assert_array_equal(pa.data, pb.data)
    np.testing.assert_array_equal(loaded.scaler.data_min_, scaler.data_min_)
    x = Rng(1).normal((4, CONFIGS[arch].n_features))
    t = np.full(4, 7)
    np.testing.assert_array_equal(den(x, t).data, loaded(x, t).data)


def test_checkpoint_bytes_deterministic(tmp_path):
    den1 = build_denoiser(CONFIGS["mlp"], seed=5)
    den2 = build_denoiser(CONFIGS["mlp"], seed=5)
    den1.train_t = den2.train_t = 100
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, den1)
    save_checkpoint(p2, den2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "x.ckpt"
    path.write_bytes(b"definitely not a checkpoint")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_carries_meta_and_names(tmp_path):
    den = build_denoiser(CONFIGS["mlp"], seed=1)
    den.train_t, den.feature_names = 50, ("f1", "f2", "f3")
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, den, meta={"note": "fixture"})
    loaded, meta = load_checkpoint(path)
    assert loaded.feature_names == ("f1", "f2", "f3")
    assert meta == {"note": "fixture"}


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_load_draws_no_initial_values(tmp_path, monkeypatch, arch):
    dens = [build_denoiser(replace(CONFIGS[arch], dtype=dtype), seed=8)
            for dtype in ("float64", "float32")]
    for den in dens:
        den.train_t = 100
        save_checkpoint(tmp_path / f"{arch}-{den.config.dtype}.ckpt", den)

    def no_draws(self, shape=()):
        raise AssertionError("load_checkpoint drew a random initial value")

    monkeypatch.setattr(Rng, "uniform", no_draws)
    for den in dens:
        loaded = load_checkpoint(tmp_path / f"{arch}-{den.config.dtype}.ckpt")[0]
        for (na, a), (nb, b) in zip(den.named_arrays(), loaded.named_arrays()):
            assert na == nb and a.dtype == b.dtype == den.config.dtype
            np.testing.assert_array_equal(a, b)


# sha256 (first 16 hex digits) over the parameter names and bytes of
# build_denoiser(CONFIGS[arch] at each dtype, seed=31): the initial weights
# every training run starts from, so a change here changes every trained
# checkpoint
INITIAL_WEIGHTS = {
    ("mlp", "float64"): "1569b3ba2eb9194c",
    ("resnet", "float64"): "99baac22afb4a5a2",
    ("transformer", "float64"): "e8ab5563ae043d28",
    ("unet", "float64"): "57c5e09b18a32d3e",
    ("mlp", "float32"): "7a54fdd41e4a5763",
    ("resnet", "float32"): "d28857c69c3452fb",
    ("transformer", "float32"): "9f14a01d804dffe1",
    ("unet", "float32"): "1d5c45b10bbba170",
}


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_seeded_initial_weights_are_pinned(arch):
    for dtype in ("float64", "float32"):
        den = build_denoiser(replace(CONFIGS[arch], dtype=dtype), seed=31)
        h = hashlib.sha256()
        for name, p in den.named_parameters():
            h.update(name.encode())
            h.update(p.data.tobytes())
        assert h.hexdigest()[:16] == INITIAL_WEIGHTS[arch, dtype]
        # buffers too: a ResNet's batch-norm statistics
        assert all(a.dtype == den.config.dtype for _, a in den.named_arrays())


# sha256 (first 16 hex digits) of save_checkpoint(build_denoiser(CONFIGS[arch],
# seed=31) with train_t 100): the file format; the ResNet's holds its batch-norm
# running statistics after its parameters
CHECKPOINT_BYTES = {
    "mlp": "54fe57916cf10604",
    "resnet": "947919637045387b",
    "transformer": "c647c83fac2f68c9",
    "unet": "5e452df63e03dc82",
}


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_checkpoint_bytes_are_pinned(tmp_path, arch):
    den = build_denoiser(CONFIGS[arch], seed=31)
    den.train_t = 100
    path = tmp_path / f"{arch}.ckpt"
    save_checkpoint(path, den)
    assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == CHECKPOINT_BYTES[arch]


def _trained_resnet():
    from tabdiffuse.training import TrainingConfig, train

    den = build_denoiser(DenoiserConfig(arch="resnet", n_features=3, hidden=8, blocks=1), seed=2)
    train(den, Rng(4).uniform((200, 3)), TrainingConfig(epochs=1, batch_size=64, t_training=50))
    return den


def test_resnet_checkpoint_keeps_batch_norm_statistics(tmp_path):
    den = _trained_resnet()
    assert np.any(den.out_norm.running_mean != 0.0)
    path = tmp_path / "resnet.ckpt"
    save_checkpoint(path, den)  # train_t 50, set by train
    loaded = load_checkpoint(path)[0]
    for (na, a), (nb, b) in zip(den.named_arrays(), loaded.named_arrays()):
        assert na == nb
        np.testing.assert_array_equal(a, b)
    x, t = Rng(5).uniform((16, 3)), np.arange(1, 17)
    np.testing.assert_array_equal(den(x, t).data, loaded(x, t).data)


def _split(raw: bytes) -> tuple[dict, bytes]:
    """A checkpoint's JSON header and its body."""
    head_len = int.from_bytes(raw[8:16], "big")
    return json.loads(raw[16:16 + head_len]), raw[16 + head_len:]


def _join(header: dict, body: bytes) -> bytes:
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return MAGIC + len(head).to_bytes(8, "big") + head + body


def _rewrite_header(path, edit):
    """Apply ``edit`` to a checkpoint's JSON header, leaving its arrays as they are."""
    header, body = _split(path.read_bytes())
    edit(header)
    path.write_bytes(_join(header, body))


def test_resnet_checkpoint_without_statistics_rejected(tmp_path):
    path = tmp_path / "resnet.ckpt"
    save_checkpoint(path, _trained_resnet())

    def drop_statistics(header):  # as a checkpoint that stored parameters only has it
        header["params"] = [e for e in header["params"] if "running" not in e["name"]]

    _rewrite_header(path, drop_statistics)
    with pytest.raises(CheckpointError, match="running_mean"):
        load_checkpoint(path)


def test_header_dtype_that_disagrees_with_the_config_rejected(tmp_path):
    path = tmp_path / "mlp.ckpt"
    save_checkpoint(path, build_denoiser(CONFIGS["mlp"], seed=31))
    _rewrite_header(path, lambda header: header["config"].update(dtype="float32"))
    with pytest.raises(CheckpointError, match="stored as float64, config says float32"):
        load_checkpoint(path)


# sha256 (first 16 hex digits) of the imputation below with its steps fed on
# the 1000-step training axis, captured when impute took that axis by hand
IMPUTED_ON_THE_TRAINING_AXIS = "0704066e753467f6"


def test_trained_network_carries_its_time_axis_through_a_checkpoint(tmp_path):
    from tabdiffuse.sampling import MaskedTable, SamplerOptions, impute
    from tabdiffuse.training import TrainingConfig, train

    x = Rng(40).uniform((200, 2))
    den = build_denoiser(DenoiserConfig(arch="mlp", n_features=2, hidden=8, blocks=1), seed=3)
    assert den.train_t is None and den.scaler is None and den.feature_names is None
    train(den, x, TrainingConfig(epochs=1, batch_size=64, t_training=1000, seed=3))
    assert den.train_t == 1000
    table = MaskedTable(x[:20], Rng(41).uniform((20, 2)) > 0.3)
    opts = SamplerOptions(t_sampling=100, tau=10)
    out = impute(den, [(table, 5)], opts)[0]
    assert hashlib.sha256(out.tobytes()).hexdigest()[:16] == IMPUTED_ON_THE_TRAINING_AXIS

    den.scaler, den.feature_names = MinMaxScaler().fit(x), ("a", "b")
    save_checkpoint(tmp_path / "mlp.ckpt", den)
    loaded = load_checkpoint(tmp_path / "mlp.ckpt")[0]
    assert loaded.train_t == 1000 and loaded.feature_names == ("a", "b")
    np.testing.assert_array_equal(loaded.scaler.data_min_, den.scaler.data_min_)
    np.testing.assert_array_equal(loaded.scaler.data_max_, den.scaler.data_max_)
    assert impute(loaded, [(table, 5)], opts)[0].tobytes() == out.tobytes()


def _impute_from(tmp_path, path):
    """Run ``impute`` on a 3-feature table with the checkpoint at ``path``."""
    from tabdiffuse.cli import main
    from tabdiffuse.data import write_csv

    write_csv(tmp_path / "data.csv", Rng(6).uniform((20, 3)), ["a", "b", "c"])
    return main(["impute", "--checkpoint", str(path), "--data", str(tmp_path / "data.csv"),
                 "--mcar", "0.3", "--T-sampling", "10", "--n-inferences", "1",
                 "--out", str(tmp_path / "out" / "imputed.csv")])


@pytest.mark.parametrize("key", ["config", "dtype", "params", "scaler", "train_t"])
def test_header_missing_a_key_exits_2_naming_the_file_and_key(tmp_path, capsys, key):
    path = tmp_path / "mlp.ckpt"
    save_checkpoint(path, build_denoiser(CONFIGS["mlp"], seed=31))
    _rewrite_header(path, lambda header: header.pop(key))
    assert _impute_from(tmp_path, path) == 2
    assert f"{path}: header lacks {key}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_short_body_exits_2_naming_the_file_and_array(tmp_path, capsys):
    path = tmp_path / "mlp.ckpt"
    save_checkpoint(path, build_denoiser(CONFIGS["mlp"], seed=31))
    path.write_bytes(path.read_bytes()[:-40])
    assert _impute_from(tmp_path, path) == 2
    assert f"{path}: the file ends inside array 'head.weight'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _set_header_length(path, head_len):
    raw = path.read_bytes()
    path.write_bytes(raw[:8] + head_len.to_bytes(8, "big") + raw[16:])


# each leaves a checkpoint that used to load (or crash with a TypeError) and
# must now exit 2 naming the file and what is wrong with it
CORRUPTIONS = {
    "trailing_bytes": (lambda p: p.write_bytes(p.read_bytes() + bytes(16)),
                       "16 bytes follow the last array"),
    "moved_offset": (lambda p: _rewrite_header(p, lambda h: h["params"][1].update(offset=0)),
                     "array 'tokenizer.lin1.bias' starts at byte 0"),
    "short_scaler": (lambda p: _rewrite_header(p, lambda h: h.update(
        scaler={"data_min": [0.0], "data_max": [1.0]})), "scaler must be null or hold"),
    "train_t_string": (lambda p: _rewrite_header(p, lambda h: h.update(train_t="x")),
                       "train_t must be an int >= 1 or null, got 'x'"),
    "blocks_null": (lambda p: _rewrite_header(p, lambda h: h["config"].update(blocks=None)),
                    "blocks must be an int, got None"),
    "header_past_the_end": (lambda p: _set_header_length(p, p.stat().st_size),
                            "the header length runs past the end of the file"),
    "params_int": (lambda p: _rewrite_header(p, lambda h: h.update(params=12345)),
                   "params must be a list, got 12345"),
    "shape_string": (lambda p: _rewrite_header(p, lambda h: h["params"][0].update(shape="ab")),
                     "params[0] must hold a str name, a shape of ints >= 0 and an int offset"),
    "feature_names_int": (lambda p: _rewrite_header(p, lambda h: h.update(feature_names=5)),
                          "feature_names must be null or 3 strings, got 5"),
    "feature_names_short": (lambda p: _rewrite_header(p, lambda h: h.update(feature_names=["a"])),
                            "feature_names must be null or 3 strings, got ['a']"),
    "meta_list": (lambda p: _rewrite_header(p, lambda h: h.update(meta=[1])),
                  "meta must be an object, got [1]"),
    "time_embedding_string": (lambda p: _rewrite_header(
        p, lambda h: h["config"].update(time_embedding="x")),
        "bad config: time_embedding must be a bool, got 'x'"),
    "ffn_factor_string": (lambda p: _rewrite_header(p, lambda h: h["config"].update(ffn_factor="x")),
                          "bad config: ffn_factor must be a finite number > 0, got 'x'"),
    "ffn_factor_zero": (lambda p: _rewrite_header(p, lambda h: h["config"].update(ffn_factor=0)),
                        "bad config: ffn_factor must be a finite number > 0, got 0"),
    "dropout_bool": (lambda p: _rewrite_header(p, lambda h: h["config"].update(ffn_dropout=True)),
                     "bad config: ffn_dropout must be a number in [0, 1), got True"),
    "duplicate_array": (lambda p: p.write_bytes(_with_duplicate(p.read_bytes(), -1)),
                        "params lists array 'head.bias' twice"),
    "unknown_header_key": (lambda p: _rewrite_header(p, lambda h: h.update(extra=1)),
                           "header has unknown keys extra"),
    "unknown_params_key": (lambda p: _rewrite_header(p, lambda h: h["params"][0].update(dtype="x")),
                           "params[0] has unknown keys dtype"),
    "config_lacks_a_key": (lambda p: _rewrite_header(p, lambda h: h["config"].pop("ffn_dropout")),
                           "config lacks ffn_dropout"),
    "format_version_true": (lambda p: _rewrite_header(p, lambda h: h.update(format_version=True)),
                            "unsupported format version"),
    "scaler_min_above_max": (lambda p: _rewrite_header(p, lambda h: h.update(
        scaler={"data_min": [0.0, 2.0, 0.0], "data_max": [1.0, 1.0, 1.0]})),
        "each min at most its max"),
}


def _with_duplicate(raw: bytes, i: int) -> bytes:
    """``raw`` (a float64 checkpoint) with params[i] listed again at the end and its
    bytes appended to the body: offsets stay back to back and cover the body."""
    header, body = _split(raw)
    entry = header["params"][i]
    nbytes = 8 * math.prod(entry["shape"])
    header["params"].append(dict(entry, offset=len(body)))
    return _join(header, body + body[entry["offset"]:entry["offset"] + nbytes])


def test_unfitted_scaler_is_not_saved(tmp_path):
    # the reader takes a scaler only as one finite value per feature and array
    den = build_denoiser(CONFIGS["mlp"], seed=31)
    den.scaler = MinMaxScaler()
    with pytest.raises(CheckpointError, match="scaler is not fitted"):
        save_checkpoint(tmp_path / "mlp.ckpt", den)
    assert not (tmp_path / "mlp.ckpt").exists()


@pytest.mark.parametrize("case", list(CORRUPTIONS))
def test_malformed_checkpoint_exits_2_naming_the_file(tmp_path, capsys, case):
    corrupt, message = CORRUPTIONS[case]
    path = tmp_path / "mlp.ckpt"
    save_checkpoint(path, build_denoiser(CONFIGS["mlp"], seed=31))
    corrupt(path)
    assert _impute_from(tmp_path, path) == 2
    err = capsys.readouterr().err
    assert f"{path}: " in err and message in err
    assert not (tmp_path / "out").exists()


# -- mutation test of the reader ----------------------------------------------

# header slots whose absence or null is itself valid
OPTIONAL = {("meta",)}
NULLABLE = {("train_t",), ("scaler",), ("feature_names",), ("config", "hidden")}
WRONG_TYPES = ["x", 7, True, None, [1], {"k": 1}]


def _kind(value) -> str:
    """The JSON type of ``value``."""
    return {int: "number", float: "number", type(None): "null"}.get(type(value),
                                                                    type(value).__name__)


def _slots(header: dict) -> list[tuple]:
    """Paths of every key a mutant can drop or retype: top level, config,
    each params entry and the scaler."""
    paths = [(key,) for key in header]
    paths += [("config", key) for key in header["config"]]
    paths += [("params", i, key) for i, entry in enumerate(header["params"]) for key in entry]
    return paths + [("scaler", key) for key in header["scaler"]]


def _holder(header: dict, path: tuple):
    for key in path[:-1]:
        header = header[key]
    return header


@pytest.fixture(scope="module")
def mlp4_bytes(tmp_path_factory):
    """A valid 4-feature MLP checkpoint with every optional part filled."""
    den = build_denoiser(DenoiserConfig(arch="mlp", n_features=4, hidden=8, blocks=1), seed=31)
    den.train_t, den.feature_names = 100, ("a", "b", "c", "d")
    den.scaler = MinMaxScaler().fit(Rng(0).uniform((10, 4)))
    path = tmp_path_factory.mktemp("mlp4") / "mlp.ckpt"
    save_checkpoint(path, den, meta={"note": "fixture"})
    return path.read_bytes()


def _mutant(kind: str, data, raw: bytes) -> tuple[bytes, str]:
    """One mutant of ``raw`` and what loading it must do: "error" (a
    CheckpointError naming the file), "load", or "valid" (an error, or a load
    whose network saves back to the same header and body)."""
    header, body = _split(raw)
    head_end = len(raw) - len(body)
    if kind == "drop_key":
        path = data.draw(st.sampled_from(_slots(header)))
        del _holder(header, path)[path[-1]]
        return _join(header, body), "load" if path in OPTIONAL else "error"
    if kind == "wrong_type":
        path = data.draw(st.sampled_from(_slots(header)))
        holder = _holder(header, path)
        wrong = [v for v in WRONG_TYPES if _kind(v) != _kind(holder[path[-1]])
                 and not (v is None and path in NULLABLE)]
        holder[path[-1]] = data.draw(st.sampled_from(wrong))
        return _join(header, body), "error"
    if kind == "add_key":
        holder = data.draw(st.sampled_from([header, header["config"], *header["params"]]))
        holder["extra"] = data.draw(st.sampled_from([1, "x", None]))
        return _join(header, body), "error"
    if kind == "truncate":
        return raw[:data.draw(st.integers(0, len(raw) - 1))], "error"
    if kind == "append":
        return raw + data.draw(st.binary(min_size=1, max_size=64)), "error"
    if kind == "move_offset":
        entry = data.draw(st.sampled_from(header["params"]))
        entry["offset"] += data.draw(st.integers(-64, 64).filter(bool))
        return _join(header, body), "error"
    if kind == "duplicate":
        return _with_duplicate(raw, data.draw(st.integers(0, len(header["params"]) - 1))), "error"
    assert kind == "flip_byte"
    at = data.draw(st.integers(0, head_end - 1))
    flipped = bytearray(raw)
    flipped[at] ^= data.draw(st.integers(1, 255))
    return bytes(flipped), "valid"


@pytest.mark.parametrize("kind", ["drop_key", "wrong_type", "add_key", "truncate", "append",
                                  "move_offset", "duplicate", "flip_byte"])
@settings(derandomize=True, max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_reader_rejects_every_structural_mutant(tmp_path, mlp4_bytes, kind, data):
    mutant, expect = _mutant(kind, data, mlp4_bytes)
    path = tmp_path / "mutant.ckpt"
    path.write_bytes(mutant)
    try:
        loaded, meta = load_checkpoint(path)
    except CheckpointError as err:
        assert expect != "load" and str(err).startswith(f"{path}: ")
        return
    assert expect != "error", f"a {kind} mutant loaded"
    if expect == "valid":  # every key was read as written: nothing ignored or coerced
        save_checkpoint(tmp_path / "again.ckpt", loaded, meta)
        again_header, again_body = _split((tmp_path / "again.ckpt").read_bytes())
        assert (again_header, again_body) == _split(mutant)


# -- one copy of the weights ----------------------------------------------------

TRANSFORMER = DenoiserConfig(arch="transformer", n_features=10)  # the default 10-feature network


def _array_bytes(den) -> int:
    return sum(array.nbytes for _, array in den.named_arrays())


def test_load_holds_one_copy_of_the_weights(tmp_path):
    path = tmp_path / "transformer.ckpt"
    den = build_denoiser(TRANSFORMER, seed=31)
    save_checkpoint(path, den)
    tracemalloc.start()
    try:
        loaded = load_checkpoint(path)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * _array_bytes(loaded)
    for (_, a), (_, b) in zip(den.named_arrays(), loaded.named_arrays()):
        np.testing.assert_array_equal(a, b)


def test_save_holds_one_copy_of_the_weights(tmp_path):
    tracemalloc.start()
    try:
        den = build_denoiser(TRANSFORMER, seed=31)
        tracemalloc.reset_peak()  # the peak from here on: the network plus what saving adds
        save_checkpoint(tmp_path / "transformer.ckpt", den)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * _array_bytes(den)


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_float32_checkpoint_round_trips_bit_exactly(tmp_path, arch):
    den = build_denoiser(replace(CONFIGS[arch], dtype="float32"), seed=31)
    save_checkpoint(tmp_path / "a.ckpt", den)
    loaded = load_checkpoint(tmp_path / "a.ckpt")[0]
    for (na, a), (nb, b) in zip(den.named_arrays(), loaded.named_arrays()):
        assert na == nb and b.dtype == np.float32 and a.tobytes() == b.tobytes()
    save_checkpoint(tmp_path / "b.ckpt", loaded)
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_a_file_that_shrinks_while_read_ends_inside_an_array(tmp_path, monkeypatch):
    path = tmp_path / "mlp.ckpt"
    save_checkpoint(path, build_denoiser(CONFIGS["mlp"], seed=31))
    real_size = path.stat().st_size
    # the size the reader saw when it opened the file; 40 bytes are gone by the last read
    monkeypatch.setattr(checkpoint.os, "fstat",
                        lambda fd: type("Stat", (), {"st_size": real_size})())
    path.write_bytes(path.read_bytes()[:-40])
    with pytest.raises(CheckpointError, match="the file ends inside array 'head.weight'"):
        load_checkpoint(path)
