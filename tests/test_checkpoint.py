import hashlib

import numpy as np
import pytest

from tabdiffuse.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
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
    path = tmp_path / f"{arch}.ckpt"
    save_checkpoint(path, den, train_t=1000, scaler=scaler, feature_names=("a",) * 0 or None)
    loaded, train_t, sc, names, meta = load_checkpoint(path)
    assert train_t == 1000
    assert loaded.config == den.config
    for (na, pa), (nb, pb) in zip(den.named_parameters(), loaded.named_parameters()):
        assert na == nb
        np.testing.assert_array_equal(pa.data, pb.data)
    np.testing.assert_array_equal(sc.data_min_, scaler.data_min_)
    x = Rng(1).normal((4, CONFIGS[arch].n_features))
    t = np.full(4, 7)
    np.testing.assert_array_equal(den(x, t).data, loaded(x, t).data)


def test_checkpoint_bytes_deterministic(tmp_path):
    den1 = build_denoiser(CONFIGS["mlp"], seed=5)
    den2 = build_denoiser(CONFIGS["mlp"], seed=5)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, den1, train_t=100)
    save_checkpoint(p2, den2, train_t=100)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "x.ckpt"
    path.write_bytes(b"definitely not a checkpoint")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_carries_meta_and_names(tmp_path):
    den = build_denoiser(CONFIGS["mlp"], seed=1)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, den, train_t=50, feature_names=("f1", "f2", "f3"),
                    meta={"note": "fixture"})
    _, _, _, names, meta = load_checkpoint(path)
    assert names == ("f1", "f2", "f3")
    assert meta == {"note": "fixture"}


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_load_draws_no_initial_values(tmp_path, monkeypatch, arch):
    den = build_denoiser(CONFIGS[arch], seed=8)
    path = tmp_path / f"{arch}.ckpt"
    save_checkpoint(path, den, train_t=100)

    def no_draws(self, shape=()):
        raise AssertionError("load_checkpoint drew a random initial value")

    monkeypatch.setattr(Rng, "uniform", no_draws)
    loaded = load_checkpoint(path)[0]
    for (na, pa), (nb, pb) in zip(den.named_parameters(), loaded.named_parameters()):
        assert na == nb and pa.data.dtype == pb.data.dtype
        np.testing.assert_array_equal(pa.data, pb.data)


# sha256 (first 16 hex digits) over the parameter names and bytes of
# build_denoiser(CONFIGS[arch], seed=31): the initial weights every training
# run starts from, so a change here changes every trained checkpoint
INITIAL_WEIGHTS = {
    "mlp": "1569b3ba2eb9194c",
    "resnet": "99baac22afb4a5a2",
    "transformer": "e8ab5563ae043d28",
    "unet": "57c5e09b18a32d3e",
}


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_seeded_initial_weights_are_pinned(arch):
    h = hashlib.sha256()
    for name, p in build_denoiser(CONFIGS[arch], seed=31).named_parameters():
        h.update(name.encode())
        h.update(p.data.tobytes())
    assert h.hexdigest()[:16] == INITIAL_WEIGHTS[arch]
