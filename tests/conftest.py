"""Shared fixtures.

Everything expensive (residual extraction, bank training, the full RD
experiment) is session-scoped and derives from deterministic synthetic
clips, so the whole suite is reproducible without external video files.
"""

import json

import numpy as np
import pytest

from saabcodec import codec, kernelio, pipeline, video
from saabcodec.analysis import ClipSpec, ExperimentManifest, run_experiment

QPS = (22, 27, 32, 37)

TRAIN = dict(width=176, height=144, frames=36, seed=7)
CLIP_A = dict(width=128, height=96, frames=30, seed=11)
CLIP_B = dict(width=128, height=96, frames=60, seed=12)


@pytest.fixture(scope="session")
def train_planes():
    return video.synthesize_luma_clip(**TRAIN)


@pytest.fixture(scope="session")
def clip_a_planes():
    return video.synthesize_luma_clip(**CLIP_A)


@pytest.fixture(scope="session")
def clip_b_planes():
    return video.synthesize_luma_clip(**CLIP_B)


@pytest.fixture(scope="session")
def residual_records(train_planes):
    """Mode-labelled residuals of the training clip over the 4 working QPs."""
    return pipeline.extract_residuals([train_planes], qps=QPS)


@pytest.fixture(scope="session")
def bank(residual_records):
    return pipeline.train_kernel_bank(residual_records, samples_per_kernel=6000, seed=0)


def make_tiny_records():
    """Small residual corpus: a 160x128x10 clip coded at QPs 27 and 37."""
    planes = video.synthesize_luma_clip(160, 128, 10, seed=21)
    return pipeline.extract_residuals([planes], qps=(27, 37))


def make_tiny_bank(records):
    return pipeline.train_kernel_bank(records, samples_per_kernel=300, seed=1)


@pytest.fixture(scope="session")
def tiny_records():
    return make_tiny_records()


@pytest.fixture(scope="session")
def tiny_bank(tiny_records):
    return make_tiny_bank(tiny_records)


@pytest.fixture(scope="session")
def bank_bytes_with_table():
    """A function (bank, **keys) -> the bank's file bytes with the metadata
    keys set to the values given; a value of None drops the key.  The
    writer itself always stores the fixed mode table."""

    def build(bank, **keys):
        raw = bank.to_bytes()
        version, count, meta_len = kernelio._BANK_HEADER.unpack_from(raw, 4)
        start = 4 + kernelio._BANK_HEADER.size
        meta = json.loads(raw[start : start + meta_len])
        for key, value in keys.items():
            if value is None:
                del meta[key]
            else:
                meta[key] = value
        meta_bytes = json.dumps(meta, sort_keys=True).encode()
        header = kernelio._BANK_HEADER.pack(version, count, len(meta_bytes))
        return kernelio.BANK_MAGIC + header + meta_bytes + raw[start + meta_len :]

    return build


def make_tiny_clip():
    return video.synthesize_luma_clip(64, 48, 3, seed=22)


@pytest.fixture(scope="session")
def tiny_clip():
    return make_tiny_clip()


@pytest.fixture(scope="session")
def clip_files(tmp_path_factory, clip_a_planes, clip_b_planes):
    d = tmp_path_factory.mktemp("clips")
    paths = {}
    for name, planes, spec in (
        ("clipA", clip_a_planes, CLIP_A),
        ("clipB", clip_b_planes, CLIP_B),
    ):
        path = str(d / f"{name}.yuv")
        video.write_yuv(path, planes)
        paths[name] = ClipSpec(
            name=name, path=path, width=spec["width"], height=spec["height"], frames=spec["frames"]
        )
    return paths


@pytest.fixture(scope="session")
def bank_file(tmp_path_factory, bank):
    path = str(tmp_path_factory.mktemp("bank") / "bank.skb")
    bank.save(path)
    return path


@pytest.fixture(scope="session")
def experiment_report(tmp_path_factory, clip_files, bank_file):
    manifest = ExperimentManifest(
        clips=tuple(clip_files.values()),
        qps=QPS,
        strategies=("s1", "s2", "s3"),
        bank_path=bank_file,
        timing_runs=1,
    )
    out = str(tmp_path_factory.mktemp("experiment"))
    report = run_experiment(manifest, out)
    report["output_dir"] = out
    return report


@pytest.fixture(scope="session")
def anchor_points(experiment_report):
    """dct_only RD points per clip, reused as the BD anchor everywhere."""
    return {
        clip: data["strategies"]["dct_only"]["points"]
        for clip, data in experiment_report["clips"].items()
    }
