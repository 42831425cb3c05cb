"""The networks, evalsets and archives the benchmark workloads run on.

Every function here is deterministic in its arguments. Only evalset seeds come
from the benchmark's ``--seed``; the network weights stay fixed, so the
number of fault sites, and with it the work of a run, does not depend on
the seed.
"""

from __future__ import annotations

import hashlib
import io
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from resacc.formats import NumericFormat
from resacc.microdnn import (
    FC,
    Conv2D,
    EvalSet,
    Flatten,
    MaxPool2D,
    MicroNetwork,
    ReLU,
    Softmax,
    accuracy,
)
from resacc.oracle import SiteArchive
from resacc.probtransfer import SiteProbabilityTable, build_table
from resacc.profile import AcceleratorConfig, NetworkProfile, derive_profile
from resacc.toynets import (
    make_config,
    make_convergence_config,
    make_evalset,
    make_pool_toy,
    make_skewed_toy,
)

DATA_DIR = Path(__file__).resolve().parent / "data"
SKEW0_ARCHIVE = DATA_DIR / "skew0_archive.npz"
LENET_SEED = 5


@dataclass
class Subject:
    net: MicroNetwork
    config: AcceleratorConfig
    profile: NetworkProfile
    evalset: EvalSet
    table: SiteProbabilityTable
    sa: float


def _subject(net, config, evalset) -> Subject:
    profile = derive_profile(net, config)
    return Subject(
        net=net,
        config=config,
        profile=profile,
        evalset=evalset,
        table=build_table(profile, config),
        sa=accuracy(net, evalset),
    )


def pool16(evalset_seed: int, n_inputs: int = 40) -> Subject:
    """conv -> ReLU -> maxpool -> FC in FP16: every fault path on one net."""
    net = make_pool_toy(NumericFormat.FP16)
    return _subject(
        net, make_config(NumericFormat.FP16), make_evalset(net, n_inputs, seed=evalset_seed)
    )


def make_lenet(seed: int = LENET_SEED) -> MicroNetwork:
    """LeNet-5 shape in FP32 with N(0, 1/fan_in) weights; about 2.1M sites."""
    rng = np.random.default_rng(seed)

    def w(*shape):
        fan_in = int(np.prod(shape[1:]))
        return rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=shape).astype(np.float32)

    return MicroNetwork(
        layers=[
            Conv2D(w(6, 1, 5, 5)),
            ReLU(),
            MaxPool2D(kernel=2, stride=2),
            Conv2D(w(16, 6, 5, 5)),
            ReLU(),
            MaxPool2D(kernel=2, stride=2),
            Flatten(),
            FC(w(120, 256)),
            ReLU(),
            FC(w(84, 120)),
            ReLU(),
            FC(w(10, 84)),
            Softmax(),
        ],
        input_shape=(1, 28, 28),
        numeric_format=NumericFormat.FP32,
    )


def lenet(evalset_seed: int, n_inputs: int = 20) -> Subject:
    net = make_lenet()
    return _subject(
        net, make_config(NumericFormat.FP32), make_evalset(net, n_inputs, seed=evalset_seed)
    )


def skew0() -> Subject:
    """The tier-1 skew0 context: its A(j) archive is committed under data/."""
    net = make_skewed_toy(0)
    return _subject(net, make_convergence_config(), make_evalset(net, 100, seed=5))


def archive_digest(archive: SiteArchive) -> str:
    """sha256 over SA, semantics and every A(j) in a fixed key order."""
    h = hashlib.sha256()
    h.update(np.float64(archive.sa).tobytes())
    h.update(archive.semantics.value.encode())
    for (lid, t), arr in sorted(archive.entries.items(), key=lambda kv: (kv[0][0], kv[0][1].value)):
        h.update(f"{lid}|{t.value}|{arr.shape}".encode())
        h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return h.hexdigest()


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def save_archive_reproducibly(archive: SiteArchive, path: Path) -> None:
    """``SiteArchive.save`` with zip timestamps fixed, so regenerating the
    same archive gives the same bytes."""
    buf = io.BytesIO()
    archive.save(buf)
    buf.seek(0)
    with zipfile.ZipFile(buf) as zin, zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as zout:
        for info in zin.infolist():
            fixed = zipfile.ZipInfo(info.filename, date_time=(1980, 1, 1, 0, 0, 0))
            fixed.compress_type = zipfile.ZIP_DEFLATED
            zout.writestr(fixed, zin.read(info.filename))
