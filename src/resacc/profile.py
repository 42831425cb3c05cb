"""Statistical models of the network and the accelerator.

These types carry the handful of statistics everything else consumes: per-layer
MAC counts, per-type variable counts, flip-flop counts, raw FIT rates and reuse
factors. They are plain value types; all operations are pure.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import FrozenInstanceError, dataclass, field, replace
from itertools import repeat
from typing import Iterable, Iterator, NamedTuple

from .formats import NumericFormat

# Layer id of the pseudo-layer owning control variables; control FFs hold
# state for the whole execution rather than any one layer.
CONTROL_LAYER = -1


class FFType(enum.Enum):
    """The five flip-flop categories fault sites are partitioned into."""

    INPUT_ACTIVATION = "input_activation"
    WEIGHT = "weight"
    OUTPUT_ACTIVATION = "output_activation"
    CONTROL_GLOBAL = "control_global"
    CONTROL_LOCAL = "control_local"

    # Members are singletons, so identity hashing is exact and runs in C;
    # Enum.__hash__ hashes the name in Python on every dict lookup.
    __hash__ = object.__hash__


DATAPATH_TYPES = (FFType.INPUT_ACTIVATION, FFType.WEIGHT, FFType.OUTPUT_ACTIVATION)
CONTROL_TYPES = (FFType.CONTROL_GLOBAL, FFType.CONTROL_LOCAL)


class SoftwareFaultSite(NamedTuple):
    """A single injectable fault: one bit of one variable of one layer.

    Control sites use ``layer_id == CONTROL_LAYER``. A tuple, so building,
    hashing and comparing sites run in C; fields cannot be reassigned.
    """

    layer_id: int
    var_type: FFType
    var_index: int
    bit_pos: int

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def fault_sites(
    layer_ids: Iterable[int],
    var_types: Iterable[FFType],
    var_indices: Iterable[int],
    bit_positions: Iterable[int],
) -> Iterator[SoftwareFaultSite]:
    """Lazily zip four columns into sites. ``tuple.__new__`` is called from
    ``map``, so no Python frame runs per site (``SoftwareFaultSite(...)`` and
    ``_make`` each run one)."""
    return map(
        tuple.__new__, repeat(SoftwareFaultSite),
        zip(layer_ids, var_types, var_indices, bit_positions),
    )


@dataclass
class LayerStats:
    layer_id: int
    mac_count: int
    var_count: dict[FFType, int]
    utilization: float = 1.0
    # Index of the backing layer in the MicroNetwork this profile was derived
    # from; -1 when the profile was loaded from a config file instead.
    net_index: int = -1


@dataclass
class AcceleratorConfig:
    ff_count: dict[FFType, int]
    raw_fit: dict[FFType, float]
    numeric_format: NumericFormat
    reuse: dict[FFType, int]
    bit_width: int = 0
    control_global_fraction: float = 2.0 / 3.0

    def __post_init__(self):
        if self.bit_width == 0:
            self.bit_width = self.numeric_format.width

    def with_raw_fit(self, updates: dict[FFType, float]) -> "AcceleratorConfig":
        fits = dict(self.raw_fit)
        fits.update(updates)
        return replace(self, raw_fit=fits)

    @property
    def total_ffs(self) -> int:
        return sum(self.ff_count.values())


@dataclass
class NetworkProfile:
    layers: list[LayerStats]
    control_var_count: dict[FFType, int] = field(default_factory=dict)

    @property
    def total_macs(self) -> int:
        return sum(l.mac_count for l in self.layers)

    def layer(self, layer_id: int) -> LayerStats:
        for l in self.layers:
            if l.layer_id == layer_id:
                return l
        raise KeyError(f"no layer with id {layer_id}")

    def var_count(self, layer_id: int, var_type: FFType) -> int:
        if layer_id == CONTROL_LAYER:
            return self.control_var_count.get(var_type, 0)
        return self.layer(layer_id).var_count.get(var_type, 0)


def derive_profile(
    network,
    config: AcceleratorConfig,
    utilization: dict[int, float] | None = None,
) -> NetworkProfile:
    """Derive the statistical profile of a concrete micro network.

    CONV MACs are C_out*H_out*W_out*C_in*K_h*K_w, FC MACs are fan_in*fan_out.
    Pooling and activation layers carry their element-wise op count as
    mac_count so layer probabilities never divide by zero; they own no weight
    variables. Flatten and softmax layers hold no distinct FF-resident state
    and produce no profile layer. One control variable exists per control FF.
    ``utilization`` maps profile layer ids to their utilization (1.0 for a
    layer it omits); an id the profile lacks is a ValueError.
    """
    from . import microdnn  # local import to avoid a cycle

    layers: list[LayerStats] = []
    layer_id = 0
    for net_index, layer in enumerate(network.layers):
        in_shape = network.input_shape_of(net_index)
        out_shape = network.output_shape_of(net_index)
        in_elems = _elems(in_shape)
        out_elems = _elems(out_shape)
        if isinstance(layer, (microdnn.Conv2D, microdnn.FC)):
            # each output element sums one weight row: (in_c, kh, kw) or (fan_in,)
            mac = out_elems * layer.weight[0].size
            var_count = {
                FFType.INPUT_ACTIVATION: in_elems,
                FFType.WEIGHT: layer.weight.size,
                FFType.OUTPUT_ACTIVATION: out_elems,
            }
        elif isinstance(layer, microdnn.ReLU):
            mac = out_elems
            var_count = {
                FFType.INPUT_ACTIVATION: in_elems,
                FFType.OUTPUT_ACTIVATION: out_elems,
            }
        elif isinstance(layer, microdnn.MaxPool2D):
            mac = out_elems * layer.kernel * layer.kernel
            var_count = {
                FFType.INPUT_ACTIVATION: in_elems,
                FFType.OUTPUT_ACTIVATION: out_elems,
            }
        elif isinstance(layer, (microdnn.Flatten, microdnn.Softmax)):
            continue
        else:
            raise ValueError(f"unsupported layer kind: {type(layer).__name__}")
        uf = 1.0 if utilization is None else utilization.get(layer_id, 1.0)
        layers.append(
            LayerStats(
                layer_id=layer_id,
                mac_count=mac,
                var_count=var_count,
                utilization=uf,
                net_index=net_index,
            )
        )
        layer_id += 1

    unknown = sorted(set(utilization or ()) - {l.layer_id for l in layers})
    if unknown:
        raise ValueError(f"utilization names layers the profile lacks: {unknown}")
    control = {t: config.ff_count.get(t, 0) for t in CONTROL_TYPES}
    return NetworkProfile(layers=layers, control_var_count=control)


def validate_profile(
    profile: NetworkProfile, config: AcceleratorConfig
) -> list[str]:
    """Return all invariant violations; an empty list means valid."""
    problems: list[str] = []
    for l in profile.layers:
        if l.mac_count < 1:
            problems.append(f"layer {l.layer_id}: mac_count must be >= 1")
        if not 0.0 <= l.utilization <= 1.0:
            problems.append(
                f"layer {l.layer_id}: utilization {l.utilization} outside [0, 1]"
            )
        for t, n in l.var_count.items():
            if n < 0:
                problems.append(f"layer {l.layer_id}: var_count[{t.value}] < 0")
        if l.var_count.get(FFType.WEIGHT, 0) > 0:
            if l.var_count.get(FFType.INPUT_ACTIVATION, 0) < 1:
                problems.append(
                    f"layer {l.layer_id}: weighted layer with no input activations"
                )
    if not profile.layers:
        problems.append("profile has no layers")
    if config.total_ffs <= 0:
        problems.append("config: total FF count must be > 0")
    for t, n in config.ff_count.items():
        if n < 0:
            problems.append(f"config: ff_count[{t.value}] < 0")
    fits = [config.raw_fit.get(t, 0.0) for t in FFType]
    for t, f in zip(FFType, fits):
        if not (math.isfinite(f) and f >= 0):
            problems.append(f"config: raw_fit[{t.value}] = {f!r} must be finite and >= 0")
    if not any(f > 0 for f in fits):
        problems.append("config: at least one raw_fit rate must be > 0")
    for t, r in config.reuse.items():
        if r < 1:
            problems.append(f"config: reuse[{t.value}] = {r} must be >= 1")
    frac = config.control_global_fraction
    if not 0.0 <= frac <= 1.0:
        problems.append(f"config: control_global_fraction {frac!r} outside [0, 1]")
    if config.bit_width != config.numeric_format.width:
        problems.append(
            f"config: bit_width {config.bit_width} does not match "
            f"{config.numeric_format.value}"
        )
    return problems


# ---------------------------------------------------------------------------
# Text serialization
#
# Flat "key = value" lines. Keys:
#   ff_count.<type>, raw_fit.<type>, bit_width, numeric_format, reuse.<type>,
#   control_global_fraction, layer.<i>.mac_count, layer.<i>.var_count.<type>,
#   layer.<i>.utilization
# <type> is one of the five FFType values, or "control" (for ff_count and
# raw_fit) meaning a combined control count split by control_global_fraction.
# ---------------------------------------------------------------------------

def _elems(shape) -> int:
    return int(math.prod(shape))


def parse_kv_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in out:
            raise ValueError(f"line {lineno}: duplicate key {key}")
        out[key] = value.strip()
    return out


def config_to_text(config: AcceleratorConfig) -> str:
    lines = []
    for t in FFType:
        lines.append(f"ff_count.{t.value} = {config.ff_count.get(t, 0)}")
    for t in FFType:
        lines.append(f"raw_fit.{t.value} = {config.raw_fit.get(t, 0.0)!r}")
    lines.append(f"bit_width = {config.bit_width}")
    lines.append(f"numeric_format = {config.numeric_format.value}")
    for t in FFType:
        lines.append(f"reuse.{t.value} = {config.reuse.get(t, 1)}")
    lines.append(f"control_global_fraction = {config.control_global_fraction!r}")
    return "\n".join(lines) + "\n"


_CONFIG_KEYS = frozenset(
    {"bit_width", "numeric_format", "control_global_fraction",
     "ff_count.control", "raw_fit.control"}
    | {f"{p}.{t.value}" for p in ("ff_count", "raw_fit", "reuse") for t in FFType}
)


def config_from_text(text: str) -> AcceleratorConfig:
    kv = parse_kv_text(text)
    for key in kv:
        if key not in _CONFIG_KEYS:
            raise ValueError(f"unrecognized config key: {key}")
    fmt = NumericFormat(kv.get("numeric_format", "FP32"))
    frac = float(kv.get("control_global_fraction", 2.0 / 3.0))

    def typed_map(prefix: str, cast):
        out = {}
        combined = None
        for key, value in kv.items():
            if not key.startswith(prefix + "."):
                continue
            name = key[len(prefix) + 1 :]
            if name == "control":
                combined = cast(value)
            else:
                out[FFType(name)] = cast(value)
        return out, combined

    ff, ff_control = typed_map("ff_count", int)
    if ff_control is not None:
        n_global = round(ff_control * frac)
        ff[FFType.CONTROL_GLOBAL] = n_global
        ff[FFType.CONTROL_LOCAL] = ff_control - n_global
    fit, fit_control = typed_map("raw_fit", float)
    if fit_control is not None:
        fit.setdefault(FFType.CONTROL_GLOBAL, fit_control)
        fit.setdefault(FFType.CONTROL_LOCAL, fit_control)
    reuse, _ = typed_map("reuse", int)
    for t in FFType:
        ff.setdefault(t, 0)
        fit.setdefault(t, 0.0)
        reuse.setdefault(t, 1)
    config = AcceleratorConfig(
        ff_count=ff,
        raw_fit=fit,
        numeric_format=fmt,
        reuse=reuse,
        bit_width=int(kv.get("bit_width", fmt.width)),
        control_global_fraction=frac,
    )
    return config


def profile_to_text(profile: NetworkProfile) -> str:
    lines = []
    for t in CONTROL_TYPES:
        lines.append(
            f"control_var_count.{t.value} = {profile.control_var_count.get(t, 0)}"
        )
    for l in profile.layers:
        p = f"layer.{l.layer_id}"
        lines.append(f"{p}.mac_count = {l.mac_count}")
        for t, n in sorted(l.var_count.items(), key=lambda kv: kv[0].value):
            lines.append(f"{p}.var_count.{t.value} = {n}")
        lines.append(f"{p}.utilization = {l.utilization!r}")
        lines.append(f"{p}.net_index = {l.net_index}")
    return "\n".join(lines) + "\n"


_LAYER_KEY = re.compile(r"^layer\.(\d+)\.(.+)$")


def profile_from_text(text: str) -> NetworkProfile:
    kv = parse_kv_text(text)
    control: dict[FFType, int] = {}
    per_layer: dict[int, dict[str, str]] = {}
    for key, value in kv.items():
        if key.startswith("control_var_count."):
            control[FFType(key.split(".", 1)[1])] = int(value)
            continue
        m = _LAYER_KEY.match(key)
        if m is None:
            raise ValueError(f"unrecognized profile key: {key}")
        per_layer.setdefault(int(m.group(1)), {})[m.group(2)] = value
    layers = []
    for layer_id in sorted(per_layer):
        fields = per_layer[layer_id]
        var_count = {}
        for k, v in fields.items():
            if k.startswith("var_count."):
                var_count[FFType(k.split(".", 1)[1])] = int(v)
        layers.append(
            LayerStats(
                layer_id=layer_id,
                mac_count=int(fields["mac_count"]),
                var_count=var_count,
                utilization=float(fields.get("utilization", 1.0)),
                net_index=int(fields.get("net_index", -1)),
            )
        )
    return NetworkProfile(layers=layers, control_var_count=control)
