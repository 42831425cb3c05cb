"""The config writer and CSV reader the tests use: `config_to_text` writes
the text `resacc.profile.config_from_text` parses, and `read_csv` reads a
CSV the CLI wrote, checking its schema line."""

from __future__ import annotations

from pathlib import Path

from resacc.cli import ValidationError
from resacc.profile import AcceleratorConfig, FFType


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


def read_csv(path: str | Path, schema: str) -> list[list[str]]:
    """Read a resacc CSV, enforcing the schema line (mismatch is an error,
    never silent coercion)."""
    lines = Path(path).read_text().splitlines()
    if len(lines) < 2 or not lines[0].startswith("# resacc-csv"):
        raise ValidationError(f"{path}: not a resacc CSV")
    if lines[1] != schema:
        raise ValidationError(f"{path}: schema {lines[1]!r} != expected {schema!r}")
    return [line.split(",") for line in lines[2:] if line]
