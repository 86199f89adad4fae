import json
from pathlib import Path

from hypothesis import HealthCheck, settings

settings.register_profile(
    "citysim",
    deadline=None,
    max_examples=100,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("citysim")


def _reject_constant(name: str):
    raise ValueError(f"{name} is not JSON")


def load_json_strict(path: str | Path):
    """The JSON file at path, parsed as strict JSON: NaN, Infinity and
    -Infinity are rejected, as any strict parser would."""
    return json.loads(Path(path).read_text(), parse_constant=_reject_constant)
