"""Run configuration: defaults, INI-style config files, and environment
override.  Precedence is CLI flags > config file > defaults; the config file
path itself comes from --config or the KDEVAL_CONFIG environment variable.
"""

import configparser
import dataclasses
import os

from .density import DEFAULT_FOLDS, BandwidthSearchSpec, _check_count, _check_flag
from .kdi import KdiParams
from .partitions import GENERATORS

ENV_CONFIG = "KDEVAL_CONFIG"

DEFAULT_INDICES = ("ch", "sc", "db", "new")


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Everything a benchmark run needs; the seed is mandatory."""

    seed: int
    k_min: int = 2
    k_max: int = 30
    indices: tuple = DEFAULT_INDICES
    generators: tuple = GENERATORS
    emit_svg: bool = False
    include_variants: bool = False
    boundary_mix_weight: float = 0.0
    kdi_params: KdiParams = None
    bandwidth_grid: tuple = ()  # empty: per-cluster scale-relative grid
    folds: int = DEFAULT_FOLDS

    def __post_init__(self):
        for name, least in (("seed", 0), ("k_min", 1), ("k_max", self.k_min)):
            _check_count(name, getattr(self, name), least)
        for name in ("emit_svg", "include_variants"):
            _check_flag(name, getattr(self, name))
        for name, noun, allowed in (("indices", "index", DEFAULT_INDICES),
                                    ("generators", "generator", GENERATORS)):
            names = getattr(self, name)
            if isinstance(names, str) or not names:
                raise ValueError(f"{name} must name at least one {noun} as a sequence, got {names!r}")
            unknown = sorted({str(v) for v in names if v not in allowed})
            if unknown:
                raise ValueError(f"unknown {name}: {unknown}")
        if not 0.0 <= self.boundary_mix_weight <= 1.0:
            raise ValueError("boundary_mix_weight must be in [0, 1]")
        if self.kdi_params is None:
            object.__setattr__(self, "kdi_params", KdiParams(seed=self.seed))
        self.bw_spec()  # rejects a bad grid or fold count when the config is built

    def bw_spec(self):
        """The run's one bandwidth search: grid (None: auto grid), folds, KDI seed."""
        return BandwidthSearchSpec(self.bandwidth_grid or None, self.folds, self.kdi_params.seed)


def _parse_bool(text):
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


def _parse_list(text):
    return tuple(part.strip() for part in text.split(",") if part.strip())


# Config-file text -> value, by the annotated type of the target field.
_PARSERS = {bool: _parse_bool, int: int, float: float, str: str.strip, tuple: _parse_list}
_RUN_FIELDS = {
    f.name: f.type
    for f in dataclasses.fields(RunConfig)
    if f.name not in ("seed", "kdi_params", "bandwidth_grid", "folds")
}
_KDI_FIELDS = {f.name: f.type for f in dataclasses.fields(KdiParams)}


def load_config_file(path):
    """Parse a config file into a flat {(section, key): string} dict."""
    parser = configparser.ConfigParser()
    with open(path, "r", encoding="utf-8") as fh:
        parser.read_file(fh)
    out = {}
    for section in parser.sections():
        for key, value in parser.items(section):
            out[(section, key)] = value
    return out


def resolve_config_path(cli_path=None):
    """Config file path from the CLI flag, else the environment, else None."""
    if cli_path:
        return cli_path
    return os.environ.get(ENV_CONFIG) or None


def build_run_config(seed, file_overrides=None, **cli_overrides):
    """Assemble a RunConfig from defaults, file overrides, and CLI overrides.

    cli_overrides use RunConfig/KdiParams field names with None meaning
    'not given'.
    """
    values = {}
    kdi_values = {}
    for (section, key), text in (file_overrides or {}).items():
        if section == "run" and key == "seed":
            seed = int(text) if seed is None else seed
        elif section == "run" and key in _RUN_FIELDS:
            values[key] = _PARSERS[_RUN_FIELDS[key]](text)
        elif section == "bandwidth" and key == "grid":
            values["bandwidth_grid"] = tuple(float(v) for v in _parse_list(text))
        elif section == "bandwidth" and key == "folds":
            values["folds"] = int(text)
        elif section == "kdi" and key in _KDI_FIELDS:
            kdi_values[key] = _PARSERS[_KDI_FIELDS[key]](text)
        elif section in ("run", "bandwidth", "kdi"):
            raise ValueError(f"unknown [{section}] option {key!r}")
        else:
            raise ValueError(f"unknown config section {section!r}")
    if seed is None:
        raise ValueError("seed is mandatory (CLI flag or [run] seed)")
    for key, value in cli_overrides.items():
        if value is None:
            continue
        if key in _KDI_FIELDS:
            kdi_values[key] = value
        else:
            values[key] = value
    kdi_values.setdefault("seed", seed)
    return RunConfig(seed=seed, kdi_params=KdiParams(**kdi_values), **values)


def save_params_config(path, params, seed=None):
    """Write KdiParams (and optionally the run seed) as a config file that
    build_run_config can read back."""
    parser = configparser.ConfigParser()
    parser.add_section("kdi")
    for f in dataclasses.fields(KdiParams):
        parser.set("kdi", f.name, str(getattr(params, f.name)))
    if seed is not None:
        parser.add_section("run")
        parser.set("run", "seed", str(seed))
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)


def config_snapshot(config):
    """Ordered (key, value) pairs describing the full configuration, used in
    report headers so runs are reproducible from their outputs."""
    items = []
    for f in dataclasses.fields(RunConfig):
        value = getattr(config, f.name)
        if f.type is tuple:
            value = ",".join(map(str, value)) or ("auto" if f.name == "bandwidth_grid" else "")
        if f.name != "kdi_params":
            items.append((f.name, value))
    for f in dataclasses.fields(KdiParams):
        items.append((f"kdi.{f.name}", getattr(config.kdi_params, f.name)))
    return items
