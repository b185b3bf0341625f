"""Scenario configuration: YAML schema, validating loader, and the dataclasses
the world builder consumes.

A scenario file describes one deterministic run: the cluster topology, ledger
parameters, actor roster, background traffic phases, a script of timed
directives, and the expectations the report is checked against. The loader
rejects unknown keys and reports every problem with its field path; YAML
syntax errors carry the line number from the parser.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

import yaml

__all__ = [
    "ConfigError",
    "Directive",
    "Expectation",
    "LedgerConfig",
    "NetworkConfig",
    "ScenarioConfig",
    "ServiceSpec",
    "TrafficPhase",
    "VehicleSpec",
    "load_scenario",
    "parse_scenario",
]


class ConfigError(ValueError):
    """Raised for malformed scenario files; message lists `field path: problem`
    lines (or the YAML parser's line/column for syntax errors)."""


# -- dataclasses ------------------------------------------------------------------


@dataclass(frozen=True)
class NetworkConfig:
    managers: int = 4
    default_delay: float = 5.0
    jitter: float = 0.0
    links: tuple = ()  # (node_a, node_b, one_way_delay)


@dataclass(frozen=True)
class LedgerConfig:
    block_size: int = 10
    block_period: float = 10.0
    min_check_fraction: float = 0.1
    trust_ramp: int = 5
    utilization_low: float = 0.5
    utilization_high: float = 1.0
    period_min: float = 1.0
    period_max: float = 120.0
    pending_timeout: float = 60.0
    notify_requires_certificate: bool = True


@dataclass(frozen=True)
class VehicleSpec:
    vehicle_id: str
    obm: str
    record_interval: float = 0.0
    anchor_interval: float = 0.0
    backup_interval: float = 0.0
    probe_interval: float = 0.0
    handover_threshold: float = 1e9
    handover_improvement: float = 0.8
    probe_samples: int = 3
    candidate_obms: tuple = ()
    rotate_keys: bool = False
    record_categories: tuple = ("location", "speed")
    upload_categories: tuple = ()


@dataclass(frozen=True)
class ServiceSpec:
    service_id: str
    obm: str


@dataclass(frozen=True)
class TrafficPhase:
    start: float
    stop: float
    pairs: int
    interval: float


@dataclass(frozen=True)
class Directive:
    at: float
    action: str
    params: dict


@dataclass(frozen=True)
class Expectation:
    metric: str
    op: str
    value: Any
    tol: float = 0.0


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    seed: int = 0
    duration: float = 100.0
    description: str = ""
    network: NetworkConfig = field(default_factory=NetworkConfig)
    ledger: LedgerConfig = field(default_factory=LedgerConfig)
    retain_closed_objects: bool = True
    oem: Optional[ServiceSpec] = None
    providers: tuple = ()
    insurer: Optional[ServiceSpec] = None
    attacker: Optional[ServiceSpec] = None
    vehicles: tuple = ()
    traffic: tuple = ()
    script: tuple = ()
    expectations: tuple = ()

    @property
    def manager_ids(self) -> list[str]:
        return [f"obm{i}" for i in range(self.network.managers)]


# -- checked readers --------------------------------------------------------------

_DIRECTIVES = {
    "publish_update": {"provider": str, "ecu": str, "version": str, "body": str},
    "tamper_cloud_object": {"version": str, "object": str},
    "start_ddos": {"attackers": int, "tx_per_attacker": int, "target": str,
                   "interval": float, "keyed_attackers": int},
    "open_account": {"vehicle": str, "owner": str},
    "close_account": {"vehicle": str},
    "trigger_accident": {"vehicle": str, "tamper": bool, "claim_delay": float},
    "move_vehicle": {"vehicle": str, "links": dict},
    "impersonate_provider": {"ecu": str, "version": str},
    "impersonate_oem": {"ecu": str, "version": str},
}

_DIRECTIVE_REQUIRED = {
    "publish_update": {"ecu", "version"},
    "tamper_cloud_object": set(),  # one of version/object, checked separately
    "start_ddos": {"attackers", "tx_per_attacker", "target", "interval"},
    "open_account": {"vehicle", "owner"},
    "close_account": {"vehicle"},
    "trigger_accident": {"vehicle"},
    "move_vehicle": {"vehicle", "links"},
    "impersonate_provider": {"ecu", "version"},
    "impersonate_oem": {"ecu", "version"},
}

_OPS = {"eq", "ne", "ge", "le", "gt", "lt", "between"}


class _Checker:
    def __init__(self) -> None:
        self.problems: list[str] = []

    def fail(self, path: str, message: str) -> None:
        self.problems.append(f"{path}: {message}")

    def mapping(self, obj, path: str, allowed: set[str]) -> dict:
        if obj is None:
            return {}
        if not isinstance(obj, dict):
            self.fail(path, f"expected a mapping, got {type(obj).__name__}")
            return {}
        for key in obj:
            if key not in allowed:
                self.fail(f"{path}.{key}", "unknown key")
        return obj

    def number(self, obj, path: str, default, *, minimum=None, strict_min=False):
        if obj is None:
            return default
        if isinstance(obj, bool) or not isinstance(obj, (int, float)):
            self.fail(path, f"expected a number, got {type(obj).__name__}")
            return default
        value = float(obj)
        if minimum is not None and (value < minimum or (strict_min and value == minimum)):
            bound = "greater than" if strict_min else "at least"
            self.fail(path, f"must be {bound} {minimum}")
        return value

    def integer(self, obj, path: str, default, *, minimum=None):
        if obj is None:
            return default
        if isinstance(obj, bool) or not isinstance(obj, int):
            self.fail(path, f"expected an integer, got {type(obj).__name__}")
            return default
        if minimum is not None and obj < minimum:
            self.fail(path, f"must be at least {minimum}")
        return obj

    def text(self, obj, path: str, default=""):
        if obj is None:
            return default
        if not isinstance(obj, str):
            self.fail(path, f"expected a string, got {type(obj).__name__}")
            return default
        return obj

    def flag(self, obj, path: str, default: bool) -> bool:
        if obj is None:
            return default
        if not isinstance(obj, bool):
            self.fail(path, f"expected true/false, got {type(obj).__name__}")
            return default
        return obj


def _parse_network(check: _Checker, obj) -> NetworkConfig:
    raw = check.mapping(obj, "network", {"managers", "default_delay", "jitter", "links"})
    default = NetworkConfig()
    managers = check.integer(raw.get("managers"), "network.managers", default.managers,
                             minimum=1)
    default_delay = check.number(raw.get("default_delay"), "network.default_delay",
                                 default.default_delay, minimum=0.0, strict_min=True)
    jitter = check.number(raw.get("jitter"), "network.jitter", default.jitter, minimum=0.0)
    links = []
    raw_links = raw.get("links") or []
    if not isinstance(raw_links, list):
        check.fail("network.links", "expected a list of [node, node, delay]")
        raw_links = []
    for i, entry in enumerate(raw_links):
        path = f"network.links[{i}]"
        if (not isinstance(entry, (list, tuple)) or len(entry) != 3
                or not isinstance(entry[0], str) or not isinstance(entry[1], str)):
            check.fail(path, "expected [node_a, node_b, delay]")
            continue
        delay = check.number(entry[2], f"{path}.delay", 1.0, minimum=0.0, strict_min=True)
        links.append((entry[0], entry[1], delay))
    return NetworkConfig(managers, default_delay, jitter, tuple(links))


def _parse_ledger(check: _Checker, obj) -> LedgerConfig:
    raw = check.mapping(obj, "ledger", {f.name for f in dataclasses.fields(LedgerConfig)})
    default = LedgerConfig()

    def read(reader, name: str, **bounds):
        return reader(raw.get(name), f"ledger.{name}", getattr(default, name), **bounds)

    cfg = LedgerConfig(
        block_size=read(check.integer, "block_size", minimum=1),
        block_period=read(check.number, "block_period", minimum=0.0, strict_min=True),
        min_check_fraction=read(check.number, "min_check_fraction", minimum=0.0),
        trust_ramp=read(check.integer, "trust_ramp", minimum=1),
        utilization_low=read(check.number, "utilization_low", minimum=0.0),
        utilization_high=read(check.number, "utilization_high", minimum=0.0),
        period_min=read(check.number, "period_min", minimum=0.0, strict_min=True),
        period_max=read(check.number, "period_max", minimum=0.0, strict_min=True),
        pending_timeout=read(check.number, "pending_timeout", minimum=0.0),
        notify_requires_certificate=read(check.flag, "notify_requires_certificate"),
    )
    if cfg.min_check_fraction > 1.0:
        check.fail("ledger.min_check_fraction", "must be at most 1.0")
    if cfg.utilization_low > cfg.utilization_high:
        check.fail("ledger.utilization_low", "must not exceed utilization_high")
    if cfg.period_min > cfg.period_max:
        check.fail("ledger.period_min", "must not exceed period_max")
    return cfg


def _parse_vehicle_fields(check: _Checker, raw: dict, path: str,
                          base: dict, manager_ids: list[str]) -> dict:
    out = dict(base)
    for key, value in raw.items():
        if key == "obm":
            obm = check.text(value, f"{path}.obm", out["obm"])
            if obm and obm not in manager_ids:
                check.fail(f"{path}.obm", f"unknown manager '{obm}'")
            out["obm"] = obm
        elif key in ("record_interval", "anchor_interval", "backup_interval",
                     "probe_interval", "handover_threshold", "handover_improvement"):
            out[key] = check.number(value, f"{path}.{key}", out[key], minimum=0.0)
        elif key == "probe_samples":
            out[key] = check.integer(value, f"{path}.{key}", out[key], minimum=1)
        elif key == "rotate_keys":
            out[key] = check.flag(value, f"{path}.{key}", out[key])
        elif key == "candidate_obms":
            if value == "all":
                out[key] = tuple(manager_ids)
            elif isinstance(value, list) and all(isinstance(v, str) for v in value):
                for v in value:
                    if v not in manager_ids:
                        check.fail(f"{path}.candidate_obms", f"unknown manager '{v}'")
                out[key] = tuple(value)
            else:
                check.fail(f"{path}.candidate_obms",
                           "expected 'all' or a list of manager ids")
        elif key in ("record_categories", "upload_categories"):
            if isinstance(value, list) and all(isinstance(v, str) for v in value):
                out[key] = tuple(value)
            else:
                check.fail(f"{path}.{key}", "expected a list of category names")
        else:
            check.fail(f"{path}.{key}", "unknown key")
    return out


def _parse_vehicles(check: _Checker, obj, manager_ids: list[str]) -> tuple:
    raw = check.mapping(obj, "actors.vehicles", {"count", "template", "overrides"})
    count = check.integer(raw.get("count"), "actors.vehicles.count", 0, minimum=0)
    template_raw = raw.get("template") or {}
    if not isinstance(template_raw, dict):
        check.fail("actors.vehicles.template", "expected a mapping")
        template_raw = {}
    base = {f.name: f.default for f in dataclasses.fields(VehicleSpec)
            if f.default is not dataclasses.MISSING}
    base["obm"] = "round_robin"
    if template_raw.get("obm") == "round_robin":
        template_raw = dict(template_raw)
        template_raw.pop("obm")
    template = _parse_vehicle_fields(check, template_raw, "actors.vehicles.template",
                                     base, manager_ids)

    overrides_raw = raw.get("overrides") or {}
    if not isinstance(overrides_raw, dict):
        check.fail("actors.vehicles.overrides", "expected a mapping of vehicle id")
        overrides_raw = {}
    vehicle_ids = [f"veh{i}" for i in range(count)]
    for vid in overrides_raw:
        if vid not in vehicle_ids:
            check.fail(f"actors.vehicles.overrides.{vid}", "unknown vehicle id")

    specs = []
    for i, vid in enumerate(vehicle_ids):
        fields_ = dict(template)
        override = overrides_raw.get(vid)
        if isinstance(override, dict):
            fields_ = _parse_vehicle_fields(
                check, override, f"actors.vehicles.overrides.{vid}", fields_,
                manager_ids)
        elif override is not None:
            check.fail(f"actors.vehicles.overrides.{vid}", "expected a mapping")
        obm = fields_.pop("obm")
        if obm == "round_robin":
            obm = manager_ids[i % len(manager_ids)]
        specs.append(VehicleSpec(vehicle_id=vid, obm=obm, **fields_))
    return tuple(specs)


def _parse_service(check: _Checker, obj, path: str, default_id: str,
                   manager_ids: list[str]):
    if obj is None:
        return None
    raw = check.mapping(obj, path, {"id", "obm"})
    sid = check.text(raw.get("id"), f"{path}.id", default_id)
    obm = check.text(raw.get("obm"), f"{path}.obm", manager_ids[0])
    if obm not in manager_ids:
        check.fail(f"{path}.obm", f"unknown manager '{obm}'")
    return ServiceSpec(sid, obm)


def _parse_actors(check: _Checker, obj, manager_ids: list[str]):
    raw = check.mapping(obj, "actors",
                        {"oem", "providers", "insurer", "attacker", "vehicles"})
    oem = _parse_service(check, raw.get("oem"), "actors.oem", "oem", manager_ids)
    insurer = _parse_service(check, raw.get("insurer"), "actors.insurer",
                             "insurer", manager_ids)
    attacker = _parse_service(check, raw.get("attacker"), "actors.attacker",
                              "attacker", manager_ids)
    providers = []
    raw_providers = raw.get("providers") or []
    if not isinstance(raw_providers, list):
        check.fail("actors.providers", "expected a list")
        raw_providers = []
    for i, entry in enumerate(raw_providers):
        spec = _parse_service(check, entry, f"actors.providers[{i}]",
                              f"provider{i}", manager_ids)
        if spec is not None:
            providers.append(spec)
    if providers and oem is None:
        check.fail("actors.providers", "software providers require actors.oem")
    vehicles = _parse_vehicles(check, raw.get("vehicles"), manager_ids)
    return oem, tuple(providers), insurer, attacker, vehicles


def _parse_traffic(check: _Checker, obj, vehicle_count: int) -> tuple:
    raw = check.mapping(obj, "traffic", {"phases"})
    phases_raw = raw.get("phases") or []
    if not isinstance(phases_raw, list):
        check.fail("traffic.phases", "expected a list")
        phases_raw = []
    phases = []
    for i, entry in enumerate(phases_raw):
        path = f"traffic.phases[{i}]"
        phase = check.mapping(entry, path, {"start", "stop", "pairs", "interval"})
        start = check.number(phase.get("start"), f"{path}.start", 0.0, minimum=0.0)
        stop = check.number(phase.get("stop"), f"{path}.stop", start)
        pairs = check.integer(phase.get("pairs"), f"{path}.pairs", 0, minimum=0)
        interval = check.number(phase.get("interval"), f"{path}.interval",
                                1.0, minimum=0.0, strict_min=True)
        if stop < start:
            check.fail(f"{path}.stop", "must not precede start")
        if pairs * 2 > vehicle_count:
            check.fail(f"{path}.pairs",
                       f"needs {pairs * 2} vehicles, roster has {vehicle_count}")
        phases.append(TrafficPhase(start, stop, pairs, interval))
    return tuple(phases)


def _parse_script(check: _Checker, obj, known_ids: dict, duration: float) -> tuple:
    if obj is None:
        return ()
    if not isinstance(obj, list):
        check.fail("script", "expected a list of directives")
        return ()
    directives = []
    for i, entry in enumerate(obj):
        path = f"script[{i}]"
        if not isinstance(entry, dict):
            check.fail(path, "expected a mapping")
            continue
        action = entry.get("do")
        if action not in _DIRECTIVES:
            check.fail(f"{path}.do", f"unknown directive '{action}'")
            continue
        at = check.number(entry.get("at"), f"{path}.at", 0.0, minimum=0.0)
        if at > duration:
            check.fail(f"{path}.at", f"past scenario duration {duration}")
        allowed = _DIRECTIVES[action]
        params = {}
        for key, value in entry.items():
            if key in ("at", "do"):
                continue
            if key not in allowed:
                check.fail(f"{path}.{key}", f"unknown key for {action}")
                continue
            expected = allowed[key]
            if expected is float:
                params[key] = check.number(value, f"{path}.{key}", 0.0)
            elif expected is int:
                params[key] = check.integer(value, f"{path}.{key}", 0, minimum=0)
            elif expected is bool:
                params[key] = check.flag(value, f"{path}.{key}", False)
            elif expected is dict:
                if not isinstance(value, dict):
                    check.fail(f"{path}.{key}", "expected a mapping")
                else:
                    params[key] = value
            else:
                params[key] = check.text(value, f"{path}.{key}")
        missing = _DIRECTIVE_REQUIRED[action] - params.keys()
        if missing:
            check.fail(path, f"{action} missing required keys: {sorted(missing)}")
        if action == "tamper_cloud_object" and not ({"version", "object"} & params.keys()):
            check.fail(path, "tamper_cloud_object needs 'version' or 'object'")

        # referential checks
        for key in ("vehicle", "target"):
            if key in params and params[key] not in known_ids["vehicles"]:
                check.fail(f"{path}.{key}", f"unknown vehicle '{params[key]}'")
        if action == "publish_update":
            provider = params.get("provider")
            if provider is None:
                if len(known_ids["providers"]) == 1:
                    params["provider"] = known_ids["providers"][0]
                else:
                    check.fail(path, "publish_update needs 'provider' "
                                     "(roster has none or several)")
            elif provider not in known_ids["providers"]:
                check.fail(f"{path}.provider", f"unknown provider '{provider}'")
            if known_ids["oem"] is None:
                check.fail(path, "publish_update requires an oem in the roster")
        if action in ("open_account", "close_account", "trigger_accident") \
                and known_ids["insurer"] is None:
            check.fail(path, f"{action} requires an insurer in the roster")
        if action in ("impersonate_provider", "impersonate_oem"):
            if known_ids["attacker"] is None:
                check.fail(path, f"{action} requires an attacker in the roster")
            if known_ids["oem"] is None:
                check.fail(path, f"{action} requires an oem in the roster")
        if action == "move_vehicle":
            for node in params.get("links", {}):
                if node not in known_ids["managers"]:
                    check.fail(f"{path}.links.{node}", "unknown manager")
        directives.append(Directive(at, action, params))
    return tuple(sorted(directives, key=lambda d: d.at))


def _parse_expectations(check: _Checker, obj) -> tuple:
    if obj is None:
        return ()
    if not isinstance(obj, list):
        check.fail("expectations", "expected a list")
        return ()
    out = []
    for i, entry in enumerate(obj):
        path = f"expectations[{i}]"
        raw = check.mapping(entry, path, {"metric", "op", "value", "tol"})
        metric = check.text(raw.get("metric"), f"{path}.metric")
        if not metric:
            check.fail(f"{path}.metric", "required")
        op = check.text(raw.get("op"), f"{path}.op", "eq")
        if op not in _OPS:
            check.fail(f"{path}.op", f"unknown comparison '{op}'")
        value = raw.get("value")
        if op == "between":
            if (not isinstance(value, list) or len(value) != 2
                    or not all(isinstance(v, (int, float)) for v in value)):
                check.fail(f"{path}.value", "'between' takes [low, high]")
        elif isinstance(value, bool) or not isinstance(value, (int, float)):
            check.fail(f"{path}.value", "expected a number")
        tol = check.number(raw.get("tol"), f"{path}.tol", 0.0, minimum=0.0)
        out.append(Expectation(metric, op, value, tol))
    return tuple(out)


_TOP_KEYS = {"name", "description", "seed", "duration", "network", "ledger",
             "cloud", "actors", "traffic", "script", "expectations"}


def parse_scenario(obj: Any, *, default_name: str = "scenario") -> ScenarioConfig:
    """Validate a parsed YAML document and build the ScenarioConfig."""
    check = _Checker()
    raw = check.mapping(obj, "<root>", _TOP_KEYS)
    if not isinstance(obj, dict):
        raise ConfigError("\n".join(check.problems))

    name = check.text(raw.get("name"), "name", default_name)
    description = check.text(raw.get("description"), "description")
    seed = check.integer(raw.get("seed"), "seed", 0)
    duration = check.number(raw.get("duration"), "duration", 100.0,
                            minimum=0.0, strict_min=True)
    network = _parse_network(check, raw.get("network"))
    ledger = _parse_ledger(check, raw.get("ledger"))
    cloud_raw = check.mapping(raw.get("cloud"), "cloud", {"retain_closed_objects"})
    retain = check.flag(cloud_raw.get("retain_closed_objects"),
                        "cloud.retain_closed_objects", True)

    manager_ids = [f"obm{i}" for i in range(max(network.managers, 1))]
    oem, providers, insurer, attacker, vehicles = _parse_actors(
        check, raw.get("actors"), manager_ids)

    known_ids = {
        "managers": set(manager_ids),
        "vehicles": {v.vehicle_id for v in vehicles},
        "providers": [p.service_id for p in providers],
        "oem": oem,
        "insurer": insurer,
        "attacker": attacker,
    }
    node_ids = (known_ids["managers"] | known_ids["vehicles"]
                | set(known_ids["providers"]) | {"cloud"})
    for spec in (oem, insurer, attacker):
        if spec is not None:
            node_ids.add(spec.service_id)
    if len(node_ids) < (network.managers + len(vehicles) + len(providers) + 1
                        + sum(s is not None for s in (oem, insurer, attacker))):
        check.fail("actors", "actor ids must be unique across the roster")

    for i, (a, b, _) in enumerate(network.links):
        for node in (a, b):
            if node not in node_ids:
                check.fail(f"network.links[{i}]", f"unknown node '{node}'")

    traffic = _parse_traffic(check, raw.get("traffic"), len(vehicles))
    script = _parse_script(check, raw.get("script"), known_ids, duration)
    expectations = _parse_expectations(check, raw.get("expectations"))

    for i, phase in enumerate(traffic):
        if phase.stop > duration:
            check.fail(f"traffic.phases[{i}].stop",
                       f"extends past duration {duration}")

    if check.problems:
        raise ConfigError("\n".join(check.problems))
    return ScenarioConfig(
        name=name, seed=seed, duration=duration, description=description,
        network=network, ledger=ledger, retain_closed_objects=retain,
        oem=oem, providers=providers, insurer=insurer, attacker=attacker,
        vehicles=vehicles, traffic=traffic, script=script,
        expectations=expectations)


def load_scenario(path: str | Path, *, seed_override: Optional[int] = None
                  ) -> ScenarioConfig:
    """Read, parse, and validate one scenario file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    try:
        obj = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"line {mark.line + 1}, column {mark.column + 1}" if mark else "unknown position"
        problem = getattr(exc, "problem", str(exc))
        raise ConfigError(f"{path}: YAML syntax error at {where}: {problem}") from exc
    config = parse_scenario(obj, default_name=path.stem)
    if seed_override is not None:
        config = dataclasses.replace(config, seed=seed_override)
    return config
