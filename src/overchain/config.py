"""Scenario configuration: YAML schema, validating loader, and the dataclasses
the world builder consumes.

A scenario file describes one deterministic run: the cluster topology, ledger
parameters, actor roster, background traffic phases, a script of timed
directives, and the expectations the report is checked against. The loader
rejects unknown keys and reports every problem with its field path; YAML
syntax errors carry the line number from the parser.

Each setting is one dataclass field: its annotation is the checked type,
``_at_least``/``_above`` its bound, its default what a missing or null key keeps.
"""
from __future__ import annotations

import dataclasses
import functools
import math
import re
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

import yaml

__all__ = [
    "CLOUD_ID",
    "DRIVER_ID",
    "EXPECTATION_OPS",
    "TRAFFIC_ID",
    "ConfigError",
    "Directive",
    "Expectation",
    "LedgerConfig",
    "NetworkConfig",
    "ScenarioConfig",
    "ServiceSpec",
    "TrafficPhase",
    "VehicleSpec",
    "attacker_id",
    "load_scenario",
    "parse_scenario",
    "traffic_pairs",
]


class ConfigError(ValueError):
    """Raised for malformed scenario files; message lists `field path: problem`
    lines (or the YAML parser's line/column for syntax errors)."""


def _at_least(low, default):
    return field(default=default, metadata={"bound": (low, False)})


def _above(low, default):
    return field(default=default, metadata={"bound": (low, True)})


# -- dataclasses ------------------------------------------------------------------


@dataclass(frozen=True)
class NetworkConfig:
    managers: int = _at_least(1, default=4)
    default_delay: float = _above(0.0, default=5.0)
    jitter: float = _at_least(0.0, default=0.0)
    links: tuple = ()  # (node_a, node_b, one_way_delay)

    @property
    def manager_ids(self) -> list[str]:
        return [f"obm{i}" for i in range(self.managers)]

    @property
    def period_floor(self) -> float:
        """The shortest block period that cannot fork: the worst manager-to-manager
        base delay at full jitter, so each block reaches every manager before the
        next turn. Only ``obm``-``obm`` links count, and ``move_vehicle`` changes
        only vehicle links, so the floor is fixed for the run."""
        ids = set(self.manager_ids)
        base = {frozenset((a, b)): delay for a, b, delay in self.links
                if a != b and a in ids and b in ids}
        worst = max(base.values(), default=0.0)
        if len(base) < len(ids) * (len(ids) - 1) // 2:  # some pair keeps the default
            worst = max(worst, self.default_delay)
        return worst * (1.0 + self.jitter)


# The world's own node ids, besides ``obm<N>`` and ``veh<N>``: the object store,
# the background traffic source and the scenario clock. A roster service may
# take none of them, nor the id of any ``start_ddos`` attacker of its script.
CLOUD_ID, TRAFFIC_ID, DRIVER_ID = "cloud", "traffic", "driver"
_WORLD_NODES = {CLOUD_ID: "the cloud store", TRAFFIC_ID: "the traffic source",
                DRIVER_ID: "the scenario driver"}
_ATTACKER_PREFIX = "atk"


def attacker_id(n: int) -> str:
    """The node id of a run's ``n``-th ``start_ddos`` attacker, counted from 1."""
    return f"{_ATTACKER_PREFIX}{n}"


def _reserved_for(node_id: str, attackers: int) -> Optional[str]:
    """The world's node that takes ``node_id``, in a run whose ``start_ddos``
    directives start ``attackers`` attackers in all; None if none does."""
    number = node_id.removeprefix(_ATTACKER_PREFIX)
    # the length first, since int() refuses a string of over 4,300 digits
    if (number.isdecimal() and len(number) <= len(str(attackers))
            and attacker_id(n := int(number)) == node_id and 0 < n <= attackers):
        return "a start_ddos attacker"
    return _WORLD_NODES.get(node_id)


@dataclass(frozen=True)
class LedgerConfig:
    block_size: int = _at_least(1, default=10)
    block_period: float = _above(0.0, default=10.0)
    min_check_fraction: float = _at_least(0.0, default=0.1)
    trust_ramp: int = _at_least(1, default=5)
    utilization_low: float = _at_least(0.0, default=0.5)
    utilization_high: float = _at_least(0.0, default=1.0)
    period_min: float = _above(0.0, default=1.0)
    period_max: float = _above(0.0, default=120.0)
    pending_timeout: float = _at_least(0.0, default=60.0)
    notify_requires_certificate: bool = True


@dataclass(frozen=True)
class VehicleSpec:
    vehicle_id: str
    obm: str
    record_interval: float = _at_least(0.0, default=0.0)
    anchor_interval: float = _at_least(0.0, default=0.0)
    backup_interval: float = _at_least(0.0, default=0.0)
    probe_interval: float = _at_least(0.0, default=0.0)
    handover_threshold: float = _at_least(0.0, default=1e9)
    handover_improvement: float = _at_least(0.0, default=0.8)
    probe_samples: int = _at_least(1, default=3)
    candidate_obms: tuple[str, ...] = ()
    rotate_keys: bool = False
    record_categories: tuple[str, ...] = ("location", "speed")
    upload_categories: tuple[str, ...] = ()


@dataclass(frozen=True)
class ServiceSpec:
    service_id: str
    obm: str


@dataclass(frozen=True)
class TrafficPhase:
    start: float = _at_least(0.0, default=0.0)
    stop: Optional[float] = None  # None: one round of transactions, at start
    pairs: int = _at_least(0, default=0)
    interval: float = _above(0.0, default=1.0)

    def __post_init__(self) -> None:
        if self.stop is None:
            object.__setattr__(self, "stop", self.start)


@dataclass(frozen=True)
class Directive:
    at: float
    action: str
    params: dict


@dataclass(frozen=True)
class Expectation:
    metric: str = ""
    op: str = "eq"  # a key of EXPECTATION_OPS
    value: Any = None
    tol: float = _at_least(0.0, default=0.0)


# Each comparison an expectation may name: whether the number ``actual`` passes against
# ``value`` ([low, high] for ``between``) widened by ``tol``; gt and lt take no tolerance.
EXPECTATION_OPS = {
    "eq": lambda actual, value, tol: abs(actual - value) <= tol,
    "ne": lambda actual, value, tol: abs(actual - value) > tol,
    "ge": lambda actual, value, tol: actual >= value - tol,
    "le": lambda actual, value, tol: actual <= value + tol,
    "gt": lambda actual, value, tol: actual > value,
    "lt": lambda actual, value, tol: actual < value,
    "between": lambda actual, value, tol: value[0] - tol <= actual <= value[1] + tol,
}


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    seed: int = 0
    duration: float = _above(0.0, default=100.0)
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
        return self.network.manager_ids


def traffic_pairs(phases) -> list[tuple[str, str]]:
    """The vehicle pairs the traffic ``phases`` use: pair k is (veh{2k}, veh{2k+1})
    with the even vehicle requesting, and a phase of n pairs uses the first n."""
    count = max((phase.pairs for phase in phases), default=0)
    return [(f"veh{2 * k}", f"veh{2 * k + 1}") for k in range(count)]


# -- checked readers --------------------------------------------------------------

# Each directive's parameters: name -> (type, default); ``...`` marks a required
# one, None an optional one. Numbers are counts or times, so none may be negative.
_DIRECTIVES = {
    "publish_update": {"provider": (str, None), "ecu": (str, ...), "version": (str, ...),
                       "body": (str, None)},
    "tamper_cloud_object": {"version": (str, None), "object": (str, None)},
    "start_ddos": {"attackers": (int, ...), "tx_per_attacker": (int, ...),
                   "target": (str, ...), "interval": (float, ...),
                   "keyed_attackers": (int, 0)},
    "open_account": {"vehicle": (str, ...), "owner": (str, ...)},
    "close_account": {"vehicle": (str, ...)},
    "trigger_accident": {"vehicle": (str, ...), "tamper": (bool, False),
                         "claim_delay": (float, 0.0)},
    "move_vehicle": {"vehicle": (str, ...), "links": (dict, ...)},
    "impersonate_provider": {"ecu": (str, ...), "version": (str, ...)},
    "impersonate_oem": {"ecu": (str, ...), "version": (str, ...)},
}

# The roster roles each directive needs, in the order a missing one is reported.
_ROLES = {"publish_update": ("oem",), "open_account": ("insurer",),
          "close_account": ("insurer",), "trigger_accident": ("insurer",),
          "impersonate_provider": ("attacker", "oem"), "impersonate_oem": ("attacker", "oem")}

_NAMES = tuple[str, ...]  # read from a YAML list of strings
# The types the reader checks, and how an error names each one.
_EXPECTED = {int: "an integer", float: "a number", str: "a string",
             bool: "true/false", _NAMES: "a list of strings", list: "a list",
             dict: "a mapping"}

# YAML 1.1 reads a number with an exponent only with a dot before it and a
# sign in it: ``1.0e+12`` is a float, ``1.0e12`` and ``1e+12`` are strings.
_EXPONENT = re.compile(r"([-+]?)([0-9_]*)(\.[0-9_]*)?[eE]([-+]?)([0-9]+)")


def _number_text(text: str) -> str:
    """For a string that ``float()`` reads, `` 'text'`` and, when it is an
    exponent form YAML 1.1 reads as a string, how to write it; else ''."""
    try:
        float(text)
    except ValueError:
        return ""
    match = _EXPONENT.fullmatch(text)
    if match is None:
        return f" {text!r}"
    sign, whole, fraction, exponent_sign, exponent = match.groups()
    missing = [what for what, present in (("a dot", fraction),
                                          ("a signed exponent", exponent_sign))
               if not present]
    if not missing:
        return f" {text!r}"
    fixed = f"{sign}{whole or '0'}{fraction or '.0'}e{exponent_sign or '+'}{exponent}"
    return f" {text!r} (YAML 1.1 needs {' and '.join(missing)}, e.g. {fixed})"


@functools.cache
def _plan(cls) -> tuple:
    """(name, type, bound) of each field of ``cls`` whose type the reader checks."""
    hints = typing.get_type_hints(cls)
    plan = []
    for f in dataclasses.fields(cls):
        kind = hints[f.name]
        if typing.get_origin(kind) is typing.Union:  # Optional[X]
            kind = typing.get_args(kind)[0]
        if kind in _EXPECTED:
            plan.append((f.name, kind, f.metadata.get("bound")))
    return tuple(plan)


class _Section(dict):
    """A mapping from the scenario file that records the keys read with ``get``."""

    read: set

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


class _Checker:
    def __init__(self) -> None:
        self.problems: list[str] = []
        self.sections: list[tuple[str, _Section]] = []

    def fail(self, path: str, message: str) -> None:
        self.problems.append(f"{path}: {message}")

    def value(self, obj, path: str, kind, bound=None, default=None):
        """``obj`` if it has type ``kind`` (a key of ``_EXPECTED``), else
        ``default``; a ``(low, strict)`` bound is checked and reported. A
        ``float`` must be finite: ``.nan``, ``.inf`` or an integer past a
        float's range is reported and gives ``default``. A string in its place
        that reads as a number is quoted in the report, with its YAML 1.1
        spelling when it has an exponent."""
        if kind == _NAMES:
            ok = isinstance(obj, list) and all(isinstance(v, str) for v in obj)
        else:
            ok = (isinstance(obj, (int, float) if kind is float else kind)
                  and (kind is bool or not isinstance(obj, bool)))
        if not ok:
            shown = _number_text(obj) if kind is float and isinstance(obj, str) else ""
            self.fail(path, f"expected {_EXPECTED[kind]}, got {type(obj).__name__}{shown}")
            return default
        if kind is float:
            try:
                obj = float(obj)
            except OverflowError:
                obj = math.inf
            if not math.isfinite(obj):
                self.fail(path, "must be a finite number")
                return default
        if bound is not None:
            low, strict = bound
            if obj < low or (strict and obj == low):
                self.fail(path, f"must be {'greater than' if strict else 'at least'} {low}")
        return tuple(obj) if kind == _NAMES else obj

    def read(self, raw: dict, key, path: str, kind, bound=None, default=None):
        """``raw[key]`` checked as ``value`` does; missing or null gives
        ``default``, and is reported when ``default`` is ``...`` (required)."""
        obj, where = raw.get(key), f"{path}.{key}" if path else key
        fallback = None if default is ... else default
        if obj is not None:
            return self.value(obj, where, kind, bound, fallback)
        if default is ...:
            self.fail(where, "required")
        return fallback

    def mapping(self, obj, path: str) -> _Section:
        """The section at ``path``; ``finish`` reports the keys no reader asked for."""
        section = _Section({} if obj is None else self.value(obj, path, dict, default={}))
        section.read = set()
        self.sections.append((path, section))
        return section

    def build(self, cls, raw: dict, path: str, base=None, **given):
        """``cls`` from the section ``raw``, reading each field of its plan not in
        ``given``. A missing, null or ill-typed key, or a None in ``given``, keeps
        ``base``'s value, or the class default when ``base`` is None."""
        values = {name: v for name, v in given.items() if v is not None}
        for name, kind, bound in _plan(cls):
            if name not in given:
                value = self.read(raw, name, path, kind, bound)
                if value is not None:
                    values[name] = value
        return cls(**values) if base is None else dataclasses.replace(base, **values)

    def finish(self) -> None:
        for path, section in self.sections:
            for key in section:
                if key not in section.read:
                    self.fail(f"{path or '<root>'}.{key}", "unknown key")
        if self.problems:
            raise ConfigError("\n".join(self.problems))


def _parse_network(check: _Checker, obj) -> NetworkConfig:
    raw = check.mapping(obj, "network")
    links = []
    for i, entry in enumerate(check.read(raw, "links", "network", list, default=[])):
        path = f"network.links[{i}]"
        if (not isinstance(entry, (list, tuple)) or len(entry) != 3
                or not isinstance(entry[0], str) or not isinstance(entry[1], str)):
            check.fail(path, "expected [node_a, node_b, delay]")
            continue
        delay = check.value(entry[2], f"{path}.delay", float, (0.0, True))
        if delay is not None:
            links.append((entry[0], entry[1], delay))
    return check.build(NetworkConfig, raw, "network", links=tuple(links))


def _parse_ledger(check: _Checker, obj, network: NetworkConfig) -> LedgerConfig:
    cfg = check.build(LedgerConfig, check.mapping(obj, "ledger"), "ledger")
    if cfg.min_check_fraction > 1.0:
        check.fail("ledger.min_check_fraction", "must be at most 1.0")
    if cfg.utilization_low > cfg.utilization_high:
        check.fail("ledger.utilization_low", "must not exceed utilization_high")
    if cfg.period_min > cfg.period_max:
        check.fail("ledger.period_min", "must not exceed period_max")
    elif not cfg.period_min <= cfg.block_period <= cfg.period_max:
        check.fail("ledger.block_period", f"must lie in [period_min, period_max] = "
                   f"[{cfg.period_min:g}, {cfg.period_max:g}]; the period is clamped "
                   "only under traffic, so an idle run keeps it outside")
    floor = network.period_floor
    for name in ("block_period", "period_max"):
        if getattr(cfg, name) < floor:
            check.fail(f"ledger.{name}", f"must be at least {floor:g}, the worst "
                       "manager-to-manager delay with jitter; a shorter period forks")
    return cfg


def _parse_vehicle(check: _Checker, obj, path: str, base: VehicleSpec,
                   manager_ids: list[str]) -> VehicleSpec:
    """``base`` with the fields the template or override at ``path`` sets."""
    raw = check.mapping(obj, path)
    given = {"vehicle_id": base.vehicle_id}
    if raw.get("candidate_obms") == "all":
        given["candidate_obms"] = tuple(manager_ids)
    spec = check.build(VehicleSpec, raw, path, base, **given)
    if spec.obm != base.obm and spec.obm not in manager_ids:
        check.fail(f"{path}.obm", f"unknown manager '{spec.obm}'")
    for v in spec.candidate_obms:
        if v not in manager_ids:
            check.fail(f"{path}.candidate_obms", f"unknown manager '{v}'")
    return spec


def _parse_vehicles(check: _Checker, obj, manager_ids: list[str]) -> tuple[tuple, dict]:
    """The vehicle specs, and the path of the ``rotate_keys`` that turns rotation
    on for each vehicle that rotates its keys."""
    raw = check.mapping(obj, "actors.vehicles")
    count = check.read(raw, "count", "actors.vehicles", int, (0, False), default=0)
    template = _parse_vehicle(check, raw.get("template"), "actors.vehicles.template",
                              VehicleSpec("", "round_robin"), manager_ids)
    overrides = check.read(raw, "overrides", "actors.vehicles", dict, default={})
    vehicle_ids = [f"veh{i}" for i in range(count)]
    for vid in overrides:
        if vid not in vehicle_ids:
            check.fail(f"actors.vehicles.overrides.{vid}", "unknown vehicle id")

    specs, rotating = [], {}
    for i, vid in enumerate(vehicle_ids):
        obm = template.obm
        if obm == "round_robin":
            obm = manager_ids[i % len(manager_ids)]
        spec = VehicleSpec(**{**vars(template), "vehicle_id": vid, "obm": obm})
        source = "actors.vehicles.template"
        if vid in overrides:
            if isinstance(overrides[vid], dict) and "rotate_keys" in overrides[vid]:
                source = f"actors.vehicles.overrides.{vid}"
            spec = _parse_vehicle(check, overrides[vid],
                                  f"actors.vehicles.overrides.{vid}", spec, manager_ids)
        if spec.rotate_keys:
            rotating[vid] = f"{source}.rotate_keys"
        specs.append(spec)
    return tuple(specs), rotating


def _parse_service(check: _Checker, obj, path: str, default_id: str,
                   manager_ids: list[str]):
    if obj is None:
        return None
    raw = check.mapping(obj, path)
    spec = ServiceSpec(check.read(raw, "id", path, str, default=default_id),
                       check.read(raw, "obm", path, str, default=manager_ids[0]))
    if spec.obm not in manager_ids:
        check.fail(f"{path}.obm", f"unknown manager '{spec.obm}'")
    return spec


def _parse_actors(check: _Checker, obj, manager_ids: list[str]):
    """The roster, and each service's (path of its ``id``, id)."""
    raw = check.mapping(obj, "actors")
    specs = {f"actors.{role}": _parse_service(check, raw.get(role), f"actors.{role}",
                                              role, manager_ids)
             for role in ("oem", "insurer", "attacker")}
    oem, insurer, attacker = specs.values()
    for i, entry in enumerate(check.read(raw, "providers", "actors", list, default=[])):
        path = f"actors.providers[{i}]"
        specs[path] = _parse_service(check, entry, path, f"provider{i}", manager_ids)
    providers = tuple(spec for path, spec in specs.items()
                      if path.startswith("actors.providers") and spec is not None)
    if providers and oem is None:
        check.fail("actors.providers", "software providers require actors.oem")
    vehicles, rotating = _parse_vehicles(check, raw.get("vehicles"), manager_ids)
    ids = [(f"{path}.id", spec.service_id) for path, spec in specs.items()
           if spec is not None]
    return oem, providers, insurer, attacker, vehicles, rotating, ids


def _parse_traffic(check: _Checker, obj, vehicle_count: int, rotating: dict) -> tuple:
    raw = check.mapping(obj, "traffic")
    phases = []
    for i, entry in enumerate(check.read(raw, "phases", "traffic", list, default=[])):
        path = f"traffic.phases[{i}]"
        phase = check.build(TrafficPhase, check.mapping(entry, path), path)
        if phase.stop < phase.start:
            check.fail(f"{path}.stop", "must not precede start")
        if phase.pairs * 2 > vehicle_count:
            check.fail(f"{path}.pairs",
                       f"needs {phase.pairs * 2} vehicles, roster has {vehicle_count}")
        phases.append(phase)
    # build_world uploads each pair's key-list entries once, with the first keys,
    # so a pair vehicle that rotates would have every later transaction dropped
    pair_ids = {vid for pair in traffic_pairs(phases) for vid in pair}
    for vid, path in rotating.items():
        if vid in pair_ids:
            check.fail(path, f"{vid} is in a traffic pair; key rotation is not yet "
                       "supported for traffic vehicles")
    return tuple(phases)


def _parse_script(check: _Checker, entries: list, known_ids: dict,
                  duration: float) -> tuple:
    directives = []
    for i, entry in enumerate(entries):
        path = f"script[{i}]"
        if check.value(entry, path, dict) is None:
            continue
        action = entry.get("do")
        if action not in _DIRECTIVES:
            check.fail(f"{path}.do", f"unknown directive '{action}'")
            continue
        at = check.read(entry, "at", path, float, (0.0, False), default=0.0)
        if at > duration:
            check.fail(f"{path}.at", f"past scenario duration {duration}")
        table = _DIRECTIVES[action]
        for key in entry:
            if key not in table and key not in ("at", "do"):
                check.fail(f"{path}.{key}", f"unknown key for {action}")
        params = {key: check.read(entry, key, path, kind,
                                  (0, False) if kind in (int, float) else None, default)
                  for key, (kind, default) in table.items()}
        if action == "start_ddos" and params["attackers"] is not None \
                and params["keyed_attackers"] > params["attackers"]:
            check.fail(f"{path}.keyed_attackers", f"must not exceed attackers "
                       f"({params['attackers']}); only that many are started")
        if action == "tamper_cloud_object" and params["version"] is None \
                and params["object"] is None:
            check.fail(path, "tamper_cloud_object needs 'version' or 'object'")

        # referential checks
        for key in ("vehicle", "target"):
            if params.get(key) is not None and params[key] not in known_ids["vehicles"]:
                check.fail(f"{path}.{key}", f"unknown vehicle '{params[key]}'")
        if action == "publish_update":
            provider = params["provider"]
            if provider is None:
                if len(known_ids["providers"]) == 1:
                    params["provider"] = known_ids["providers"][0]
                else:
                    check.fail(path, "publish_update needs 'provider' "
                                     "(roster has none or several)")
            elif provider not in known_ids["providers"]:
                check.fail(f"{path}.provider", f"unknown provider '{provider}'")
        for role in _ROLES.get(action, ()):
            if known_ids[role] is None:
                check.fail(path, f"{action} requires an {role} in the roster")
        if action == "move_vehicle" and params["links"] is not None:
            for node in params["links"]:
                if node not in known_ids["managers"]:
                    check.fail(f"{path}.links.{node}", "unknown manager")
            params["links"] = {node: check.value(delay, f"{path}.links.{node}", float,
                                                 (0.0, True))
                               for node, delay in params["links"].items()}
        directives.append(Directive(at, action, params))
    return tuple(sorted(directives, key=lambda d: d.at))


def _parse_expectations(check: _Checker, entries: list) -> tuple:
    out = []
    for i, entry in enumerate(entries):
        path = f"expectations[{i}]"
        raw = check.mapping(entry, path)
        expectation = check.build(Expectation, raw, path, value=raw.get("value"))
        if not expectation.metric:
            check.fail(f"{path}.metric", "required")
        if expectation.op not in EXPECTATION_OPS:
            check.fail(f"{path}.op", f"unknown comparison '{expectation.op}'")
        value = expectation.value
        if expectation.op == "between":
            if (not isinstance(value, list) or len(value) != 2
                    or not all(isinstance(v, (int, float)) for v in value)):
                check.fail(f"{path}.value", "'between' takes [low, high]")
            else:
                low, high = (check.value(v, f"{path}.value[{j}]", float)
                             for j, v in enumerate(value))
                if None not in (low, high) and low > high:
                    check.fail(f"{path}.value", "low must not exceed high")
        else:
            check.value(value, f"{path}.value", float)
        if expectation.op in ("gt", "lt") and raw.get("tol") is not None:
            check.fail(f"{path}.tol", f"'{expectation.op}' takes no tol")
        out.append(expectation)
    return tuple(out)


def parse_scenario(obj: Any, *, default_name: str = "scenario") -> ScenarioConfig:
    """Validate a parsed YAML document and build the ScenarioConfig."""
    if not isinstance(obj, dict):
        raise ConfigError(f"<root>: expected a mapping, got {type(obj).__name__}")
    check = _Checker()
    raw = check.mapping(obj, "")
    cloud = check.mapping(raw.get("cloud"), "cloud")
    head = check.build(ScenarioConfig, raw, "", ScenarioConfig(default_name),
                       retain_closed_objects=check.read(
                           cloud, "retain_closed_objects", "cloud", bool))
    network = _parse_network(check, raw.get("network"))
    ledger = _parse_ledger(check, raw.get("ledger"), network)

    # a rejected ``managers: 0`` still checks the roster, against obm0
    manager_ids = NetworkConfig(managers=max(network.managers, 1)).manager_ids
    oem, providers, insurer, attacker, vehicles, rotating, service_ids = _parse_actors(
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
                | {service_id for _, service_id in service_ids})
    if len(node_ids) < network.managers + len(vehicles) + len(service_ids):
        check.fail("actors", "actor ids must be unique across the roster")

    for i, (a, b, _) in enumerate(network.links):
        for node in (a, b):
            if node not in node_ids and node != CLOUD_ID:
                check.fail(f"network.links[{i}]", f"unknown node '{node}'")

    traffic = _parse_traffic(check, raw.get("traffic"), len(vehicles), rotating)
    script = _parse_script(check, check.read(raw, "script", "", list, default=[]),
                           known_ids, head.duration)
    attackers = sum(d.params["attackers"] or 0 for d in script if d.action == "start_ddos")
    for path, service_id in service_ids:
        node = _reserved_for(service_id, attackers)
        if node is not None:
            check.fail(path, f"'{service_id}' is the id of {node}")
    expectations = _parse_expectations(
        check, check.read(raw, "expectations", "", list, default=[]))

    for i, phase in enumerate(traffic):
        if phase.stop > head.duration:
            check.fail(f"traffic.phases[{i}].stop",
                       f"extends past duration {head.duration}")

    check.finish()
    return dataclasses.replace(
        head, network=network, ledger=ledger, oem=oem, providers=providers,
        insurer=insurer, attacker=attacker, vehicles=vehicles, traffic=traffic,
        script=script, expectations=expectations)


def load_scenario(path: str | Path, *, seed_override: Optional[int] = None
                  ) -> ScenarioConfig:
    """Read, parse, and validate one scenario file."""
    path = Path(path)
    try:
        data = path.read_bytes()  # PyYAML detects the encoding and rejects a bad one
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    # LibYAML scans and parses when PyYAML was built with it; PyYAML's own safe
    # constructor builds the values either way, so both loaders give the same
    # objects and reject the same input at the same place.
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    try:
        obj = yaml.load(data, Loader=loader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            where, problem = f"line {mark.line + 1}, column {mark.column + 1}", exc.problem
        elif isinstance(exc, yaml.reader.ReaderError):  # a bad encoding or character
            where, problem = f"position {exc.position}", exc.reason
        else:
            where, problem = "unknown position", str(exc)
        raise ConfigError(f"{path}: YAML syntax error at {where}: {problem}") from exc
    config = parse_scenario(obj, default_name=path.stem)
    if seed_override is not None:
        config = dataclasses.replace(config, seed=seed_override)
    return config
