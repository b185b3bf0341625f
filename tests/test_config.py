"""Scenario configuration loading: schema validation, field-path errors,
referential checks, and file handling."""
import dataclasses
import pickle
import textwrap

import pytest
import yaml

from overchain.cli import bundled_scenarios
from overchain.config import (
    CLOUD_ID,
    DRIVER_ID,
    RECORD_CATEGORIES,
    TRAFFIC_ID,
    ConfigError,
    Expectation,
    LedgerConfig,
    NetworkConfig,
    ScenarioConfig,
    ServiceSpec,
    TrafficPhase,
    VehicleSpec,
    attacker_id,
    load_scenario,
    parse_scenario,
)
from overchain.config import _plan
from overchain.world import run_scenario


def minimal(**extra):
    obj = {"name": "t", "duration": 50.0}
    obj.update(extra)
    return obj


def problems_of(obj) -> str:
    with pytest.raises(ConfigError) as err:
        parse_scenario(obj)
    return str(err.value)


# -- defaults and happy parsing ----------------------------------------------------


def test_minimal_config_uses_defaults():
    cfg = parse_scenario(minimal())
    assert cfg.name == "t"
    assert cfg.seed == 0
    assert cfg.network.managers == 4
    assert cfg.ledger.block_size == 10
    assert cfg.ledger.block_period == 10.0
    assert cfg.ledger.min_check_fraction == 0.1
    assert cfg.ledger.trust_ramp == 5
    assert cfg.ledger == LedgerConfig() and cfg.network == NetworkConfig()
    assert cfg.manager_ids == ["obm0", "obm1", "obm2", "obm3"]
    assert cfg.vehicles == ()
    assert cfg.oem is None and cfg.insurer is None and cfg.attacker is None

    counted = parse_scenario(minimal(actors={"vehicles": {"count": 6}}))
    assert counted.vehicles == tuple(VehicleSpec(f"veh{i}", f"obm{i % 4}")
                                     for i in range(6))


def test_vehicles_round_robin_and_overrides():
    cfg = parse_scenario(minimal(
        network={"managers": 3},
        actors={"vehicles": {
            "count": 5,
            "template": {"record_interval": 7.5, "handover_improvement": 0.5},
            "overrides": {"veh2": {"obm": "obm0", "probe_interval": 4.0,
                                   "candidate_obms": "all"},
                          # a null override keeps the template's value
                          "veh3": {"record_interval": None, "handover_improvement": None}},
        }},
    ))
    assert [v.vehicle_id for v in cfg.vehicles] == [f"veh{i}" for i in range(5)]
    assert [v.obm for v in cfg.vehicles] == ["obm0", "obm1", "obm0", "obm0", "obm1"]
    assert all(v.record_interval == 7.5 and v.handover_improvement == 0.5
               for v in cfg.vehicles)
    veh2 = cfg.vehicles[2]
    assert veh2.probe_interval == 4.0
    assert veh2.candidate_obms == ("obm0", "obm1", "obm2")


def test_services_get_default_ids_and_first_manager():
    cfg = parse_scenario(minimal(actors={"oem": {}, "insurer": {"obm": "obm2"}}))
    assert cfg.oem.service_id == "oem" and cfg.oem.obm == "obm0"
    assert cfg.insurer.obm == "obm2"


def test_script_sorted_by_time():
    cfg = parse_scenario(minimal(
        actors={"insurer": {}, "vehicles": {"count": 2}},
        script=[
            {"at": 30.0, "do": "close_account", "vehicle": "veh0"},
            {"at": 5.0, "do": "open_account", "vehicle": "veh0", "owner": "o"},
        ],
    ))
    assert [d.action for d in cfg.script] == ["open_account", "close_account"]


def test_publish_update_provider_defaulted_when_unique():
    cfg = parse_scenario(minimal(
        actors={"oem": {}, "providers": [{"id": "swp", "obm": "obm1"}]},
        script=[{"at": 1.0, "do": "publish_update", "ecu": "e", "version": "1"}],
    ))
    assert cfg.script[0].params["provider"] == "swp"
    assert cfg.providers == (ServiceSpec("swp", "obm1"),)


def test_expectations_parse_ops_and_tol():
    cfg = parse_scenario(minimal(expectations=[
        {"metric": "a.b", "op": "between", "value": [1, 2]},
        {"metric": "c", "value": 3, "tol": 0.5},
        {"metric": "d", "op": "between", "value": [1, 1]},  # low may equal high
    ]))
    assert cfg.expectations[0].op == "between"
    assert cfg.expectations[1].op == "eq" and cfg.expectations[1].tol == 0.5
    assert cfg.expectations[2].value == [1, 1]


# A non-default legal value for every field the reader fills; a field missing
# here fails its case below.
LEGAL = {
    "managers": 5, "default_delay": 2.5, "jitter": 0.5,
    "block_size": 11, "block_period": 12.5, "min_check_fraction": 0.25,
    "trust_ramp": 6, "utilization_low": 0.75, "utilization_high": 2.0,
    "period_min": 2.0, "period_max": 240.0, "notify_requires_certificate": False,
    "obm": "obm2", "record_interval": 1.5, "anchor_interval": 2.5,
    "backup_interval": 3.5, "probe_interval": 4.5, "handover_threshold": 60.0,
    "handover_improvement": 0.5, "candidate_obms": ["obm1"], "rotate_keys": True,
    "upload_categories": ["speed"],
    "start": 1.0, "stop": 2.0, "pairs": 1, "interval": 2.0,
    "metric": "traffic.sent", "op": "ge", "value": 3, "tol": 0.5,
}

# (dataclass, section path, fields read elsewhere, document holding the section)
SECTIONS = [
    (NetworkConfig, "network", {"links"}, lambda v: minimal(network=v)),
    (LedgerConfig, "ledger", set(), lambda v: minimal(ledger=v)),
    (VehicleSpec, "actors.vehicles.template", {"vehicle_id"},
     lambda v: minimal(actors={"vehicles": {"count": 2, "template": v}})),
    (TrafficPhase, "traffic.phases[0]", set(),
     lambda v: minimal(actors={"vehicles": {"count": 2}}, traffic={"phases": [v]})),
    (Expectation, "expectations[0]", set(),
     lambda v: minimal(expectations=[{"metric": "m", "value": 1, **v}])),
]


def parsed_section(cls, config):
    return {NetworkConfig: config.network, LedgerConfig: config.ledger,
            VehicleSpec: config.vehicles[0] if config.vehicles else None,
            TrafficPhase: config.traffic[0] if config.traffic else None,
            Expectation: config.expectations[0] if config.expectations else None}[cls]


@pytest.mark.parametrize("cls, path, name, document", [
    pytest.param(cls, path, f.name, document, id=f"{cls.__name__}.{f.name}")
    for cls, path, skip, document in SECTIONS
    for f in dataclasses.fields(cls) if f.name not in skip
])
def test_every_field_is_read_and_type_checked(cls, path, name, document):
    legal = LEGAL[name]
    expected = tuple(legal) if isinstance(legal, list) else legal
    default = getattr(parsed_section(cls, parse_scenario(document({}))), name)
    assert expected != default
    assert getattr(parsed_section(cls, parse_scenario(document({name: legal}))),
                   name) == expected
    wrong = 7 if isinstance(legal, (str, list)) else "seven"
    assert f"{path}.{name}: expected " in problems_of(document({name: wrong}))


def non_finite_cases():
    """(path, document) with a number that is not finite, or too large for a
    float, at ``path``: every float field ``_plan`` reads, plus numbers read
    elsewhere."""
    sections = [*SECTIONS, (ScenarioConfig, "", set(), lambda v: minimal(**v))]
    for cls, section, _, document in sections:
        for name, kind, _ in _plan(cls):
            if kind is float:
                path = f"{section}.{name}" if section else name
                for spelling in (".nan", ".inf", "-.inf"):
                    yield pytest.param(path, document({name: yaml.safe_load(spelling)}),
                                       id=f"{path}={spelling}")
    inf = yaml.safe_load(".inf")
    yield pytest.param("script[0].at", minimal(
        actors={"vehicles": {"count": 1}},
        script=[{"at": yaml.safe_load(".nan"), "do": "start_ddos", "attackers": 1,
                 "tx_per_attacker": 1, "target": "veh0", "interval": 1.0}]),
        id="script.at=.nan")
    yield pytest.param("network.links[0].delay",
                       minimal(network={"links": [["obm0", "obm1", inf]]}),
                       id="links.delay=.inf")
    yield pytest.param("expectations[0].value",
                       minimal(expectations=[{"metric": "m", "value": inf}]),
                       id="expectations.value=.inf")
    yield pytest.param("expectations[0].value[1]", minimal(expectations=[
        {"metric": "m", "op": "between", "value": [0, inf]}]),
        id="expectations.value.between=.inf")
    yield pytest.param("duration", yaml.safe_load("name: t\nduration: " + "7" * 401),
                       id="duration=401-digit-integer")


@pytest.mark.parametrize("path, document", non_finite_cases())
def test_numbers_must_be_finite(path, document):
    assert f"{path}: must be a finite number" in problems_of(document)


# -- schema errors with field paths ------------------------------------------------


def test_unknown_top_level_key():
    assert "<root>.extra: unknown key" in problems_of(minimal(extra=1))


def test_unknown_nested_key_path():
    assert "ledger.bogus: unknown key" in problems_of(minimal(ledger={"bogus": 1}))


def vehicles(**section):
    return minimal(actors={"vehicles": {"count": 2, **section}})


# Settings that every run left at one value; each is now a constant where it is read.
@pytest.mark.parametrize("document, message", [
    (minimal(ledger={"pending_timeout": 60.0}), "ledger.pending_timeout: unknown key"),
    (vehicles(template={"probe_samples": 3}),
     "actors.vehicles.template.probe_samples: unknown key"),
    (vehicles(overrides={"veh1": {"probe_samples": 1}}),
     "actors.vehicles.overrides.veh1.probe_samples: unknown key"),
    (vehicles(template={"record_categories": ["location", "speed"]}),
     "actors.vehicles.template.record_categories: unknown key"),
    (minimal(cloud={"retain_closed_objects": False}), "<root>.cloud: unknown key"),
    (minimal(cloud={"retain_closed_objects": True}), "<root>.cloud: unknown key"),
], ids=["pending_timeout", "probe_samples", "override_probe_samples", "record_categories",
        "purge_closed_objects", "retain_closed_objects"])
def test_a_removed_setting_is_refused(document, message):
    assert problems_of(document) == message


def test_an_upload_category_that_is_never_recorded_is_refused():
    msg = problems_of(vehicles(template={"upload_categories": ["speed", "braking"]},
                               overrides={"veh1": {"upload_categories": ["lidar"]}}))
    assert msg == (
        "actors.vehicles.template.upload_categories: 'braking' is never recorded; "
        "a vehicle records location and speed\n"
        "actors.vehicles.overrides.veh1.upload_categories: 'lidar' is never recorded; "
        "a vehicle records location and speed")
    cfg = parse_scenario(vehicles(template={"upload_categories": list(RECORD_CATEGORIES)}))
    assert [v.upload_categories for v in cfg.vehicles] == [RECORD_CATEGORIES] * 2


def test_wrong_types_report_paths():
    msg = problems_of(minimal(
        network={"managers": "four"},
        ledger={"block_size": 2.5, "notify_requires_certificate": "yes"},
    ))
    assert "network.managers: expected an integer" in msg
    assert "ledger.block_size: expected an integer" in msg
    assert "ledger.notify_requires_certificate: expected true/false" in msg


def test_multiple_problems_aggregated():
    msg = problems_of(minimal(seed="x", duration=-1))
    assert "seed: expected an integer" in msg
    assert "duration: must be greater than 0" in msg.replace("0.0", "0")


def test_band_and_period_ordering_checked():
    msg = problems_of(minimal(ledger={
        "utilization_low": 2.0, "utilization_high": 1.0,
        "period_min": 50.0, "period_max": 10.0,
        "min_check_fraction": 1.5,
    }))
    assert "ledger.utilization_low: must not exceed utilization_high" in msg
    assert "ledger.period_min: must not exceed period_max" in msg
    assert "ledger.min_check_fraction: must be at most 1.0" in msg


def test_non_mapping_document_rejected():
    with pytest.raises(ConfigError):
        parse_scenario(["not", "a", "mapping"])
    with pytest.raises(ConfigError):
        parse_scenario(None)


# -- referential checks -------------------------------------------------------------


def test_unknown_vehicle_in_directive():
    msg = problems_of(minimal(
        actors={"insurer": {}, "vehicles": {"count": 1}},
        script=[{"at": 1.0, "do": "open_account", "vehicle": "veh9", "owner": "o"}],
    ))
    assert "script[0].vehicle: unknown vehicle 'veh9'" in msg


def test_unknown_manager_in_vehicle_override():
    msg = problems_of(minimal(
        actors={"vehicles": {"count": 1, "overrides": {"veh0": {"obm": "obm9"}}}}))
    assert "unknown manager 'obm9'" in msg


def test_empty_manager_in_vehicle_template_or_override_rejected():
    msg = problems_of(minimal(actors={"vehicles": {"count": 1, "template": {"obm": ""}}}))
    assert "actors.vehicles.template.obm: unknown manager ''" in msg
    msg = problems_of(minimal(
        actors={"vehicles": {"count": 1, "overrides": {"veh0": {"obm": ""}}}}))
    assert "actors.vehicles.overrides.veh0.obm: unknown manager ''" in msg


def test_unknown_override_id():
    msg = problems_of(minimal(
        actors={"vehicles": {"count": 1, "overrides": {"veh7": {}}}}))
    assert "actors.vehicles.overrides.veh7: unknown vehicle id" in msg


@pytest.mark.parametrize("entry", [["obm0", "obm1"], ["obm0", "obm1", 2.0, 3.0],
                                   [0, "obm1", 2.0], "obm0-obm1", {"obm0": "obm1"}])
def test_link_that_is_not_two_nodes_and_a_delay_rejected(entry):
    msg = problems_of(minimal(network={"links": [["obm0", "obm1", 2.0], entry]}))
    assert msg == "network.links[1]: expected [node_a, node_b, delay]"


def test_unknown_candidate_manager_rejected():
    msg = problems_of(minimal(actors={"vehicles": {
        "count": 2, "template": {"candidate_obms": ["obm0", "obm9"]},
        "overrides": {"veh1": {"candidate_obms": ["obm7", "obm1"]}}}}))
    assert msg.splitlines() == [
        "actors.vehicles.template.candidate_obms: unknown manager 'obm9'",
        "actors.vehicles.overrides.veh1.candidate_obms: unknown manager 'obm7'"]


@pytest.mark.parametrize("role, path", [("oem", "actors.oem"), ("insurer", "actors.insurer"),
                                        ("attacker", "actors.attacker")])
def test_service_at_an_unknown_manager_rejected(role, path):
    assert problems_of(minimal(actors={role: {"obm": "obm4"}})) == \
        f"{path}.obm: unknown manager 'obm4'"
    msg = problems_of(minimal(actors={"oem": {}, "providers": [{"obm": "hq"}]}))
    assert msg == "actors.providers[0].obm: unknown manager 'hq'"


def test_link_endpoints_must_exist():
    msg = problems_of(minimal(network={"links": [["veh0", "obm0", 1.0]]}))
    assert "network.links[0]: unknown node 'veh0'" in msg


def test_providers_require_oem():
    msg = problems_of(minimal(actors={"providers": [{"id": "p"}]}))
    assert "actors.providers: software providers require actors.oem" in msg


def test_insurance_directives_require_insurer():
    msg = problems_of(minimal(
        actors={"vehicles": {"count": 1}},
        script=[{"at": 0.0, "do": "trigger_accident", "vehicle": "veh0"}],
    ))
    assert "trigger_accident requires an insurer" in msg


def test_impersonation_requires_attacker_and_oem():
    msg = problems_of(minimal(
        script=[{"at": 0.0, "do": "impersonate_provider", "ecu": "e",
                 "version": "1"}]))
    assert "impersonate_provider requires an attacker" in msg
    assert "impersonate_provider requires an oem" in msg


def test_tamper_without_a_target_rejected():
    msg = problems_of(minimal(script=[{"at": 1.0, "do": "tamper_cloud_object"}]))
    assert msg == "script[0].version: required"
    cfg = parse_scenario(minimal(script=[{"at": 1.0, "do": "tamper_cloud_object",
                                          "version": "2"}]))
    assert cfg.script[0].params == {"version": "2"}


@pytest.mark.parametrize("target, message", [
    ({"object": "sw/x", "version": "2"},
     "script[0].object: unknown key for tamper_cloud_object"),
    ({"object": "sw/x"},
     "script[0].object: unknown key for tamper_cloud_object\nscript[0].version: required"),
])
def test_tamper_names_its_target_by_version_only(target, message):
    msg = problems_of(minimal(script=[{"at": 1.0, "do": "tamper_cloud_object", **target}]))
    assert msg == message


@pytest.mark.parametrize("providers", [[], [{"id": "swp1"}, {"id": "swp2"}]])
def test_publish_without_a_provider_needs_exactly_one_in_the_roster(providers):
    msg = problems_of(minimal(
        actors={"oem": {}, "providers": providers},
        script=[{"at": 1.0, "do": "publish_update", "ecu": "e", "version": "1"}]))
    assert msg == "script[0]: publish_update needs 'provider' (roster has none or several)"


def test_publish_from_an_unknown_provider_rejected():
    msg = problems_of(minimal(
        actors={"oem": {}, "providers": [{"id": "swp"}]},
        script=[{"at": 1.0, "do": "publish_update", "provider": "swq", "ecu": "e",
                 "version": "1"}]))
    assert msg == "script[0].provider: unknown provider 'swq'"


def test_move_to_an_unknown_manager_rejected():
    msg = problems_of(minimal(
        actors={"vehicles": {"count": 1}},
        script=[{"at": 1.0, "do": "move_vehicle", "vehicle": "veh0",
                 "links": {"obm1": 2.0, "obm9": 3.0}}]))
    assert msg == "script[0].links.obm9: unknown manager"


def test_duplicate_actor_ids_rejected():
    msg = problems_of(minimal(
        actors={"oem": {"id": "veh0"}, "vehicles": {"count": 1}}))
    assert "actor ids must be unique" in msg


def ddos_roster(service_ids: dict, attackers=(2, 1)) -> dict:
    """A roster of the given services beside a start_ddos directive for each
    count in ``attackers``."""
    return minimal(
        actors={"vehicles": {"count": 1}, "oem": {}, "insurer": {},
                **{role: {"id": sid} for role, sid in service_ids.items()
                   if role != "providers"},
                "providers": [{"id": sid} for sid in service_ids.get("providers", [])]},
        script=[{"at": 1.0, "do": "start_ddos", "attackers": n, "tx_per_attacker": 1,
                 "target": "veh0", "interval": 1.0} for n in attackers])


@pytest.mark.parametrize("ids, message", [
    ({"oem": "cloud"}, "actors.oem.id: 'cloud' is the id of the cloud store"),
    ({"insurer": "traffic"}, "actors.insurer.id: 'traffic' is the id of the traffic source"),
    ({"attacker": "driver"}, "actors.attacker.id: 'driver' is the id of the scenario driver"),
    ({"providers": ["cloud"]}, "actors.providers[0].id: 'cloud' is the id of the cloud store"),
])
def test_a_service_may_not_take_a_fixed_node_id_of_the_world(ids, message):
    assert problems_of(ddos_roster(ids)) == message


@pytest.mark.parametrize("service_id", ["atk1", "atk2", "atk3"])
def test_a_service_may_not_take_the_id_of_a_start_ddos_attacker(service_id):
    # two directives start 2 + 1 attackers: atk1, atk2 and atk3
    assert problems_of(ddos_roster({"attacker": service_id})) == \
        f"actors.attacker.id: '{service_id}' is the id of a start_ddos attacker"


@pytest.mark.parametrize("service_id", ["atk4", "atk0", "atk01", "atk", "atk-1"])
def test_an_attacker_like_id_that_no_attacker_takes_builds_and_runs(service_id):
    config = parse_scenario(ddos_roster({"attacker": service_id}))
    assert config.attacker.service_id == service_id
    world = run_scenario(config)  # adds atk1..atk3 beside it
    assert {attacker_id(n) for n in (1, 2, 3)} | {service_id} <= set(world.engine.nodes)
    assert {CLOUD_ID, TRAFFIC_ID, DRIVER_ID} <= set(world.engine.nodes)


def test_each_reserved_id_is_reported_at_its_own_path():
    msg = problems_of(ddos_roster({"oem": DRIVER_ID, "insurer": "atk1",
                                   "providers": ["swp", TRAFFIC_ID]}, attackers=(1,)))
    assert msg.splitlines() == [
        "actors.oem.id: 'driver' is the id of the scenario driver",
        "actors.insurer.id: 'atk1' is the id of a start_ddos attacker",
        "actors.providers[1].id: 'traffic' is the id of the traffic source"]


def test_a_link_may_name_the_cloud_store():
    config = parse_scenario(minimal(network={"links": [[CLOUD_ID, "obm0", 2.0]]}))
    assert config.network.links == ((CLOUD_ID, "obm0", 2.0),)
    msg = problems_of(minimal(network={"links": [[TRAFFIC_ID, "obm0", 2.0]]}))
    assert msg == "network.links[0]: unknown node 'traffic'"


# -- time-bound checks ---------------------------------------------------------------


def test_directive_past_duration():
    msg = problems_of(minimal(
        actors={"insurer": {}, "vehicles": {"count": 1}},
        script=[{"at": 99.0, "do": "close_account", "vehicle": "veh0"}],
    ))
    assert "script[0].at: past scenario duration 50.0" in msg


def test_traffic_phase_bounds():
    msg = problems_of(minimal(
        actors={"vehicles": {"count": 2}},
        traffic={"phases": [
            {"start": 10.0, "stop": 5.0, "pairs": 1, "interval": 1.0},
            {"start": 0.0, "stop": 80.0, "pairs": 1, "interval": 1.0},
            {"start": 0.0, "stop": 10.0, "pairs": 4, "interval": 1.0},
        ]},
    ))
    assert "traffic.phases[0].stop: must not precede start" in msg
    assert "traffic.phases[1].stop: extends past duration 50.0" in msg
    assert "traffic.phases[2].pairs: needs 8 vehicles, roster has 2" in msg


def test_null_link_delay_rejected():
    msg = problems_of(minimal(network={"links": [["obm0", "obm1", None]]}))
    assert "network.links[0].delay: expected a number" in msg


# -- settings that can only fork or fail ---------------------------------------------


def test_period_floor_is_the_worst_manager_link_at_full_jitter():
    def floor(managers, links, vehicles=0):
        return parse_scenario(minimal(
            network={"managers": managers, "default_delay": 2.0, "jitter": 0.5,
                     "links": links},
            actors={"vehicles": {"count": vehicles}})).network.period_floor

    # obm1-obm2 keeps the default 2.0; the long vehicle link does not count
    assert floor(3, [["obm0", "obm1", 4.0], ["veh0", "obm0", 30.0]], vehicles=1) == 6.0
    # every manager pair has its own link, so the default does not count
    assert floor(3, [["obm0", "obm1", 1.0], ["obm2", "obm0", 1.0],
                     ["obm1", "obm2", 1.5]]) == 2.25
    assert floor(1, []) == 0.0  # no peer to wait for


def test_block_period_and_period_max_below_the_floor_rejected():
    network = {"managers": 2, "default_delay": 5.0, "jitter": 0.5}
    msg = problems_of(minimal(network=network,
                              ledger={"block_period": 7.0, "period_max": 7.4}))
    assert "ledger.block_period: must be at least 7.5, the worst" in msg
    assert "ledger.period_max: must be at least 7.5, the worst" in msg
    # at the floor is legal, and period_min may stay below it
    ledger = parse_scenario(minimal(network=network, ledger={
        "block_period": 7.5, "period_min": 1.0, "period_max": 7.5})).ledger
    assert (ledger.block_period, ledger.period_min, ledger.period_max) == (7.5, 1.0, 7.5)


def test_block_period_outside_the_period_bounds_rejected():
    # the period is clamped only at a turn that saw traffic: outside the bounds,
    # an idle run keeps it there for every turn
    idle = "the period is clamped only under traffic, so an idle run keeps it outside"
    for ledger, bounds in [({"block_period": 200.0, "period_max": 120.0}, "[1, 120]"),
                           ({"block_period": 5.5, "period_min": 6.0}, "[6, 120]")]:
        assert problems_of(minimal(ledger=ledger)) == \
            f"ledger.block_period: must lie in [period_min, period_max] = {bounds}; {idle}"
    # each bound itself is legal; bounds out of order are one problem, not two
    for block_period in (6.0, 40.0):
        ledger = parse_scenario(minimal(ledger={
            "block_period": block_period, "period_min": 6.0, "period_max": 40.0})).ledger
        assert ledger.block_period == block_period
    assert problems_of(minimal(ledger={"period_min": 50.0, "period_max": 10.0})) == \
        "ledger.period_min: must not exceed period_max"


def test_more_keyed_attackers_than_attackers_rejected():
    def script(keyed):
        return minimal(actors={"vehicles": {"count": 1}}, script=[
            {"at": 1.0, "do": "start_ddos", "attackers": 3, "keyed_attackers": keyed,
             "tx_per_attacker": 2, "target": "veh0", "interval": 1.0}])

    assert problems_of(script(4)) == \
        "script[0].keyed_attackers: must not exceed attackers (3); only that many are started"
    assert parse_scenario(script(3)).script[0].params["keyed_attackers"] == 3


def test_rotating_keys_on_a_traffic_vehicle_rejected():
    def document(vehicles):
        return minimal(actors={"vehicles": {"count": 6, **vehicles}}, traffic={"phases": [
            {"start": 0.0, "pairs": 1}, {"start": 10.0, "pairs": 2}]})

    unsupported = "key rotation is not yet supported for traffic vehicles"
    msg = problems_of(document({"overrides": {"veh3": {"rotate_keys": True}}}))
    assert f"actors.vehicles.overrides.veh3.rotate_keys: veh3 is in a traffic pair; " \
           f"{unsupported}" in msg
    msg = problems_of(document({"template": {"rotate_keys": True},
                                "overrides": {"veh1": {"rotate_keys": False}}}))
    assert [line.split(" is in")[0] for line in msg.splitlines()] == [
        f"actors.vehicles.template.rotate_keys: veh{i}" for i in (0, 2, 3)]
    # veh4 is outside every pair
    config = parse_scenario(document({"overrides": {"veh4": {"rotate_keys": True}}}))
    assert [v.rotate_keys for v in config.vehicles] == [False] * 4 + [True, False]


def test_move_vehicle_link_delays_checked_and_stored_as_floats():
    def script(links):
        return minimal(actors={"vehicles": {"count": 1}}, script=[
            {"at": 1.0, "do": "move_vehicle", "vehicle": "veh0", "links": links}])

    assert "script[0].links.obm0: expected a number" in problems_of(script({"obm0": "fast"}))
    assert "script[0].links.obm1: must be greater than 0" in problems_of(
        script({"obm1": -2.0})).replace("0.0", "0")
    links = parse_scenario(script({"obm0": 3, "obm1": 2.5})).script[0].params["links"]
    assert links == {"obm0": 3.0, "obm1": 2.5}
    assert all(type(delay) is float for delay in links.values())


def test_directive_times_not_negative_and_defaults_filled():
    def script(*directives):
        return minimal(actors={"insurer": {}, "vehicles": {"count": 1}},
                       script=list(directives))

    ddos = {"at": 1.0, "do": "start_ddos", "attackers": 1, "tx_per_attacker": 2,
            "target": "veh0"}
    msg = problems_of(script(
        dict(ddos, interval=-1.0),
        {"at": 1.0, "do": "trigger_accident", "vehicle": "veh0", "claim_delay": -5.0}))
    assert "script[0].interval: must be at least 0" in msg
    assert "script[1].claim_delay: must be at least 0" in msg

    cfg = parse_scenario(script(
        dict(ddos, interval=0.0),
        {"at": 2.0, "do": "trigger_accident", "vehicle": "veh0"}))
    assert cfg.script[0].params["interval"] == 0.0
    assert cfg.script[0].params["keyed_attackers"] == 0
    assert cfg.script[1].params["claim_delay"] == 0.0
    assert cfg.script[1].params["tamper"] is False


def test_directive_without_a_required_parameter_rejected():
    msg = problems_of(minimal(
        actors={"insurer": {}, "vehicles": {"count": 1}},
        script=[{"at": 1.0, "do": "open_account", "vehicle": "veh0"},
                {"at": 2.0, "do": "start_ddos", "attackers": 1, "target": "veh0",
                 "interval": None, "tx_per_attacker": 2}]))
    assert msg.splitlines() == ["script[0].owner: required", "script[1].interval: required"]


@pytest.mark.parametrize("entry, kind", [("publish_update", "str"), (["at", 1.0], "list"),
                                         (7, "int")])
def test_script_entry_that_is_not_a_mapping_rejected(entry, kind):
    msg = problems_of(minimal(script=[entry, {"at": 1.0, "do": "explode"}]))
    assert msg.splitlines() == [f"script[0]: expected a mapping, got {kind}",
                                "script[1].do: unknown directive 'explode'"]


def test_unknown_directive_and_params():
    msg = problems_of(minimal(script=[
        {"at": 0.0, "do": "explode"},
        {"at": 0.0, "do": "start_ddos", "attackers": 1, "tx_per_attacker": 1,
         "target": "veh0", "interval": 1.0, "warp": 9},
    ]))
    assert "script[0].do: unknown directive 'explode'" in msg
    assert "script[1].warp: unknown key for start_ddos" in msg


def test_expectation_errors():
    msg = problems_of(minimal(expectations=[
        {"metric": "a", "op": "approx", "value": 1},
        {"metric": "b", "op": "between", "value": 3},
        {"op": "eq", "value": 1},
        {"metric": "c", "op": "eq", "value": "high"},
    ]))
    assert "expectations[0].op: unknown comparison 'approx'" in msg
    assert "expectations[1].value: 'between' takes [low, high]" in msg
    assert "expectations[2].metric: required" in msg
    assert "expectations[3].value: expected a number" in msg


@pytest.mark.parametrize("value", [[2, 1], [0.5, -0.5], [1e300, -1e300]])
def test_a_between_written_backwards_is_refused(value):
    assert problems_of(minimal(expectations=[
        {"metric": "a", "op": "between", "value": value}])) == \
        "expectations[0].value: low must not exceed high"


@pytest.mark.parametrize("op", ["gt", "lt"])
@pytest.mark.parametrize("tol", [0, 1])
def test_a_strict_comparison_refuses_a_tol(op, tol):
    # gt and lt compare strictly, so a tol would be ignored
    assert problems_of(minimal(expectations=[
        {"metric": "a", "op": "ge", "value": 5, "tol": 1},
        {"metric": "a", "op": op, "value": 5, "tol": tol}])) == \
        f"expectations[1].tol: '{op}' takes no tol"


# -- file handling -------------------------------------------------------------------


def test_load_scenario_reads_yaml(tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text(textwrap.dedent("""\
        duration: 25.0
        network: {managers: 2}
    """))
    cfg = load_scenario(path)
    assert cfg.name == "tiny"  # defaults to the file stem
    assert cfg.network.managers == 2


def test_load_scenario_seed_override(tmp_path):
    path = tmp_path / "s.yaml"
    path.write_text("seed: 4\nduration: 10.0\n")
    assert load_scenario(path).seed == 4
    assert load_scenario(path, seed_override=99).seed == 99


def test_yaml_syntax_error_carries_position(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("name: x\nledger: {block_size: [\n")
    with pytest.raises(ConfigError) as err:
        load_scenario(path)
    assert "YAML syntax error at line" in str(err.value)


def test_file_that_is_not_utf8_is_a_config_error(tmp_path):
    path = tmp_path / "latin1.yaml"
    path.write_bytes("name: café\n".encode("latin-1"))
    with pytest.raises(ConfigError) as err:
        load_scenario(path)
    assert f"{path}: YAML syntax error at position 9: " in str(err.value)
    assert "\n" not in str(err.value)


def test_yaml_error_without_a_position_is_reported_as_unknown(tmp_path, monkeypatch):
    path = tmp_path / "s.yaml"
    path.write_text("name: x\n")

    def refuse(data, Loader):
        raise yaml.YAMLError("loader gave up")

    monkeypatch.setattr(yaml, "load", refuse)
    with pytest.raises(ConfigError) as err:
        load_scenario(path)
    assert str(err.value) == f"{path}: YAML syntax error at unknown position: loader gave up"


# Input that both loaders reject, and where they report it.
MALFORMED_YAML = {
    "truncated_flow": (b"name: x\nledger: {block_size: [\n", "line 3, column 1"),
    "tab_indent": (b"name: x\nledger:\n\tblock_size: 3\n", "line 3, column 1"),
    "latin1_byte": ("name: caf\xe9\n".encode("latin-1"), "position 9"),
    "control_character": (b"name: x\ndescription: a\x01b\n", "position 22"),
    "nul": (b"name: x\x00\n", "position 7"),
    "long_key": (b"name: x\n" + b"k" * 1100 + b": 1\n", "line 2, column 1101"),
    "python_object": (b"name: !!python/object:os.system x\n", "line 1, column 7"),
}


@pytest.fixture(params=["CSafeLoader", "SafeLoader"])
def loader(request, monkeypatch):
    """``load_scenario`` parses with LibYAML, or with PyYAML's pure-Python
    loader, as it does where PyYAML was built without LibYAML."""
    if request.param == "SafeLoader":
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    elif not yaml.__with_libyaml__:
        pytest.skip("PyYAML was built without LibYAML")
    return request.param


def spy_on(monkeypatch, name: str) -> list:
    """Replace ``yaml.<name>`` by a subclass that notes each document it loads."""
    used = []

    class Spy(getattr(yaml, name)):
        def __init__(self, stream):
            used.append(name)
            super().__init__(stream)

    monkeypatch.setattr(yaml, name, Spy)
    return used


@pytest.mark.parametrize("case", MALFORMED_YAML)
def test_malformed_yaml_is_rejected_at_the_same_place_by_both_loaders(loader, case,
                                                                       tmp_path):
    data, where = MALFORMED_YAML[case]
    path = tmp_path / f"{case}.yaml"
    path.write_bytes(data)
    with pytest.raises(ConfigError) as err:
        load_scenario(path)
    assert str(err.value).startswith(f"{path}: YAML syntax error at {where}: ")
    assert "\n" not in str(err.value)


@pytest.mark.parametrize("text, problem", [
    ("duration: 1.0e12", "duration: expected a number, got str '1.0e12' "
     "(YAML 1.1 needs a signed exponent, e.g. 1.0e+12)"),
    ("duration: 1e+12", "duration: expected a number, got str '1e+12' "
     "(YAML 1.1 needs a dot, e.g. 1.0e+12)"),
    ("network: {jitter: 5E-1}", "network.jitter: expected a number, got str '5E-1' "
     "(YAML 1.1 needs a dot, e.g. 5.0e-1)"),
    ("ledger: {block_period: .5e1}", "ledger.block_period: expected a number, "
     "got str '.5e1' (YAML 1.1 needs a signed exponent, e.g. 0.5e+1)"),
    ("duration: 3e2", "duration: expected a number, got str '3e2' "
     "(YAML 1.1 needs a dot and a signed exponent, e.g. 3.0e+2)"),
    ("duration: '120'", "duration: expected a number, got str '120'"),
    ("duration: '1.5'", "duration: expected a number, got str '1.5'"),
    # a dot and a signed exponent: YAML reads it as a float, so no fix to show
    ("duration: '1.0e+12'", "duration: expected a number, got str '1.0e+12'"),
    ("duration: soon", "duration: expected a number, got str"),
])
def test_number_that_yaml_reads_as_a_string_is_shown_with_its_fix(loader, tmp_path,
                                                                  text, problem):
    path = tmp_path / "exponent.yaml"
    path.write_text(f"name: exponent\n{text}\n")
    with pytest.raises(ConfigError) as err:
        load_scenario(path)
    assert str(err.value) == problem
    if "e.g. " in problem:  # the spelling given is one this loader reads as that number
        fixed = problem.rpartition("e.g. ")[2].rstrip(")")
        loaded = yaml.load(f"v: {fixed}", getattr(yaml, loader))["v"]
        assert loaded == float(text.split()[-1].strip("}"))


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML was built without LibYAML")
@pytest.mark.parametrize("name", bundled_scenarios())
def test_bundled_scenario_parses_the_same_under_both_loaders(name):
    path = bundled_scenarios()[name]
    libyaml, python = (
        parse_scenario(yaml.load(path.read_bytes(), Loader=loader), default_name=name)
        for loader in (yaml.CSafeLoader, yaml.SafeLoader))
    assert libyaml == python


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML was built without LibYAML")
@pytest.mark.parametrize("data", [
    b"a: 1\na: 2\n",  # the later duplicate wins
    b"x: &k {v: [1, 2]}\ny: *k\n",
    b"n: 123456789012345678901234567890\n",
    b"v: [yes, No, on, OFF, 0x1f, 0o17, 017, 1_000, 1:30, .inf, -.Inf, ~, 2.5e3]\n",
    "name: \u00fc\n".encode("utf-16"),  # with a byte-order mark
])
def test_both_loaders_read_the_same_values(data):
    assert yaml.load(data, Loader=yaml.CSafeLoader) == yaml.load(data, Loader=yaml.SafeLoader)


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML was built without LibYAML")
def test_load_scenario_parses_with_libyaml(tmp_path, monkeypatch):
    used = spy_on(monkeypatch, "CSafeLoader")
    path = tmp_path / "tiny.yaml"
    path.write_text("duration: 25.0\n")
    assert load_scenario(path).duration == 25.0
    assert used == ["CSafeLoader"]


def test_load_scenario_falls_back_to_the_python_loader(tmp_path, monkeypatch):
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    used = spy_on(monkeypatch, "SafeLoader")
    path = tmp_path / "tiny.yaml"
    path.write_text("duration: 25.0\nnetwork: {managers: 2}\n")
    assert load_scenario(path).network.managers == 2
    assert used == ["SafeLoader"]


def test_missing_file_reports_path(tmp_path):
    with pytest.raises(ConfigError) as err:
        load_scenario(tmp_path / "absent.yaml")
    assert "absent.yaml" in str(err.value)


def test_bundled_configs_pickle_round_trip():
    # ``run --jobs`` hands parsed configs to worker processes
    for path in bundled_scenarios().values():
        config = load_scenario(path)
        assert pickle.loads(pickle.dumps(config)) == config
