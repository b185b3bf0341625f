"""Scenario orchestration: build the simulated network from a ScenarioConfig
and drive it — background traffic, timed directives, the shared block-period
clock, and the end-of-run drain — producing a trace the report reads.

Node naming is fixed by ``config``, which names each fixed id once: managers
are ``obm0..obmN-1`` and vehicles ``veh0..vehM-1``; the object store is
``CLOUD_ID`` (``cloud``), the traffic source ``TRAFFIC_ID`` (``traffic``), the
scenario driver ``DRIVER_ID`` (``driver``) and the n-th ``start_ddos``
attacker of a run ``attacker_id(n)`` (``atk1``, ``atk2``, ...). Service ids come
from the roster, which ``parse_scenario`` keeps off all of these.

All key material derives from ``<scenario seed>:key:<node>`` (and
``:cloud:<node>`` for cloud accounts) so runs are reproducible from the config
alone.

A run derives only the keys it can use. ``build_world`` derives the CA's,
each manager's and service's key, the roster attacker's first key and the
OEM's and providers' cloud-account keys. A vehicle's own cloud account only
downloads the OEM's updates, so it exists only in a scenario with an OEM. A
``KeyRing``'s current key and an attacker's second key are derived on first
use, and a ``start_ddos`` attacker's keys when the directive runs.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .config import DRIVER_ID, TRAFFIC_ID, ScenarioConfig, TrafficPhase, attacker_id, traffic_pairs
from .crypto import ZERO_DIGEST, KeyRing, cached, digest, generate_keypair, issue_certificate
from .ledger import (
    PayloadTag,
    build_transaction,
    countersign,
    schedule_block_turn,
    verify_chain,
)
from .manager import BlockManager, chain_summary
from .messages import BaseActor, Timer
from .services import CloudStore, Insurer, Oem, SwProvider
from .simnet import Engine, LinkModel
from .swformat import SW_OBJECT_PREFIX, build_sw_binary
from .vehicle import Vehicle

__all__ = ["World", "build_world", "run_scenario"]


class TrafficDriver(BaseActor):
    """Generates background two-party transactions between fixed vehicle
    pairs, each a (requester, partner) of ``config.traffic_pairs``. Each
    transaction chains to the requester's most recent completed one."""

    def __init__(self, pairs: list[tuple[Vehicle, Vehicle]]):
        super().__init__(TRAFFIC_ID)
        self.pairs = pairs
        self.sent = 0

    def _round(self, engine, phase: TrafficPhase) -> None:
        for pair in range(phase.pairs):
            self._shoot(engine, pair)
        if engine.now + phase.interval <= phase.stop:
            engine.schedule(phase.interval, self.node_id, Timer(self._round, (phase,)))

    def _shoot(self, engine, pair: int) -> None:
        requester, partner = self.pairs[pair]
        req_key = requester.keys.interaction_key()
        previous = requester.last_final_tid.get(req_key.public, ZERO_DIGEST)
        self.sent += 1
        payload = digest(f"traffic:{pair}:{self.sent}".encode())
        tx = build_transaction(previous, payload, PayloadTag.GENERIC, req_key,
                               recipient_pk=partner.keys.current.public)
        engine.trace.traffic_tx(engine.now, self.node_id, tx.t_id_hex, requester.node_id,
                                partner.node_id)
        requester.submit(engine, tx)


class Attacker(BaseActor):
    """Adversarial traffic source: unauthorized transaction floods and
    forged software-update submissions. Holds its own key material that no
    key list or certificate covers."""

    def __init__(self, node_id: str, obm_id: str, seed: str):
        super().__init__(node_id)
        self.obm_id = obm_id
        self._seed = seed
        self.keypair = generate_keypair(f"{seed}:key:{node_id}")
        self.shots = 0

    @cached
    def second_keypair(self):
        """The key that countersigns ``forge_final``'s forgery, derived on first use."""
        return generate_keypair(f"{self._seed}:key:{self.node_id}:2")

    def flood(self, engine, target: str, target_obm: str, target_pk) -> None:
        """One unauthorized transaction toward ``target``'s key."""
        self.shots += 1
        tx = build_transaction(
            ZERO_DIGEST, digest(f"{self.node_id}:flood:{self.shots}".encode()),
            PayloadTag.GENERIC, self.keypair, recipient_pk=target_pk)
        engine.trace.emit(engine.now, self.node_id, "attack_tx",
                          t_id=tx.t_id_hex, target=target, target_obm=target_obm)
        self.submit(engine, tx)

    def forge_publish(self, engine, ecu: str, version: str, oem_pk) -> None:
        blob = build_sw_binary(ecu, version, f"{self.node_id}:{version}".encode())
        tx = build_transaction(ZERO_DIGEST, digest(blob), PayloadTag.SW_UPDATE, self.keypair,
                               recipient_pk=oem_pk)
        engine.trace.emit(engine.now, self.node_id, "forged_publish",
                          t_id=tx.t_id_hex, version=version)
        self.submit(engine, tx)

    def forge_final(self, engine, ecu: str, version: str) -> None:
        blob = build_sw_binary(ecu, version, f"{self.node_id}:{version}".encode())
        pending = build_transaction(ZERO_DIGEST, digest(blob), PayloadTag.SW_UPDATE,
                                    self.keypair, recipient_pk=self.second_keypair.public)
        final = countersign(pending, self.second_keypair)
        engine.trace.emit(engine.now, self.node_id, "forged_final",
                          t_id=final.t_id_hex, version=version)
        self.submit(engine, final)


@dataclass
class World:
    config: ScenarioConfig
    engine: Engine
    managers: list[BlockManager]
    cloud: CloudStore
    vehicles: dict[str, Vehicle]
    oem: Optional[Oem] = None
    providers: dict[str, SwProvider] = field(default_factory=dict)
    insurer: Optional[Insurer] = None
    attacker: Optional[Attacker] = None
    traffic: Optional[TrafficDriver] = None
    driver: Optional["ScenarioDriver"] = None


class ScenarioDriver(BaseActor):
    """Owns the scenario clock: the network-wide block period, the scripted
    directives, and the end-of-run drain."""

    def __init__(self, world: World):
        super().__init__(DRIVER_ID)
        self.world = world
        self._ddos_seq = 0

    # -- block period clock ------------------------------------------------------

    def start(self, engine) -> None:
        cfg = self.world.config
        first = cfg.ledger.block_period
        if first <= cfg.duration:
            engine.schedule_at(first, self.node_id, Timer(self._period, (0,)))
        for d in cfg.script:
            engine.schedule_at(d.at, self.node_id,
                               Timer(getattr(self, f"_do_{d.action}"), (d.params,)))
        traffic = self.world.traffic  # build_world always makes one
        for phase in cfg.traffic:
            engine.schedule_at(phase.start, traffic.node_id,
                               Timer(traffic._round, (phase,)))

    def _period(self, engine, index: int) -> None:
        managers = self.world.managers
        ids = [m.node_id for m in managers]
        turn = schedule_block_turn(index, ids)
        for m in managers:
            m.tick(engine, index, turn)
        turn_manager = next(m for m in managers if m.node_id == turn)
        next_at = engine.now + turn_manager.throughput.block_period
        if next_at <= self.world.config.duration:
            engine.schedule_at(next_at, self.node_id, Timer(self._period, (index + 1,)))

    # -- scripted directives -------------------------------------------------------

    def _do_publish_update(self, engine, params: dict) -> None:
        provider = self.world.providers[params["provider"]]
        body = params["body"]
        provider.publish_update(engine, params["ecu"], params["version"],
                                None if body is None else body.encode())

    def _do_tamper_cloud_object(self, engine, params: dict) -> None:
        object_id = params["object"]
        if object_id is None:
            version = params["version"]
            for provider in self.world.providers.values():
                for ver, oid, _ in provider.published:
                    if ver == version:
                        object_id = oid
        blob = self.world.cloud.objects.get(object_id) if object_id else None
        if blob is None:
            engine.trace.emit(engine.now, self.node_id, "tamper_failed",
                              object=object_id or "?")
            return
        self.world.cloud.objects[object_id] = bytes([blob[0] ^ 0x01]) + blob[1:]
        engine.trace.emit(engine.now, self.node_id, "cloud_tampered",
                          object=object_id)

    def _do_start_ddos(self, engine, params: dict) -> None:
        world = self.world
        target = world.vehicles[params["target"]]
        target_pk = target.keys.current.public
        target_obm = target.obm_id
        # attackers flood from other clusters toward the target's manager
        homes = [m.node_id for m in world.managers if m.node_id != target_obm] \
            or [target_obm]
        for i in range(params["attackers"]):
            self._ddos_seq += 1
            atk = Attacker(attacker_id(self._ddos_seq), homes[i % len(homes)],
                           f"{world.config.name}:{world.config.seed}")
            engine.add_node(atk)
            if i < params["keyed_attackers"]:
                home = next(m for m in world.managers
                            if m.node_id == target_obm)
                home.upload_key_pair(engine, target.node_id, atk.keypair.public, target_pk)
            interval = params["interval"]
            for shot in range(params["tx_per_attacker"]):
                engine.schedule(shot * interval, atk.node_id, Timer(
                    atk.flood, (target.node_id, target_obm, target_pk)))

    def _do_open_account(self, engine, params: dict) -> None:
        self.world.insurer.open_account(engine, params["vehicle"], params["owner"])

    def _do_close_account(self, engine, params: dict) -> None:
        vehicle = self.world.vehicles[params["vehicle"]]
        if vehicle.insurance_account is None:
            engine.trace.emit(engine.now, self.node_id, "directive_failed",
                              action="close_account", vehicle=params["vehicle"],
                              reason="no insurance account")
            return
        self.world.insurer.close_account(engine, vehicle.insurance_account[0])

    def _do_trigger_accident(self, engine, params: dict) -> None:
        vehicle = self.world.vehicles[params["vehicle"]]
        vehicle.trigger_accident(engine, insurer_id=self.world.insurer.node_id,
                                 claim_delay=params["claim_delay"],
                                 tamper=params["tamper"])

    def _do_move_vehicle(self, engine, params: dict) -> None:
        vehicle_id = params["vehicle"]
        for obm, delay in params["links"].items():
            engine.links.set_link(vehicle_id, obm, delay)
        engine.trace.emit(engine.now, self.node_id, "vehicle_moved",
                          vehicle=vehicle_id, links=params["links"])

    def _do_impersonate_provider(self, engine, params: dict) -> None:
        self.world.attacker.forge_publish(engine, params["ecu"], params["version"],
                                          self.world.oem.keypair.public)

    def _do_impersonate_oem(self, engine, params: dict) -> None:
        self.world.attacker.forge_final(engine, params["ecu"], params["version"])

    # -- end of run -----------------------------------------------------------------

    def finalize(self, engine) -> None:
        """Drain pools into final blocks, then emit per-manager summaries and
        the cross-manager consistency verdict."""
        managers = self.world.managers
        for m in managers:
            m.expire_waiting(engine, expire_all=True)
        while any(m.pool for m in managers):
            progressed = False
            for m in managers:
                if m.pool and m.flush_turn(engine):
                    progressed = True
                engine.run()
            if not progressed:
                break
        # one summary per distinct chain: the same Block objects in the same order
        summaries: dict[tuple[int, ...], tuple[str, int]] = {}
        chains = {}
        for m in managers:
            blocks = tuple(map(id, m.chain.blocks))
            if blocks not in summaries:
                summaries[blocks] = chain_summary(m.chain)
            # equal digests mean equal bytes of every field the audit reads
            chains[m.emit_summary(engine, summaries[blocks])] = m.chain
        all_valid = all(verify_chain(chain) for chain in chains.values())
        engine.trace.emit(engine.now, self.node_id, "scenario_end",
                          chains_equal=len(chains) == 1, all_valid=all_valid,
                          heights={m.node_id: m.chain.height for m in managers})


# -- construction ------------------------------------------------------------------


def build_world(config: ScenarioConfig) -> World:
    seed = f"{config.name}:{config.seed}"
    links = LinkModel(default_delay=config.network.default_delay,
                      jitter=config.network.jitter)
    for a, b, delay in config.network.links:
        links.set_link(a, b, delay)
    engine = Engine(seed=seed, links=links)

    ca = generate_keypair(f"{seed}:ca")
    floor = config.network.period_floor
    managers = [BlockManager(node_id, generate_keypair(f"{seed}:key:{node_id}"),
                             config.ledger, ca_pk=ca.public, period_floor=floor)
                for node_id in config.manager_ids]
    for manager in managers:
        engine.add_node(manager)
        manager.peers = [m.node_id for m in managers if m is not manager]
        for other in managers:
            manager.manager_names[other.keypair.public] = other.node_id

    cloud = CloudStore(retain_closed_objects=config.retain_closed_objects)
    engine.add_node(cloud)
    by_id = {m.node_id: m for m in managers}

    world = World(config=config, engine=engine, managers=managers,
                  cloud=cloud, vehicles={})

    def update_account(owner_id: str):
        """Open ``owner_id``'s cloud account for update binaries."""
        account = (f"{owner_id}-acct", generate_keypair(f"{seed}:cloud:{owner_id}"))
        cloud.create_account(account[0], account[1].public, [SW_OBJECT_PREFIX])
        return account

    oem_key = None
    if config.oem is not None:
        oem_id = config.oem.service_id
        oem_key = generate_keypair(f"{seed}:key:{oem_id}")
        cert = issue_certificate(ca, oem_id, oem_key.public)
        world.oem = Oem(oem_id, oem_key, config.oem.obm,
                        cloud_account=update_account(oem_id))
        engine.add_node(world.oem)
        by_id[config.oem.obm].add_member(oem_id, "service")
        for manager in managers:
            manager.certified[oem_key.public] = cert

    for spec in config.providers:
        pid = spec.service_id
        provider_key = generate_keypair(f"{seed}:key:{pid}")
        provider = SwProvider(pid, provider_key, spec.obm,
                              cloud_account=update_account(pid),
                              oem_pk=oem_key.public)
        world.providers[pid] = provider
        engine.add_node(provider)
        by_id[spec.obm].add_member(pid, "service")
        # the update pair in both directions: the manufacturer sees pendings
        # and finals; the provider sees the recomputed final for chaining
        by_id[config.oem.obm].upload_key_pair(
            engine, config.oem.service_id, provider_key.public, oem_key.public)
        by_id[spec.obm].upload_key_pair(engine, pid, oem_key.public, provider_key.public)

    if config.insurer is not None:
        iid = config.insurer.service_id
        world.insurer = Insurer(iid, generate_keypair(f"{seed}:key:{iid}"),
                                config.insurer.obm)
        engine.add_node(world.insurer)
        by_id[config.insurer.obm].add_member(iid, "service")

    if config.attacker is not None:
        world.attacker = Attacker(config.attacker.service_id,
                                  config.attacker.obm, seed)
        engine.add_node(world.attacker)

    for spec in config.vehicles:
        vid = spec.vehicle_id
        vehicle = Vehicle(
            spec, KeyRing(f"{seed}:key:{vid}", rotate_per_interaction=spec.rotate_keys),
            oem_pk=oem_key.public if oem_key else None,
            # the account only downloads the OEM's updates
            cloud_account=update_account(vid) if oem_key else None)
        world.vehicles[vid] = vehicle
        engine.add_node(vehicle)
        by_id[spec.obm].add_member(vid, "vehicle")
        vehicle.stop_at = config.duration
        vehicle.start(engine)

    pairs = [(world.vehicles[a], world.vehicles[b]) for a, b in traffic_pairs(config.traffic)]
    for a, b in pairs:
        a_pk, b_pk = a.keys.current.public, b.keys.current.public
        b.access_set.append((a_pk, b_pk))
        a.access_set.append((b_pk, a_pk))
        by_id[b.obm_id].upload_key_pair(engine, b.node_id, a_pk, b_pk)
        by_id[a.obm_id].upload_key_pair(engine, a.node_id, b_pk, a_pk)

    world.traffic = TrafficDriver(pairs)
    engine.add_node(world.traffic)
    world.driver = ScenarioDriver(world)
    engine.add_node(world.driver)
    return world


def run_scenario(config: ScenarioConfig) -> World:
    """Execute one scenario to completion; the trace is on world.engine.trace."""
    world = build_world(config)
    world.driver.start(world.engine)
    world.engine.run(max_time=config.duration)
    world.engine.run()  # settle whatever was in flight at the cutoff
    world.driver.finalize(world.engine)
    return world
