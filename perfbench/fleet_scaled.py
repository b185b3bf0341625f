"""The ``fleet_scaled`` workload: a synthetic scenario, given as the library
dict that ``overchain.config.parse_scenario`` accepts, sized to show how the
manager's pool and key-list structures behave at scale.

200 vehicles sit round-robin over 8 cluster heads and form 100 traffic pairs.
Every 10 s until t=90 each pair sends one transaction, 1,000 in all.
"""

FLEET_SCALED = {
    "name": "fleet_scaled",
    "description": "200 vehicles over 8 managers; offered load above the "
                   "network's commit rate so pools and key lists grow.",
    "seed": 7,
    "duration": 100.0,
    "network": {"managers": 8, "default_delay": 5.0},
    "ledger": {
        # One block of 20 per 12 s period commits ~1.7 tx/s network-wide,
        # while the traffic offers 10 tx/s. The overload is deliberate: it
        # grows every manager's pool to hundreds of entries, which is where
        # the O(pool) rebuilds and O(key-list) scans show.
        "block_size": 20,
        "block_period": 12.0,
        # Throughput adaptation would otherwise shrink the period below the
        # 5 s manager-to-manager link delay; the next generator would then
        # take its turn before the previous block arrives and the chains
        # would fork (a known defect, not what this workload measures).
        "period_min": 12.0,
    },
    "actors": {"vehicles": {"count": 200, "template": {"obm": "round_robin"}}},
    "traffic": {"phases": [
        {"start": 0.0, "stop": 90.0, "pairs": 100, "interval": 10.0},
    ]},
    "expectations": [
        {"metric": "traffic.sent", "op": "eq", "value": 1000},
        {"metric": "traffic.success", "op": "eq", "value": 1.0},
        {"metric": "blocks.rejected", "op": "eq", "value": 0},
        {"metric": "chain.equal", "op": "eq", "value": 1},
        {"metric": "chain.all_valid", "op": "eq", "value": 1},
        {"metric": "chain.residual_pool_max", "op": "eq", "value": 0},
    ],
}
