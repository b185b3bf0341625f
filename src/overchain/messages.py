"""Payload types delivered through the simulated network, among them a
``Timer(action, args)`` that carries the method it runs, plus a small
request/response helper shared by all actors."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .ledger import Block, Transaction


@dataclass(frozen=True)
class TxMessage:
    """A transaction in flight to a block manager. ``origin_member`` is the
    submitting cluster member's id, or None when relayed by a peer manager."""

    tx: Transaction
    origin_member: Optional[str]


@dataclass(frozen=True)
class BlockMessage:
    block: Block


@dataclass(frozen=True)
class DeliverTx:
    """Manager-to-member delivery of a transaction whose key pair matched one
    of the member's access entries. For a pending multisig this doubles as the
    countersign request."""

    tx: Transaction


@dataclass(frozen=True)
class UpdateNotice:
    """Manager-to-member announcement of a fully signed software update."""

    tx: Transaction


@dataclass(frozen=True)
class Timer:
    """A local timer; on delivery its node runs ``action(engine, *args)``."""

    action: Callable
    args: tuple = ()


@dataclass(frozen=True)
class AppRequest:
    """A request; the reply carries ``then``, the sender's continuation, back."""

    sender: str
    kind: str
    data: dict
    then: Callable


@dataclass(frozen=True)
class AppResponse:
    """A reply; on delivery its node runs ``then(engine, data)``."""

    data: dict
    then: Callable


class BaseActor:
    """Shared actor behavior: request/response and dispatch.

    A ``Timer`` runs the action it carries, and an ``AppResponse`` the
    continuation its request carried. Subclasses implement ``on_request`` /
    ``on_payload`` as needed.
    """

    def __init__(self, node_id: str):
        self.node_id = node_id

    def send_request(self, engine, target: str, kind: str, data: dict,
                     then: Callable) -> None:
        engine.send(self.node_id, target, AppRequest(self.node_id, kind, data, then))

    def reply(self, engine, request: AppRequest, data: dict) -> None:
        engine.send(self.node_id, request.sender, AppResponse(data, request.then))

    def handle(self, engine, payload) -> None:
        if isinstance(payload, AppResponse):
            payload.then(engine, payload.data)
        elif isinstance(payload, AppRequest):
            self.on_request(engine, payload)
        elif isinstance(payload, Timer):
            payload.action(engine, *payload.args)
        else:
            self.on_payload(engine, payload)

    def cloud_call(self, engine, cloud_id: str, account, kind: str, data: dict,
                   then: Callable) -> None:
        """Challenge-response authentication followed by one storage
        operation; ``then`` receives the final response dict (carrying
        "error" on any failure, including the authentication steps)."""
        account_id, account_key = account

        def on_nonce(eng, resp):
            if "error" in resp:
                then(eng, resp)
                return
            nonce = resp["nonce"]
            self.send_request(eng, cloud_id, "cloud_proof",
                              {"account": account_id, "nonce": nonce,
                               "proof": account_key.sign(nonce)},
                              on_session)

        def on_session(eng, resp):
            if "error" in resp:
                then(eng, resp)
                return
            self.send_request(eng, cloud_id, kind,
                              dict(data, session=resp["session"]), then)

        self.send_request(engine, cloud_id, "cloud_auth",
                          {"account": account_id}, on_nonce)

    def on_request(self, engine, request: AppRequest) -> None:
        raise NotImplementedError(f"{self.node_id} cannot serve {request.kind!r}")

    def on_payload(self, engine, payload) -> None:
        raise NotImplementedError(f"{self.node_id} cannot handle {type(payload).__name__}")
