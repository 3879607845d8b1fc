"""The line-delimited JSON protocol, in memory and over the real CLI.

The in-memory tests compose a :class:`LineServer` with list-backed
streams — no sockets, no subprocesses — so every reply is assertable
deterministically.  One smoke test then drives the actual ``repro
serve`` entry point over stdin to pin the CLI wiring.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.serialization import model_to_dict
from repro.export.jsonsafe import dumps as strict_dumps
from repro.service import ServiceConfig, SolveRequest, SolveService, model_digest
from repro.service.protocol import (
    LineServer,
    ProtocolError,
    request_from_payload,
    value_to_payload,
)
from tests.conftest import build_toy_builder
from tests.service.conftest import oracle_value

pytestmark = pytest.mark.service

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def model():
    return build_toy_builder().build()


def serve_lines(lines, config=None):
    """Feed ``lines`` to a fresh service's LineServer; return the replies."""

    async def scenario():
        service = SolveService(config or ServiceConfig(workers=2))
        await service.start()
        replies: list[str] = []
        pending = iter(list(lines))

        async def readline():
            return next(pending, None)

        async def writeline(line):
            replies.append(line)

        try:
            await LineServer(service).serve(readline, writeline)
        finally:
            await service.aclose()
        return [json.loads(reply) for reply in replies]

    return asyncio.run(scenario())


def submit_line(msg_id, request_payload):
    return json.dumps({"op": "submit", "id": msg_id, "request": request_payload})


def by_id(replies, msg_id):
    return [r for r in replies if r.get("id") == msg_id]


class TestRequestFromPayload:
    def test_round_trips_a_full_payload(self, model):
        request = request_from_payload(
            {
                "tenant": "t0",
                "kind": "sweep",
                "model": model_to_dict(model),
                "fractions": [0.25, 0.5],
                "weights": {"coverage": 1.0, "redundancy": 0.0, "richness": 0.0},
                "job_id": "j1",
            }
        )
        assert request.kind.value == "sweep"
        assert request.fractions == (0.25, 0.5)
        assert request.weights.coverage == 1.0
        assert model_digest(request.model) == model_digest(model)

    def test_unknown_fields_are_rejected(self):
        with pytest.raises(ProtocolError, match="unknown request fields"):
            request_from_payload({"tenant": "t", "kind": "sweep", "model_ref": "x", "frac": 1})

    def test_non_object_payload_is_rejected(self):
        with pytest.raises(ProtocolError, match="must be an object"):
            request_from_payload(["not", "a", "dict"])


class TestLineServer:
    def test_publish_then_submit_by_ref(self, model):
        digest = model_digest(model)
        replies = serve_lines(
            [
                json.dumps({"op": "publish", "id": "p1", "model": model_to_dict(model)}),
                submit_line(
                    "s1",
                    {
                        "tenant": "t0",
                        "kind": "max-utility",
                        "model_ref": digest,
                        "budget_fraction": 0.5,
                        "job_id": "j1",
                    },
                ),
            ]
        )
        (published,) = by_id(replies, "p1")
        assert published["ok"] is True
        assert published["model_ref"] == digest
        ack, result = by_id(replies, "s1")
        assert ack == {"id": "s1", "ok": True, "status": "pending"}
        assert result["ok"] is True
        assert result["result"]["status"] == "succeeded"
        request = SolveRequest(
            tenant="t0", kind="max-utility", model=model, budget_fraction=0.5
        )
        assert result["result"]["value"] == value_to_payload(oracle_value(model, request))

    def test_identical_submits_serialize_byte_identically(self, model):
        payload = {
            "tenant": "t0",
            "kind": "max-utility",
            "model": model_to_dict(model),
            "budget_fraction": 0.5,
        }
        replies = serve_lines([submit_line("a", payload), submit_line("b", payload)])
        values = [
            strict_dumps(r["result"]["value"], sort_keys=True)
            for r in replies
            if "result" in r
        ]
        assert len(values) == 2
        assert values[0] == values[1]

    def test_bad_json_answers_instead_of_killing_the_stream(self, model):
        replies = serve_lines(
            [
                "{this is not json",
                json.dumps({"op": "stats", "id": "t1"}),
            ]
        )
        assert replies[0]["ok"] is False
        assert replies[0]["error"]["type"] == "ProtocolError"
        (stats,) = by_id(replies, "t1")
        assert stats["ok"] is True  # the stream survived the bad line

    def test_unknown_op_and_unknown_ref_are_typed_errors(self):
        replies = serve_lines(
            [
                json.dumps({"op": "renegotiate", "id": "x1"}),
                submit_line(
                    "x2",
                    {
                        "tenant": "t0",
                        "kind": "max-utility",
                        "model_ref": "feedbeef",
                        "budget_fraction": 0.5,
                    },
                ),
            ]
        )
        (unknown_op,) = by_id(replies, "x1")
        assert unknown_op["ok"] is False
        assert "unknown op" in unknown_op["error"]["message"]
        (unknown_ref,) = by_id(replies, "x2")
        assert unknown_ref["ok"] is False
        assert unknown_ref["error"]["type"] == "RequestValidationError"
        assert unknown_ref["error"]["problems"]

    def test_invalid_request_lists_problems(self, model):
        replies = serve_lines(
            [submit_line("v1", {"tenant": "", "kind": "sweep", "model": model_to_dict(model)})]
        )
        (reply,) = by_id(replies, "v1")
        assert reply["ok"] is False
        assert len(reply["error"]["problems"]) >= 2

    @pytest.mark.parametrize("backend", ["parallel-bb", "enumeration"])
    def test_non_backend_names_get_a_typed_error(self, model, backend):
        request = {
            "tenant": "t0",
            "kind": "max-utility",
            "model": model_to_dict(model),
            "budget_fraction": 0.5,
            "backend": backend,
        }
        (reply,) = by_id(serve_lines([submit_line("b1", request)]), "b1")
        assert reply["ok"] is False
        assert reply["error"]["type"] == "RequestValidationError"
        assert any("unknown backend" in p for p in reply["error"]["problems"])

    def test_cancel_unknown_target_is_an_error(self):
        replies = serve_lines([json.dumps({"op": "cancel", "id": "c1", "target": "nope"})])
        (reply,) = by_id(replies, "c1")
        assert reply["ok"] is False
        assert "unknown submit id" in reply["error"]["message"]

    def test_cancel_known_target_replies_with_verdict(self, model):
        payload = {
            "tenant": "t0",
            "kind": "max-utility",
            "model": model_to_dict(model),
            "budget_fraction": 0.5,
        }
        replies = serve_lines(
            [
                submit_line("s1", payload),
                json.dumps({"op": "cancel", "id": "c1", "target": "s1"}),
            ]
        )
        (cancel,) = by_id(replies, "c1")
        assert cancel["ok"] is True
        assert isinstance(cancel["cancelled"], bool)
        # Whether or not the cancel won the race, s1 reached a terminal
        # state and its result line was delivered.
        ack, result = by_id(replies, "s1")
        assert result["result"]["status"] in ("succeeded", "cancelled")

    def test_stats_reply_shape(self):
        replies = serve_lines([json.dumps({"op": "stats", "id": "t1"})])
        (reply,) = by_id(replies, "t1")
        assert reply["ok"] is True
        stats = reply["stats"]
        assert {"pending", "workers", "sessions", "results"} <= set(stats)


class TestServeCli:
    def test_stdin_smoke(self, model):
        digest = model_digest(model)
        lines = [
            json.dumps({"op": "publish", "id": "p1", "model": model_to_dict(model)}),
            submit_line(
                "s1",
                {
                    "tenant": "t0",
                    "kind": "max-utility",
                    "model_ref": digest,
                    "budget_fraction": 0.5,
                    "job_id": "cli-smoke",
                },
            ),
            json.dumps({"op": "stats", "id": "t1"}),
        ]
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--workers", "1"],
            input="\n".join(lines) + "\n",
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO_ROOT,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        replies = [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]
        assert by_id(replies, "p1")[0]["model_ref"] == digest
        ack, result = by_id(replies, "s1")
        assert ack["ok"] is True
        assert result["result"]["status"] == "succeeded"
        assert result["result"]["job_id"] == "cli-smoke"
        assert by_id(replies, "t1")[0]["ok"] is True

    def test_c_level_writes_to_stdout_do_not_reach_the_reply_stream(self, model):
        # HiGHS prints from C straight to file descriptor 1; a job that
        # does the same must not put a non-reply line on stdout.
        digest = model_digest(model)
        lines = [
            json.dumps({"op": "publish", "id": "p1", "model": model_to_dict(model)}),
            submit_line(
                "s1",
                {"tenant": "t0", "kind": "max-utility", "model_ref": digest, "budget_fraction": 0.5},
            ),
            json.dumps({"op": "stats", "id": "t1"}),
        ]
        script = (
            "import os, sys\n"
            "from repro.service.service import SolveService\n"
            "run_job = SolveService._run_job\n"
            "def noisy(self, *args):\n"
            "    os.write(1, b'noise\\n')\n"
            "    return run_job(self, *args)\n"
            "SolveService._run_job = noisy\n"
            "from repro.cli import main\n"
            "sys.exit(main(['serve', '--workers', '1']))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            input="\n".join(lines) + "\n",
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO_ROOT,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "noise" in proc.stderr
        replies = [json.loads(line) for line in proc.stdout.splitlines()]
        assert all("id" in reply for reply in replies)
        ack, result = by_id(replies, "s1")
        assert result["result"]["status"] == "succeeded"
