"""§2.4/§4 validation: the emulated hierarchy answers correctly.

Three checks, each central to a paper claim:

1. **Correctness** — for the unique queries of a Rec-17-like trace, a
   recursive resolver backed by the meta-DNS-server + proxies returns
   the *same* rcodes and answer sections as one backed by independent
   per-zone servers (the naive testbed).
2. **Efficiency** — the emulation uses one authoritative host where the
   naive deployment needs one per nameserver address.
3. **Repeatability** — §2.1: re-running the same replay against the
   rebuilt zones yields identical responses.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..dns import DNS_PORT, Message
from ..hierarchy import HierarchyEmulation, SimulatedInternet
from ..netsim import EventLoop, Network
from ..server import HostedDnsServer, RecursiveResolver
from ..trace import RecursiveWorkload, make_hierarchy_zones
from ..zonegen import unique_questions
from .common import ExperimentOutput, Scale, SMOKE

STUB_ADDRESS = "10.99.0.1"

AnswerKey = Tuple[str, Tuple]


def _collect_answers(kind: str, zones, questions) -> Tuple[Dict, int]:
    """Resolve every question; returns answers and the host count."""
    loop = EventLoop()
    network = Network(loop)
    if kind == "naive":
        internet = SimulatedInternet(network, zones)
        recursive_host = network.add_host("recursive", "10.99.0.53")
        resolver = RecursiveResolver(recursive_host, internet.root_hints())
        HostedDnsServer(recursive_host, resolver)
        recursive_address = "10.99.0.53"
        auth_hosts = internet.server_count()
    else:
        emulation = HierarchyEmulation(network, zones)
        recursive_address = emulation.recursive_address
        auth_hosts = 1

    stub = network.add_host("stub", STUB_ADDRESS)
    answers: Dict = {}

    def make_callback(key):
        def callback(_sock, data, _addr, _port):
            message = Message.from_wire(data)
            answers[key] = (
                message.rcode.name,
                tuple(sorted((str(rr.name), rr.rrtype.name,
                              rr.rdata.to_text())
                             for rr in message.answer)))
        return callback

    for index, (qname, qtype) in enumerate(questions):
        socket = stub.bind_udp(STUB_ADDRESS, 0,
                               make_callback((qname, qtype)))
        query = Message.make_query(qname, qtype, msg_id=index + 1)
        socket.sendto(query.to_wire(), recursive_address, DNS_PORT)
    loop.run(max_time=180)
    return answers, auth_hosts


def run(scale: Scale = SMOKE, max_questions: int = 60) -> ExperimentOutput:
    output = ExperimentOutput(
        experiment_id="hierarchy",
        title="Meta-DNS-server emulation vs independent servers",
        headers=["check", "result", "detail"],
        paper_claims={
            "claim": "a single server instance correctly emulates "
                     "multiple independent levels of the DNS hierarchy "
                     "while providing correct responses as if they were "
                     "independent (§2.4)",
        })

    zones = make_hierarchy_zones(4, 6)
    trace = RecursiveWorkload(
        duration=min(scale.duration, 60),
        total_queries=max(200, int(scale.rate)), zones=zones).generate()
    questions = unique_questions(trace)[:max_questions]

    naive_answers, naive_hosts = _collect_answers("naive", zones, questions)
    emu_answers, emu_hosts = _collect_answers("emu", zones, questions)

    matched = sum(1 for key in questions
                  if naive_answers.get(key) == emu_answers.get(key)
                  and key in naive_answers)
    output.add_row("answer equivalence", f"{matched}/{len(questions)}",
                   "rcode+answer sections identical across deployments")

    output.add_row("deployment cost", f"{naive_hosts} -> {emu_hosts} hosts",
                   "authoritative hosts: naive vs meta-server emulation")

    emu_again, _hosts = _collect_answers("emu", zones, questions)
    repeat = sum(1 for key in questions
                 if emu_answers.get(key) == emu_again.get(key)
                 and key in emu_answers)
    output.add_row("repeatability", f"{repeat}/{len(questions)}",
                   "identical responses across repeated replays (§2.1)")
    return output
