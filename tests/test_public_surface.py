"""Static guard on the package's surface: no test-only code, and the
layering DESIGN.md states.

Five ``ast`` walks over ``src/repro``, with no import of the package:

* a public top-level ``def`` or ``class`` must be referenced by name
  from ``src/``, ``bench/`` or ``examples/``, other than by its own
  definition and by package ``__init__`` re-exports;
* so must a public method or property of a public class, other than by
  its own definition;
* a field of a ``*Config``, ``*Options`` or ``*Policy`` dataclass (or of
  ``TimerJitterModel``) must be set somewhere outside its defining
  module, by keyword, by position in a call to the class, or by
  attribute assignment (``tests/`` count here: a knob a test turns is
  a knob);
* an import must be used by the module that makes it, or be imported
  from that module by another;
* each package imports only what DESIGN.md § Layering's table lets
  it, and no module takes a wire parser from ``repro.telemetry``.

Names are matched as bare identifiers, so a reference through any
alias or attribute chain counts; the walks can miss dead code that
shares a name with live code, never flag live code.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
CALLERS = [ROOT / "src", ROOT / "bench", ROOT / "examples"]
SETTERS = CALLERS + [ROOT / "tests", ROOT / "acceptance"]

#: Public definitions only tests reach, each kept for a stated reason.
#: An entry that gains a caller, or goes away, must leave this list.
KEPT_DEFINITIONS = {
    # the reference TestSamplerAgreesWithResourceMonitor holds the
    # production TimeSeriesSampler to
    "repro.netsim.resources.ResourceMonitor",
    # the reference the shard differential compares shard files against
    "repro.replay.multiproc.shard_slice",
    # Fig 13a's per-second memory/connection series
    "repro.experiments.fig13_14_footprint.run_timeseries",
    # Fig 15c's per-client load CDF and the points it is drawn from
    "repro.trace.stats.client_load_cdf",
    "repro.trace.stats.cdf_points",
    # fixture constructors: moving them into tests/ removes nothing
    "repro.trace.record.make_query_record",
    "repro.trace.binfmt.read_binary",
    "repro.trace.binfmt.write_binary",
    "repro.trace.pcap.read_pcap",
    "repro.trace.pcap.write_pcap",
    "repro.trace.textfmt.read_text",
    "repro.trace.synthetic.zipf_trace",
    # the integrity check test_dnssec holds make_rrsig's output to
    "repro.dns.dnssec.verify_rrsig",
    # the differential harness four test files compare subsystems with,
    # and its message-id normalizer
    "repro.verify.oracles.Oracle",
    "repro.verify.oracles.zero_msg_id",
    # the only simulated path that uses more than one core:
    # acceptance/test_sharded_replay.py and test_self_healing's shard
    # respawn run it, and a sim-sharded benchmark workload would call it
    "repro.replay.multiproc.ShardTopology",
    # tested capabilities; deleting a capability is a change of its own:
    # dynamic CDN-style answers (test_server_dynamic.py),
    "repro.server.dynamic.DynamicOverlay",
    # and the trace mutations of §2.4 (test_trace_mutator.py)
    "repro.trace.mutator.prepend_unique",
    "repro.trace.mutator.sample_clients",
    "repro.trace.mutator.scale_time",
    "repro.trace.mutator.shift_time",
}

#: Public methods only tests reach, each with the reason it stays.  An
#: entry that gains a caller, or goes away, must leave this dict.
KEPT_METHODS = {
    # instruments a test reads state through
    "repro.netsim.core.EventLoop.heap_size":
        "cancelled timers are compacted out of the heap",
    "repro.netsim.packet.IpPacket.checksum_ok":
        "a corrupted datagram fails its checksum",
    "repro.netsim.tcp.TcpStack.count_by_state":
        "connections leave TIME_WAIT and the table empties",
    "repro.netsim.tcp.TcpStack.buffer_memory_bytes":
        "the per-connection buffer footprint Fig 13 models",
    "repro.replay.distributor.StickyAssigner.assignment_count":
        "the number of sources the assigner holds",
    "repro.server.dnsio.StreamFramer.pending_bytes":
        "a frame fed in two pieces leaves nothing buffered",
    "repro.server.overload.ResponseRateLimiter.table_size":
        "the RRL table stays within its bound",
    "repro.telemetry.metrics.MetricsRegistry.gauge":
        "the registry's gauge values, as counts are read by count()",
    "repro.telemetry.tracing.QueryTracer.events_for":
        "one query's span events, in order",
    "repro.telemetry.cluster.ClusterAggregator.merged_metrics":
        "streamed metrics equal the end-of-run METRICS",
    "repro.replay.result.ReplayResult.latency_summary":
        "the one reading of an aggregate result's latency histogram",
    "repro.replay.result.ReplayResult.degradation":
        "the overload counters, compared whole by the supervision and "
        "telemetry differentials",
    # the figure an acceptance check reads
    "repro.replay.result.ReplayResult.reuse_fraction":
        "acceptance/test_ablations.py's connection-reuse share",
    # a safety self-check
    "repro.server.overload.OverloadControl.check_conservation":
        "publishes the conservation gauge and fails on drift",
    # the paper's rule, stated as §2.6 writes it
    "repro.replay.timing.TimingController.send_delay":
        "ΔT = Δt̄ − Δt with late queries sent at once, the rule "
        "target_clock_time schedules by",
    "repro.replay.timing.TimingController.synchronized":
        "send_delay refuses to run before the time sync",
    # the fixture knobs tests build topologies with
    "repro.netsim.network.LatencyModel.set_rtt":
        "per-link RTTs in the TCP, TLS, loss and fault suites",
    "repro.netsim.core.EventLoop.call_soon":
        "a zero-delay schedule the hosting and loop suites script",
}


def _modules():
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        yield ".".join(parts), path, ast.parse(path.read_text(), str(path))


def _files(roots):
    for root in roots:
        yield from sorted(root.rglob("*.py"))


def _names_used(tree: ast.AST, imports: bool = True) -> set[str]:
    """Every identifier ``tree`` reads, including in string constants
    (annotations, ``__all__``); ``imports`` counts imported names too."""
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias) and imports:
            used.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                used |= _names_used(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
    return used


def _absolute(node: ast.ImportFrom, path: Path) -> str:
    """The module an ``ImportFrom`` in ``path`` names, made absolute."""
    if not node.level:
        return node.module or ""
    base = PACKAGE.parent if PACKAGE in path.parents else ROOT
    package = list(path.relative_to(base).parent.parts)
    package = package[:len(package) - node.level + 1]
    return ".".join(package + ([node.module] if node.module else []))


def _caller_uses() -> dict[Path, set[str]]:
    """The identifiers each caller file reads, package re-exports aside."""
    uses: dict[Path, set[str]] = {}
    for path in _files(CALLERS):
        if path.name == "__init__.py" and PACKAGE in path.parents:
            continue
        uses[path] = _names_used(ast.parse(path.read_text(), str(path)))
    return uses


def test_every_public_definition_has_a_caller_outside_tests():
    uses = _caller_uses()
    orphans = set()
    for module, path, tree in _modules():
        if path.name == "__init__.py":
            continue
        statements = [(node, _names_used(node)) for node in tree.body]
        for node, _ in statements:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            if any(node.name in names for other, names in statements
                   if other is not node):
                continue     # used elsewhere in its own module
            if any(node.name in names for other, names in uses.items()
                   if other != path):
                continue
            orphans.add(f"{module}.{node.name}")
    test_only = sorted(orphans - KEPT_DEFINITIONS)
    assert not test_only, f"public definitions only tests reach: {test_only}"
    stale = sorted(KEPT_DEFINITIONS - orphans)
    assert not stale, f"allowlisted, but now called or gone: {stale}"


def test_every_public_method_has_a_caller_outside_tests():
    uses = _caller_uses()
    orphans = set()
    for module, path, tree in _modules():
        if path.name == "__init__.py":
            continue
        statements = [(node, _names_used(node)) for node in tree.body]
        for cls, _ in statements:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            home = set().union(*(names for other, names in statements
                                 if other is not cls),
                               *(_names_used(node) for node
                                 in cls.decorator_list + cls.bases))
            members = [(node, _names_used(node)) for node in cls.body]
            for method, _ in members:
                if not isinstance(method, ast.FunctionDef) \
                        or method.name.startswith("_"):
                    continue
                if method.name in home or any(
                        method.name in names for other, names in members
                        if other is not method):
                    continue     # used elsewhere in its own module
                if any(method.name in names for other, names in uses.items()
                       if other != path):
                    continue
                orphans.add(f"{module}.{cls.name}.{method.name}")
    test_only = sorted(orphans - set(KEPT_METHODS))
    assert not test_only, f"public methods only tests reach: {test_only}"
    stale = sorted(set(KEPT_METHODS) - orphans)
    assert not stale, f"allowlisted, but now called or gone: {stale}"
    assert all(KEPT_METHODS.values()), "every kept method needs a reason"


def _derived(value) -> bool:
    """Whether a field's default is ``field(init=False, ...)``."""
    return (isinstance(value, ast.Call)
            and getattr(value.func, "id", None) == "field"
            and any(kw.arg == "init" and isinstance(kw.value, ast.Constant)
                    and kw.value.value is False for kw in value.keywords))


def _config_classes():
    for module, path, tree in _modules():
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            if not (node.name.endswith(("Config", "Options", "Policy"))
                    or node.name == "TimerJitterModel"):
                continue
            if not any("dataclass" in ast.unparse(d)
                       for d in node.decorator_list):
                continue
            fields = [s.target.id for s in node.body
                      if isinstance(s, ast.AnnAssign)
                      and isinstance(s.target, ast.Name)
                      and "ClassVar" not in ast.unparse(s.annotation)
                      and not _derived(s.value)]
            yield module, path, node.name, fields


def _fields_set(classes) -> set[tuple[str, str]]:
    by_name = {cls: fields for _, _, cls, fields in classes}
    home = {cls: path for _, path, cls, _ in classes}
    keywords: dict[str, set[Path]] = {}
    positional: set[tuple[str, str]] = set()
    for path in _files(SETTERS):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                for kw in node.keywords:
                    if kw.arg:
                        keywords.setdefault(kw.arg, set()).add(path)
                callee = node.func
                name = getattr(callee, "id", getattr(callee, "attr", None))
                if name in by_name and path != home[name]:
                    for field in by_name[name][:len(node.args)]:
                        positional.add((name, field))
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if isinstance(target, ast.Attribute):
                        keywords.setdefault(target.attr, set()).add(path)
    settable = set(positional)
    for _, path, cls, fields in classes:
        for field in fields:
            if keywords.get(field, set()) - {path}:
                settable.add((cls, field))
    return settable


def test_every_config_field_is_set_somewhere():
    classes = list(_config_classes())
    settable = _fields_set(classes)
    unset = [f"{cls}.{field}" for _, _, cls, fields in classes
             for field in fields
             if (cls, field) not in settable]
    assert unset == [], f"config fields nothing sets: {unset}"


def test_every_import_is_used():
    imported_from: dict[str, set[str]] = {}
    for path in _files(SETTERS):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                imported_from.setdefault(_absolute(node, path), set()).update(
                    alias.name for alias in node.names)
    unused = []
    for module, path, tree in _modules():
        if path.name == "__init__.py":
            continue
        read = _names_used(tree, imports=False)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for alias in node.names:
                bound = (alias.asname or alias.name).split(".")[0]
                if bound not in read \
                        and bound not in imported_from.get(module, ()):
                    unused.append(f"{module}: {bound}")
    assert unused == [], f"unused imports: {unused}"


def _imported(tree: ast.AST, path: Path):
    """``(module, names)`` for every import in ``tree``, made absolute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield _absolute(node, path), [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, []


def _within(module: str, *packages: str) -> bool:
    return any(module == package or module.startswith(package + ".")
               for package in packages)


def _layering_table() -> dict[str, tuple[str, ...]]:
    """DESIGN.md § Layering's table: each package and the packages it
    may import from, itself included (``experiments``: all of repro)."""
    section = (ROOT / "DESIGN.md").read_text().split("\n## Layering\n")[1]
    table = {}
    for line in section.split("\n## ")[0].splitlines():
        if not line.startswith("| `"):
            continue
        package, sources = map(str.strip, line.strip("|").split("|"))
        package = "repro." + package.strip("`")
        names = [name.strip(" `") for name in sources.split(",")]
        table[package] = ("repro",) if sources == "every package" else (
            package, *("repro." + name for name in names if name != "—"))
    return table


def test_layering():
    modules = list(_modules())
    # A wire parser: a name the dns package defines, or one that says
    # it reads wire bytes or a question.
    dns_names = {node.name for module, _, tree in modules
                 if _within(module, "repro.dns") for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    allowed = {**_layering_table(), "repro.perf": ("repro.telemetry",)}
    assert {"repro.dns", "repro.netsim", "repro.telemetry", "repro.replay",
            "repro.experiments"} <= set(allowed)
    breaches = []
    for module, path, tree in modules:
        if module == "repro":
            continue        # the package root imports every package
        home = next((package for package in allowed
                     if _within(module, package)), None)
        if home is None:
            breaches.append(f"{module} has no row in DESIGN § Layering")
            continue
        for source, names in _imported(tree, path):
            if _within(source, "repro") \
                    and not _within(source, *allowed[home]):
                breaches.append(f"{module} imports {source}")
            if _within(source, "repro.telemetry") \
                    and not _within(module, "repro.telemetry"):
                breaches += [
                    f"{module} takes {name} from {source}" for name in names
                    if name in dns_names or "wire" in name.lower()
                    or "question" in name.lower()]
    assert breaches == [], f"layering breaches: {breaches}"
