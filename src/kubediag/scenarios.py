"""Fault scenario corpus: templates, generation, persistence and the world graph.

Each scenario is an instance of a hand-written fault template.  Shallow
templates carry their own two-hop causal chain in the world graph; each
"masked" template is a harder rephrasing of a shallow sibling whose entry node
is a dead end, so the shared root cause is only reachable through remembered
resolution paths.  Category counts follow a fixed mix via largest-remainder
apportionment.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Sequence

from .errors import InvalidArgument, ScenarioParseError
from .files import as_string, as_strings
from .graph import Category, FAULT_CATEGORIES, GraphEdge, GraphNode, KnowledgeGraph, NodeType, Relation
from .text import tokenize

#: Share of generated scenarios per fault category, in FAULT_CATEGORIES order
#: (resource, network, scheduling, image, configuration, system).
DEFAULT_MIX: tuple[float, ...] = (0.22, 0.21, 0.16, 0.15, 0.17, 0.09)

MAX_LOG_TOKENS = 2048


@dataclass
class FaultScenario:
    id: str
    category: Category
    symptoms: list[str]
    context: set[str] = field(default_factory=set)
    logs: str = ""
    root_cause: str = ""  # ground-truth label used for auto-scoring
    resolution_steps: list[str] = field(default_factory=list)

    def validate(self) -> None:
        if not self.id:
            raise InvalidArgument("scenario id must be non-empty")
        if self.category not in FAULT_CATEGORIES:
            raise InvalidArgument(f"{self.category!r} is not a fault category")
        if not self.symptoms or any(not s.strip() for s in self.symptoms):
            raise InvalidArgument(f"scenario {self.id!r} needs non-empty symptoms")
        if not self.root_cause.strip():
            raise InvalidArgument(f"scenario {self.id!r} needs a root cause")
        if not self.resolution_steps or any(not s.strip() for s in self.resolution_steps):
            raise InvalidArgument(f"scenario {self.id!r} needs non-empty resolution steps")
        if len(tokenize(self.logs)) > MAX_LOG_TOKENS:
            raise InvalidArgument(f"scenario {self.id!r} logs exceed {MAX_LOG_TOKENS} tokens")


def apportion_largest_remainder(total: int, mix: Sequence[float]) -> list[int]:
    """Integer counts per class: floor the quotas, then hand leftover seats to
    the largest fractional remainders (ties to the earlier class).

    Quotas within 1e-9 of an integer are snapped before flooring so that
    float dust cannot shift a seat.
    """
    if total < 0:
        raise InvalidArgument("total must be >= 0")
    if not mix:
        raise InvalidArgument("mix must be non-empty")
    if not all(map(math.isfinite, mix)):
        raise InvalidArgument(f"mix weights must be finite, got {list(mix)}")
    if any(m < 0 for m in mix):
        raise InvalidArgument("mix weights must be >= 0")
    if abs(sum(mix) - 1.0) > 1e-9:
        raise InvalidArgument(f"mix weights must sum to 1, got {sum(mix)}")
    quotas = [total * m for m in mix]
    base = []
    for q in quotas:
        snapped = round(q)
        base.append(snapped if abs(q - snapped) <= 1e-9 else int(q))
    remainders = [q - b for q, b in zip(quotas, base)]
    leftover = total - sum(base)
    order = sorted(range(len(mix)), key=lambda i: (-remainders[i], i))
    counts = list(base)
    for i in order[:leftover]:
        counts[i] += 1
    return counts


# ---------------------------------------------------------------------------
# template bank


@dataclass(frozen=True)
class FaultTemplate:
    key: str
    category: Category
    primary: str                  # first symptom; doubles as the entry-node label
    secondary: str
    context: tuple[str, ...]
    logs: str
    root_cause: str
    entry_type: NodeType
    # shallow templates: (mid label, mid type, entry->mid relation, mid->rc relation, w1, w2)
    mid: tuple[str, NodeType, Relation, Relation, float, float] | None = None
    twin_of: str | None = None    # masked templates name their shallow sibling


_T = FaultTemplate
_BANK: tuple[FaultTemplate, ...] = (
    # -- resource ----------------------------------------------------------
    _T("res-oom", Category.RESOURCE,
       "pod oomkilled cache-worker restarting repeatedly",
       "container memory usage climbing before each crash",
       ("namespace:storage", "app:cache-worker"),
       "Last State: Terminated  Reason: OOMKilled  Exit Code: 137\n"
       "memory working set 512Mi, limit 256Mi",
       "memory limit below cache working set",
       NodeType.POD,
       ("repeated oomkill events recorded for cache-worker", NodeType.EVENT,
        Relation.DEPENDS_ON, Relation.CAUSES, 0.9, 0.85)),
    _T("res-oom-masked", Category.RESOURCE,
       "cache-worker latency spiking then silent restarts",
       "dashboards show sawtooth heap growth without alerts",
       ("namespace:storage", "app:cache-worker"),
       "readiness probe failed: connection reset; container age resets every ~40m",
       "memory limit below cache working set",
       NodeType.SERVICE, twin_of="res-oom"),
    _T("res-pvc", Category.RESOURCE,
       "pod stuck pending unbound pvc orders-db",
       "persistentvolumeclaim waiting for first consumer",
       ("namespace:orders", "app:orders-db"),
       "0/6 nodes are available: pod has unbound immediate PersistentVolumeClaims",
       "storage class exhausted no capacity left",
       NodeType.POD,
       ("orders-db claim pending in storage class fast-ssd", NodeType.VOLUME,
        Relation.MOUNTS, Relation.CAUSES, 0.85, 0.8)),
    _T("res-throttle", Category.RESOURCE,
       "billing-api latency high cpu throttling sustained",
       "throttled periods exceed eighty percent under load",
       ("namespace:payments", "app:billing-api"),
       "cpu.stat: nr_throttled 4812 throttled_time 9.3e11",
       "cpu limit too low for request burst",
       NodeType.CONTAINER,
       ("billing-api cfs throttling on shared node pool", NodeType.NODE,
        Relation.SCHEDULES_ON, Relation.CAUSES, 0.8, 0.85)),
    # -- network -----------------------------------------------------------
    _T("net-dns", Category.NETWORK,
       "dns lookups failing inside checkout-svc pods",
       "nxdomain resolving payment gateway hostname",
       ("namespace:commerce", "app:checkout-svc"),
       "dial udp 10.96.0.10:53: i/o timeout; nslookup: server can't find api.pay.internal",
       "coredns replicas too few for cluster query load",
       NodeType.SERVICE,
       ("coredns pods dropping queries under load", NodeType.POD,
        Relation.DEPENDS_ON, Relation.CAUSES, 0.9, 0.8)),
    _T("net-dns-masked", Category.NETWORK,
       "checkout-svc intermittent upstream timeouts worsening",
       "retries exhausted calling internal dependencies",
       ("namespace:commerce", "app:checkout-svc"),
       "upstream connect error, reset reason: connection timeout after 3 retries",
       "coredns replicas too few for cluster query load",
       NodeType.SERVICE, twin_of="net-dns"),
    _T("net-policy", Category.NETWORK,
       "connection refused frontend calling cart-svc",
       "traffic works from debug namespace only",
       ("namespace:shop", "app:cart-svc"),
       "curl: (7) Failed to connect to cart-svc port 8080: Connection refused",
       "network policy blocks ingress on cart port",
       NodeType.SERVICE,
       ("default deny network policy active in shop namespace", NodeType.NAMESPACE,
        Relation.DEPENDS_ON, Relation.CAUSES, 0.85, 0.85)),
    _T("net-ingress", Category.NETWORK,
       "ingress returning 502 for public web traffic",
       "backend pool reports zero healthy endpoints",
       ("namespace:edge", "app:web-ingress"),
       '502 Bad Gateway; ingress controller: "no endpoints available for default/web"',
       "ingress backend selector matches no pods",
       NodeType.INGRESS,
       ("web service endpoints list is empty", NodeType.SERVICE,
        Relation.EXPOSES, Relation.CAUSES, 0.9, 0.85)),
    # -- scheduling --------------------------------------------------------
    _T("sch-taint", Category.SCHEDULING,
       "training-job pods unschedulable on gpu nodes",
       "scheduler reports taint untolerated for pool",
       ("namespace:ml", "app:training-job"),
       "0/4 nodes are available: 4 node(s) had taint {nvidia.com/gpu: present}",
       "missing toleration for gpu node taint",
       NodeType.POD,
       ("gpu node pool tainted for exclusive workloads", NodeType.NODE,
        Relation.SCHEDULES_ON, Relation.CAUSES, 0.9, 0.85)),
    _T("sch-taint-masked", Category.SCHEDULING,
       "training-job queue stalled no pods starting",
       "batch submissions sit idle for hours",
       ("namespace:ml", "app:training-job"),
       "job controller: 0 succeeded, 8 pending; oldest pending 6h14m",
       "missing toleration for gpu node taint",
       NodeType.DEPLOYMENT, twin_of="sch-taint"),
    _T("sch-resources", Category.SCHEDULING,
       "reporting-batch pod pending insufficient cpu",
       "cluster autoscaler hit maximum node count",
       ("namespace:analytics", "app:reporting-batch"),
       "0/12 nodes are available: 12 Insufficient cpu; max node group size reached",
       "cluster lacks schedulable cpu for batch window",
       NodeType.POD,
       ("node pool saturated during nightly batch window", NodeType.NODE,
        Relation.SCHEDULES_ON, Relation.CAUSES, 0.85, 0.8)),
    _T("sch-affinity", Category.SCHEDULING,
       "ingest-stream replicas crowded into single zone",
       "zone outage would drop all ingest capacity",
       ("namespace:data", "app:ingest-stream"),
       "6/6 replicas on nodes in zone us-east-1a; zones b and c empty",
       "missing anti affinity rule for zone spread",
       NodeType.DEPLOYMENT,
       ("ingest-stream replicas packed by default scheduler scoring", NodeType.POD,
        Relation.MANAGES, Relation.CAUSES, 0.8, 0.85)),
    # -- image -------------------------------------------------------------
    _T("img-pull", Category.IMAGE,
       "imagepullbackoff rolling out media-encoder release",
       "registry responds unauthorized for pull secret",
       ("namespace:media", "app:media-encoder"),
       'Failed to pull image "registry.internal/media-encoder:v42": 401 Unauthorized',
       "registry credentials expired in pull secret",
       NodeType.POD,
       ("media-encoder pull secret rejected by registry", NodeType.SECRET,
        Relation.DEPENDS_ON, Relation.CAUSES, 0.9, 0.9)),
    _T("img-pull-masked", Category.IMAGE,
       "media-encoder rollout stuck at previous revision",
       "new replicaset never reaches ready state",
       ("namespace:media", "app:media-encoder"),
       "deployment exceeded its progress deadline; replicaset v42: 0/3 ready",
       "registry credentials expired in pull secret",
       NodeType.DEPLOYMENT, twin_of="img-pull"),
    _T("img-rate", Category.IMAGE,
       "errimagepull nightly jobs hitting public registry",
       "toomanyrequests pull rate limit reached",
       ("namespace:ci", "app:nightly-jobs"),
       "toomanyrequests: You have reached your pull rate limit",
       "anonymous registry pulls exceed rate limit",
       NodeType.POD,
       ("nightly jobs pull unauthenticated from docker hub", NodeType.EVENT,
        Relation.DEPENDS_ON, Relation.CAUSES, 0.85, 0.85)),
    _T("img-arch", Category.IMAGE,
       "exec format error starting edge-agent container",
       "binary built for wrong machine architecture",
       ("namespace:iot", "app:edge-agent"),
       "standard_init_linux.go:228: exec user process caused: exec format error",
       "image manifest missing arm64 build",
       NodeType.CONTAINER,
       ("edge-agent image manifest lacks arm64 layer", NodeType.EVENT,
        Relation.DEPENDS_ON, Relation.CAUSES, 0.85, 0.9)),
    # -- configuration -----------------------------------------------------
    _T("cfg-secret", Category.CONFIGURATION,
       "createcontainerconfigerror auth-proxy missing secret",
       "secret reference not found at pod start",
       ("namespace:security", "app:auth-proxy"),
       'Error: secret "auth-proxy-tls" not found',
       "secret name mismatch in deployment spec",
       NodeType.POD,
       ("auth-proxy deployment references renamed tls secret", NodeType.SECRET,
        Relation.DEPENDS_ON, Relation.CAUSES, 0.9, 0.85)),
    _T("cfg-secret-masked", Category.CONFIGURATION,
       "auth-proxy pods flapping after helm upgrade",
       "rollout loops between creating and error states",
       ("namespace:security", "app:auth-proxy"),
       "back-off 5m0s restarting failed container; last upgrade 22m ago",
       "secret name mismatch in deployment spec",
       NodeType.DEPLOYMENT, twin_of="cfg-secret"),
    _T("cfg-rbac", Category.CONFIGURATION,
       "operator forbidden listing custom resources",
       "rbac denies watch on crd group",
       ("namespace:platform", "app:backup-operator"),
       'cannot list resource "backups" in API group "ops.io": RBAC: access denied',
       "rbac role missing watch verb for operator",
       NodeType.POD,
       ("backup-operator service account bound to stale role", NodeType.CONFIG_MAP,
        Relation.CONFIGURES, Relation.CAUSES, 0.85, 0.85)),
    _T("cfg-env", Category.CONFIGURATION,
       "notifications-app crashloop parsing environment variable",
       "startup fails reading renamed config key",
       ("namespace:messaging", "app:notifications-app"),
       'panic: required env SMTP_RELAY_URL is empty; configmap key "smtp_url" unused',
       "configmap key renamed but deployment not updated",
       NodeType.CONTAINER,
       ("notifications configmap drifted from deployment env mapping", NodeType.CONFIG_MAP,
        Relation.CONFIGURES, Relation.CAUSES, 0.85, 0.8)),
    # -- system ------------------------------------------------------------
    _T("sys-kubelet", Category.SYSTEM,
       "node worker-7 notready kubelet heartbeats missing",
       "api server marks node unreachable repeatedly",
       ("cluster:prod-east", "node:worker-7"),
       "Kubelet stopped posting node status; last heartbeat 9m ago",
       "kubelet client certificate expired on node",
       NodeType.NODE,
       ("worker-7 kubelet tls handshake failing", NodeType.EVENT,
        Relation.DEPENDS_ON, Relation.CAUSES, 0.9, 0.9)),
    _T("sys-kubelet-masked", Category.SYSTEM,
       "worker-7 workloads evicted in overnight waves",
       "pods reschedule away then node flaps back",
       ("cluster:prod-east", "node:worker-7"),
       "NodeNotReady -> Ready transitions x11 since 02:00; eviction storm recorded",
       "kubelet client certificate expired on node",
       NodeType.NODE, twin_of="sys-kubelet"),
    _T("sys-containerd", Category.SYSTEM,
       "containers stuck creating containerd unresponsive",
       "runtime requests timing out on one node",
       ("cluster:prod-west", "node:worker-3"),
       'rpc error: code = DeadlineExceeded; containerd: "too many open files"',
       "containerd leaking file descriptors on node",
       NodeType.NODE,
       ("worker-3 container runtime starved of descriptors", NodeType.EVENT,
        Relation.DEPENDS_ON, Relation.CAUSES, 0.85, 0.85)),
    _T("sys-etcd", Category.SYSTEM,
       "apiserver slow etcd request timeouts rising",
       "control plane writes exceed latency budget",
       ("cluster:prod-core", "component:etcd"),
       'etcdserver: request timed out; fsync duration 1.4s exceeds 0.5s threshold',
       "etcd disk fsync latency above threshold",
       NodeType.NODE,
       ("etcd member on slow disk volume", NodeType.VOLUME,
        Relation.DEPENDS_ON, Relation.CAUSES, 0.85, 0.9)),
)

_BY_CATEGORY: dict[Category, list[FaultTemplate]] = {c: [] for c in FAULT_CATEGORIES}
for _t in _BANK:
    _BY_CATEGORY[_t.category].append(_t)
_BY_KEY: dict[str, FaultTemplate] = {t.key: t for t in _BANK}


def template_root_cause(template: FaultTemplate) -> FaultTemplate:
    """Resolve a masked template to the shallow sibling owning the causal chain."""
    return _BY_KEY[template.twin_of] if template.twin_of else template


# Ground-truth remediation per shallow template; masked twins share their
# sibling's fix because they share its root cause.
_REMEDIATION: dict[str, tuple[str, ...]] = {
    "res-oom": ("raise the container memory limit above the cache working set",
                "redeploy and watch for OOMKilled events"),
    "res-pvc": ("verify the storage class exists and provisions in this zone",
                "recreate the claim and confirm it binds"),
    "res-throttle": ("raise the cpu limit or remove it in favor of requests",
                     "confirm throttling counters stop climbing"),
    "net-dns": ("restart the coredns deployment", "verify upstream resolvers in the corefile"),
    "net-policy": ("amend the network policy to allow the blocked namespace selector",
                   "retry the connection from an affected pod"),
    "net-ingress": ("point the ingress backend at the correct service port",
                    "curl the route through the controller"),
    "sch-taint": ("add a matching toleration to the workload or remove the taint",
                  "confirm pods schedule onto the cordoned pool"),
    "sch-resources": ("lower the pod resource requests or add nodes to the pool",
                      "verify pending pods schedule"),
    "sch-affinity": ("relax the anti-affinity rule to preferred instead of required",
                     "check replicas spread across the remaining nodes"),
    "img-pull": ("fix the image tag typo in the deployment spec",
                 "wait for a successful pull on each node"),
    "img-rate": ("add an authenticated pull secret to raise the registry rate limit",
                 "stagger rollouts to spread pulls"),
    "img-arch": ("publish a multi-arch manifest or pin the amd64 node pool",
                 "confirm the container starts on arm64 nodes"),
    "cfg-secret": ("create the missing secret in the namespace",
                   "restart the workload so the mount succeeds"),
    "cfg-rbac": ("bind the service account to a role granting the verbs it needs",
                 "re-run the failing request"),
    "cfg-env": ("correct the referenced configmap key in the pod spec",
                "roll the deployment and check startup logs"),
    "sys-kubelet": ("restart the kubelet on the affected node",
                    "confirm the node returns to Ready"),
    "sys-containerd": ("rotate the containerd snapshot directory and restart the runtime",
                       "verify new pods start on the node"),
    "sys-etcd": ("compact and defragment the etcd keyspace",
                 "watch apiserver request latency recover"),
}


def template_resolution_steps(template: FaultTemplate) -> list[str]:
    return list(_REMEDIATION[template_root_cause(template).key])


def build_graph() -> KnowledgeGraph:
    """World graph: one two-hop chain per shallow template, dead-end entries
    for masked templates (their root cause lives on the sibling's chain)."""
    g = KnowledgeGraph()
    for t in _BANK:
        entry = GraphNode(f"{t.key}:entry", t.entry_type, t.primary, category=t.category)
        g.upsert_node(entry)
        if t.mid is None:
            continue
        mid_label, mid_type, rel1, rel2, w1, w2 = t.mid
        mid = GraphNode(f"{t.key}:mid", mid_type, mid_label, category=t.category)
        rc = GraphNode(f"{t.key}:rc", NodeType.ROOT_CAUSE, t.root_cause, category=t.category)
        g.add_triple(entry, GraphEdge(entry.id, mid.id, rel1, w1), mid)
        g.add_triple(mid, GraphEdge(mid.id, rc.id, rel2, w2), rc)
    return g


def generate_scenarios(
    seed: int, total: int, mix: Sequence[float] = DEFAULT_MIX
) -> list[FaultScenario]:
    """Deterministic corpus with largest-remainder category counts.

    Within a category, instances cycle the template bank in order, so every
    masked instance is preceded in the stream by a same-template shallow
    sibling instance.
    """
    if len(mix) != len(FAULT_CATEGORIES):
        raise InvalidArgument(f"mix must have {len(FAULT_CATEGORIES)} weights")
    counts = apportion_largest_remainder(total, mix)
    rng = random.Random(seed)
    out: list[FaultScenario] = []
    per_template: dict[str, int] = {}
    for category, count in zip(FAULT_CATEGORIES, counts):
        bank = _BY_CATEGORY[category]
        for i in range(count):
            t = bank[i % len(bank)]
            n = per_template.get(t.key, 0)
            per_template[t.key] = n + 1
            suffix = f"{rng.randrange(16 ** 4):04x}"
            sc = FaultScenario(
                id=f"{t.key}-{n:03d}",
                category=category,
                symptoms=[t.primary, f"{t.secondary} replica {suffix}"],
                context=set(t.context),
                logs=t.logs,
                root_cause=t.root_cause,
                resolution_steps=template_resolution_steps(t),
            )
            sc.validate()
            out.append(sc)
    return out


def build_world(
    seed: int = 0, total: int = 120, mix: Sequence[float] = DEFAULT_MIX
) -> tuple[list[FaultScenario], KnowledgeGraph]:
    return generate_scenarios(seed, total, mix), build_graph()


# ---------------------------------------------------------------------------
# persistence


def scenario_to_dict(sc: FaultScenario) -> dict:
    return {
        "id": sc.id,
        "category": sc.category.value,
        "symptoms": list(sc.symptoms),
        "context": sorted(sc.context),
        "logs": sc.logs,
        "root_cause": sc.root_cause,
        "resolution_steps": list(sc.resolution_steps),
    }


def scenario_from_dict(raw: dict) -> FaultScenario:
    """Rebuild a scenario, checking each field's type instead of coercing it."""
    sc = FaultScenario(
        id=as_string(raw["id"], "id"),
        category=Category(raw["category"]),
        symptoms=as_strings(raw["symptoms"], "symptoms"),
        context=set(as_strings(raw.get("context", []), "context")),
        logs=as_string(raw.get("logs", ""), "logs"),
        root_cause=as_string(raw.get("root_cause", ""), "root_cause"),
        resolution_steps=as_strings(raw.get("resolution_steps", []), "resolution_steps"),
    )
    sc.validate()
    return sc


def save_scenarios(path: str, scenarios: Sequence[FaultScenario]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sc in scenarios:
            fh.write(json.dumps(scenario_to_dict(sc), sort_keys=True) + "\n")


def load_scenarios(path: str) -> tuple[list[FaultScenario], list[ScenarioParseError]]:
    """Lenient JSONL loader: bad lines are collected, good ones returned.

    Each line is decoded on its own, so a line that is not UTF-8 is one bad
    line."""
    scenarios: list[FaultScenario] = []
    errors: list[ScenarioParseError] = []
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                scenarios.append(scenario_from_dict(json.loads(line)))
            except (KeyError, TypeError, ValueError, RecursionError, InvalidArgument) as exc:
                errors.append(ScenarioParseError(line_no, str(exc)))
    return scenarios, errors
