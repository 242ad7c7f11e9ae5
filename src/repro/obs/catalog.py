"""The observability vocabulary: every metric, decision kind and trace
category the system emits, declared once.

``METRICS`` maps a metric name to ``(kind, unit, meaning)``; a histogram
entry adds its bucket bounds, which :meth:`MetricsRegistry.histogram
<repro.obs.metrics.MetricsRegistry.histogram>` reads.  A name's first
dotted segment is its layer.  ``<name>`` stands for an instance's name,
one or more dotted segments (``storage.device.node-0.disk.bits_read``).
Counters of the admission controller count clients: a cohort of ``n``
counts ``n``.

``DECISIONS`` maps a decision kind (:mod:`repro.obs.decisions`) to
``(actor, meaning)``, the actor being the component that emits it.
``CATEGORIES`` maps a span or instant category to its meaning.

``tools/check_catalog.py`` holds ``src/repro`` to these tables: an
emission the catalog does not declare fails it, and so does an entry
nothing emits.
"""

#: default bucket bounds for time-in-seconds histograms (upper bounds);
#: also the bounds of a histogram the catalog does not declare.
TIME_BUCKETS_S = (0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0)

#: bucket bounds for latency/jitter-in-milliseconds histograms.
LATENCY_BUCKETS_MS = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 250.0, 1000.0)

#: bucket bounds for queue-depth / occupancy histograms.
DEPTH_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128)

METRICS = {
    "sim.events_dispatched": ("counter", "events", "events the kernel popped and ran"),
    "sim.events_triggered": ("counter", "events", "events triggered (succeeded or failed)"),
    "sim.processes_spawned": ("counter", "processes", "processes started"),
    "sim.processes_finished": ("counter", "processes", "processes that returned"),
    "sim.process_failures": ("counter", "processes", "processes that ended in an exception"),
    "sim.process_faults": ("counter", "exceptions", "exceptions thrown into a process"),
    "sim.resource_waits": ("counter", "requests", "resource requests that had to wait"),
    "sim.resource_grants": ("counter", "requests", "resource requests granted"),
    "sim.resource_wait_s": ("histogram", "s", "time from request to grant", TIME_BUCKETS_S),
    "stream.elements_produced": ("counter", "elements", "elements a source emitted"),
    "stream.elements_transformed": ("counter", "elements", "elements a transformer rewrote"),
    "stream.elements_buffered": ("counter", "elements", "elements put into a stream buffer"),
    "stream.elements_presented": ("counter", "elements", "elements a sink presented"),
    "stream.producer_stalls": ("counter", "stalls", "puts that found the buffer full"),
    "stream.consumer_stalls": ("counter", "stalls", "gets that found the buffer empty"),
    "stream.late_presentations": ("counter", "elements", "presentations after their ideal time"),
    "stream.buffer_occupancy": ("histogram", "elements", "buffer fill after each put", DEPTH_BUCKETS),
    "stream.latency_ms": ("histogram", "ms", "presentation time minus ideal time", LATENCY_BUCKETS_MS),
    "stream.jitter_ms": ("histogram", "ms", "change of latency between presentations", LATENCY_BUCKETS_MS),
    "storage.admission_failures": ("counter", "requests", "device bandwidth reservations refused"),
    "storage.device.<name>.utilization": ("gauge", "ratio", "reserved share of a device's bandwidth"),
    "storage.device.<name>.bits_read": ("counter", "bits", "bits read from a device"),
    "storage.device.<name>.bits_written": ("counter", "bits", "bits written to a device"),
    "storage.placements": ("counter", "values", "values placed on a device"),
    "storage.copies": ("counter", "values", "placement copies made so two values stream at once"),
    "storage.copy_s": ("histogram", "s", "virtual time one placement copy took", TIME_BUCKETS_S),
    "storage.disk_requests": ("counter", "requests", "requests a disk scheduler queued"),
    "storage.disk_requests_failed": ("counter", "requests", "disk requests failed by a fault"),
    "storage.seek_cylinders": ("counter", "cylinders", "head travel of a disk scheduler"),
    "storage.deadline_misses": ("counter", "requests", "disk requests served after their deadline"),
    "storage.disk_wait_s": ("histogram", "s", "time a disk request waited for service", TIME_BUCKETS_S),
    "storage.disk_queue_depth": ("histogram", "requests", "scheduler queue length at each arrival", DEPTH_BUCKETS),
    "db.tx_begins": ("counter", "transactions", "transactions begun"),
    "db.tx_commits": ("counter", "transactions", "transactions committed"),
    "db.tx_aborts": ("counter", "transactions", "transactions aborted"),
    "db.locks_acquired": ("counter", "locks", "locks granted"),
    "db.lock_conflicts": ("counter", "locks", "lock requests refused by wait-die"),
    "db.index_scans": ("counter", "queries", "queries answered from an index"),
    "db.full_scans": ("counter", "queries", "queries answered by scanning a class"),
    "net.bits_sent": ("counter", "bits", "bits a channel carried"),
    "net.admission_failures": ("counter", "requests", "channel bandwidth reservations refused"),
    "net.channel.<name>.utilization": ("gauge", "ratio", "reserved share of a channel's bandwidth"),
    "session.opened": ("counter", "sessions", "client sessions opened"),
    "session.streams_started": ("counter", "streams", "streams a session started"),
    "session.notifications": ("counter", "events", "event notifications delivered to a client"),
    "session.qos_ratio": ("histogram", "ratio", "delivered over negotiated rate per stream, 1.0 the contract honoured", (0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0, 1.05, 1.2)),
    "session.<name>.qos_ratio": ("gauge", "ratio", "a session's last delivered over negotiated rate"),
    "session.<name>.degraded_fraction": ("gauge", "ratio", "the rate share a degraded stream kept"),
    "faults.injected": ("counter", "faults", "faults the injector fired"),
    "faults.retries": ("counter", "attempts", "attempts retried by a recovery policy"),
    "faults.restarts": ("counter", "processes", "processes restarted by a supervisor"),
    "faults.degraded_sessions": ("counter", "sessions", "sessions with a stream degraded"),
    "admission.admitted": ("counter", "clients", "full-rate grants: fresh, from the queue, or after preemption"),
    "admission.degraded": ("counter", "clients", "grants below the asked rate, at or above the contract's floor, fresh or from the queue"),
    "admission.rejected": ("counter", "clients", "requests that could not wait (try_admit, admit with queue_timeout_s=0, the leftovers of an admit_batch) and got nothing"),
    "admission.shed": ("counter", "clients", "background work refused at the high-watermark or for a busy device pool, requests refused by a full queue, queued requests displaced by a higher class"),
    "admission.queued": ("counter", "clients", "requests that entered the queue; a request with no patience never does"),
    "admission.timeouts": ("counter", "clients", "queued requests whose deadline expired there"),
    "admission.preempted": ("counter", "clients", "background clients revoked for an interactive request"),
    "admission.queue_depth": ("gauge", "requests", "live admission queue length"),
    "admission.queue_depth_hist": ("histogram", "requests", "admission queue length at each change", DEPTH_BUCKETS),
    "admission.queue_wait_s": ("histogram", "s", "time spent queued before a grant", TIME_BUCKETS_S),
    "admission.<name>.utilization": ("gauge", "ratio", "reserved share of a controller's channel"),
    "admission.breaker.<name>.state": ("gauge", "level", "breaker state: 0 closed, 0.5 half-open, 1 open"),
    "admission.breaker_transitions": ("counter", "transitions", "breaker state changes"),
    "admission.breaker_fast_failures": ("counter", "calls", "calls an open breaker failed fast"),
    "cluster.placements": ("counter", "values", "values sharded over the cluster"),
    "cluster.reads": ("counter", "reads", "shard reads served by a replica"),
    "cluster.read_bits": ("counter", "bits", "bits read from replicas"),
    "cluster.failovers": ("counter", "reads", "reads moved to another replica after a node died"),
    "cluster.node_deaths": ("counter", "nodes", "storage nodes killed"),
    "cluster.node_restores": ("counter", "nodes", "storage nodes restored"),
    "cluster.nodes_live": ("gauge", "nodes", "storage nodes alive"),
    "cluster.under_replicated": ("gauge", "shards", "shards below their replication"),
    "cluster.version_bumps": ("counter", "values", "value versions bumped by a write"),
    "cluster.repairs": ("counter", "shards", "replicas re-created by repair"),
    "cluster.repair_bits": ("counter", "bits", "bits copied by repair"),
    "cluster.trimmed": ("counter", "replicas", "surplus replicas freed"),
    "cluster.trim_deferred": ("counter", "replicas", "trims put off while a reader held the replica"),
    "cluster.rebalanced": ("counter", "replicas", "replicas moved by a rebalance"),
    "cluster.replica_boosts": ("counter", "values", "hot values given extra replicas"),
    "cluster.replica_unboosts": ("counter", "values", "boosted values returned to their declared replication"),
    "cache.lookups": ("counter", "lookups", "block cache lookups"),
    "cache.hits": ("counter", "lookups", "lookups served from a cache"),
    "cache.misses": ("counter", "lookups", "lookups that went to the cluster"),
    "cache.fills": ("counter", "blocks", "blocks inserted into a cache"),
    "cache.evictions": ("counter", "blocks", "blocks evicted for space"),
    "cache.invalidations": ("counter", "blocks", "blocks dropped by a version bump"),
    "cache.<name>.bytes": ("gauge", "bytes", "bytes resident in a block cache"),
    "cache.edge_bits": ("counter", "bits", "bits edges served to clients"),
    "cache.passthrough": ("counter", "streams", "streams no edge would serve, read from the cluster"),
    "cache.prefill_bits": ("counter", "bits", "bits pushed to edges ahead of a crowd"),
    "cache.fill_aborts": ("counter", "fills", "edge prefills given up after repeated faults"),
    "cache.hot_episodes": ("counter", "episodes", "values that turned hot"),
    "cache.hot_values": ("gauge", "values", "values hot now"),
    "herd.clients": ("counter", "clients", "herd clients that arrived"),
    "herd.edge_served": ("counter", "clients", "herd clients an edge cache served"),
    "herd.completed": ("counter", "clients", "herd clients that streamed to the end"),
    "herd.preempted_clients": ("counter", "clients", "herd clients revoked mid-session"),
    "annotations.added": ("counter", "annotations", "annotations added"),
    "annotations.removed": ("counter", "annotations", "annotations removed"),
    "annotations.bulk_loaded": ("counter", "annotations", "annotations bulk-loaded"),
    "annotations.plans_index": ("counter", "queries", "queries the planner sent down the index path"),
    "annotations.plans_scan": ("counter", "queries", "queries the planner sent down the scan path"),
}

DECISIONS = {
    "admit": ("admission", "a full-rate grant, fresh, from the queue or via preemption"),
    "degrade": ("admission", "a grant below the asked rate, at or above the contract's floor"),
    "reject": ("admission", "a request that could not wait got nothing"),
    "shed": ("admission", "a request refused at the watermark, by a full queue or a busy pool, or displaced"),
    "queue": ("admission", "a request entered the admission queue"),
    "queue-timeout": ("admission", "a queued request's deadline expired"),
    "preempt": ("admission", "a background holder revoked for an interactive request"),
    "breaker": ("breaker", "a circuit breaker changed state"),
    "node-down": ("cluster", "a storage node died"),
    "node-up": ("cluster", "a storage node came back"),
    "failover": ("cluster", "a read moved to another replica"),
    "replica-boost": ("repair", "a hot value got extra replicas"),
    "replica-unboost": ("repair", "a boosted value went back to its declared replication"),
    "cache-hot": ("cache", "a value crossed the hot-spot threshold"),
    "cache-cool": ("cache", "a hot value cooled down"),
    "retry": ("recovery", "a failed attempt is retried after a backoff"),
    "retries-exhausted": ("recovery", "the last attempt failed; the error propagates"),
    "session-degraded": ("session", "a session stream runs below its negotiated rate"),
    "plan": ("annotations.planner", "a query's access path changed, with both estimates"),
    "invariant-breach": ("watchdog", "an invariant probe failed"),
    "slo-breach": ("watchdog", "a hard SLO burned through its budget"),
    "unhandled-failure": ("watchdog", "a process died of an exception nothing handled"),
}

CATEGORIES = {
    "sim.process": "a process's lifetime, one span per process",
    "activity.<name>": "an activity's run, by its kind: source, transformer or sink",
    "stream": "an element presented at a sink",
    "storage": "a placement copy, a disk request's service",
    "cluster": "a repair copy; a node going down or up; a failover",
    "admission": "a preemption; a breaker transition",
    "faults": "a fault the injector fired",
}
