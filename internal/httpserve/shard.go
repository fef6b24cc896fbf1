package httpserve

import (
	"strconv"

	"skyloader/internal/exec"
	"skyloader/internal/metrics"
	"skyloader/internal/serve"
	"skyloader/internal/shard"
	"skyloader/internal/shard/wire"
)

// ShardFront is the front door over a fleet.  It is the same type as the
// single-node one; the name remains for callers that predate the merge.
type ShardFront = Server

// NewShard builds a front door over a coordinator: the same /v1/* query API,
// /healthz, /metrics and /debug/* surface as New, with the coordinator as the
// serve.Engine.  Its serve.Server has serve.DefaultConfig's admission bounds
// and no result cache — no shard commit epoch crosses the wire, so nothing
// could invalidate a cached fleet answer.  The coordinator's scheduler must
// support inline execution (the realtime engine; a DES coordinator is driven
// by the simulator, not by sockets).
func NewShard(co *shard.Coordinator, cfg Config) (*Server, error) {
	scfg := serve.DefaultConfig()
	scfg.CacheShards = -1
	return newServer(serve.NewEngineServer(co.Scheduler(), co, scfg), fleetBackend{co}, cfg)
}

// FleetFamilies are the metric families every fleet scrape must carry: the
// coordinator's own and the serving layer's it now runs behind.  skystorm
// -shard checks every live scrape against this list.
var FleetFamilies = []string{
	"sky_shard_count", "sky_shard_queries_total", "sky_shard_fanout_total",
	"sky_shard_requests_total", "sky_shard_partial_failures_total", "sky_shard_gather_seconds",
	"sky_shard_wire_bytes_total", "sky_shard_ready",
	"sky_shard_directory_runs", "sky_shard_directory_bytes", "sky_shard_directory_misses_total",
	"sky_serve_requests_total", "sky_serve_shed_total", "sky_serve_latency_seconds",
}

// fleetBackend is a shard coordinator behind the front door.
type fleetBackend struct{ co *shard.Coordinator }

// inline runs fn on a worker of the coordinator's scheduler, which newServer
// has checked is an exec.InlineRunner.
func (b fleetBackend) inline(fn func(exec.Worker)) {
	b.co.Scheduler().(exec.InlineRunner).RunInline("shard-probe", fn)
}

// probe asks every shard for its current stats.
func (b fleetBackend) probe() (stats []wire.Stats, err error) {
	b.inline(func(wk exec.Worker) { stats, err = b.co.ShardStats(wk) })
	return stats, err
}

// unready aggregates fleet readiness: every shard must answer Ready — one
// agent replaying a WAL, mid-Seal or unreachable keeps the whole fleet
// unready.
func (b fleetBackend) unready() string {
	ready := false
	b.inline(func(wk exec.Worker) { ready = b.co.Ready(wk) })
	if ready {
		return ""
	}
	return "sharding: fleet not ready\n"
}

// FleetStats is the fleet half of /v1/stats: the coordinator's scatter/gather
// counters, the size of its object directory and the lookups that missed it,
// plus each shard's self-reported stats.
type FleetStats struct {
	Shards          int          `json:"shards"`
	Queries         int64        `json:"queries"`
	QueryErrors     int64        `json:"query_errors"`
	BytesSent       int64        `json:"bytes_sent"`
	BytesReceived   int64        `json:"bytes_received"`
	GatherP50NS     int64        `json:"gather_p50_ns"`
	GatherP99NS     int64        `json:"gather_p99_ns"`
	DirectoryRuns   int          `json:"directory_runs"`
	DirectoryBytes  int64        `json:"directory_bytes"`
	DirectoryMisses int64        `json:"directory_misses"`
	ShardStats      []wire.Stats `json:"shard_stats,omitempty"`
	ShardStatsError string       `json:"shard_stats_error,omitempty"`
}

func (b fleetBackend) stats(resp *StatsResponse) {
	snap := b.co.Snapshot()
	fs := &FleetStats{
		Shards:        snap.Shards,
		Queries:       snap.Queries,
		QueryErrors:   snap.QueryErrors,
		BytesSent:     snap.BytesSent,
		BytesReceived: snap.BytesReceived,
		GatherP50NS:   int64(snap.Gather.P50),
		GatherP99NS:   int64(snap.Gather.P99),

		DirectoryRuns:   snap.DirectoryRuns,
		DirectoryBytes:  snap.DirectoryBytes,
		DirectoryMisses: snap.DirectoryMisses,
	}
	if stats, err := b.probe(); err != nil {
		fs.ShardStatsError = err.Error()
	} else {
		fs.ShardStats = stats
	}
	resp.Fleet = fs
}

// writeMetrics renders the sky_shard_* families: fan-out, per-shard traffic,
// gather latency, bytes on the wire, the object directory (a lookup that
// broadcast shows up in its misses), and per-shard readiness/rows from a live
// probe.
func (b fleetBackend) writeMetrics(p *metrics.PromWriter) {
	snap := b.co.Snapshot()
	stats, statsErr := b.probe()
	writeFleetMetrics(p, snap, stats, statsErr)
}

// writeFleetMetrics renders one coordinator snapshot and one per-shard probe.
func writeFleetMetrics(p *metrics.PromWriter, snap shard.Snapshot, stats []wire.Stats, statsErr error) {
	p.Gauge("sky_shard_count", "Number of shards in the fleet.", int64(snap.Shards))
	p.Counter("sky_shard_queries_total", "Queries scattered by the coordinator.", snap.Queries)
	p.Counter("sky_shard_query_errors_total", "Scatter-gather queries that failed.", snap.QueryErrors)

	p.Metric("sky_shard_fanout_total", "Per-shard calls issued, by query class.", "counter")
	for _, class := range metrics.SortedLabelNames(snap.FanoutByClass) {
		p.SampleInt("sky_shard_fanout_total", classLabels(class), snap.FanoutByClass[class])
	}
	p.Metric("sky_shard_requests_total", "Query calls dispatched to each shard.", "counter")
	for i, n := range snap.ShardRequests {
		p.SampleInt("sky_shard_requests_total", shardLabels(i), n)
	}
	p.Metric("sky_shard_load_tasks_total", "Load tasks dispatched to each shard.", "counter")
	for i, n := range snap.ShardLoads {
		p.SampleInt("sky_shard_load_tasks_total", shardLabels(i), n)
	}
	p.Metric("sky_shard_partial_failures_total", "Query branches that failed on each shard; each failed its whole query.", "counter")
	for i, n := range snap.PartialFailures {
		p.SampleInt("sky_shard_partial_failures_total", shardLabels(i), n)
	}
	p.Metric("sky_shard_gather_seconds", "Scatter-to-merge latency of sharded queries.", "histogram")
	p.Histogram("sky_shard_gather_seconds", nil, snap.GatherHist)
	p.Metric("sky_shard_wire_bytes_total", "Framed protocol bytes, by direction.", "counter")
	p.SampleInt("sky_shard_wire_bytes_total", []metrics.Label{{Name: "direction", Value: "sent"}}, snap.BytesSent)
	p.SampleInt("sky_shard_wire_bytes_total", []metrics.Label{{Name: "direction", Value: "received"}}, snap.BytesReceived)

	p.Gauge("sky_shard_directory_runs", "Object-id runs in the coordinator's object directory.", int64(snap.DirectoryRuns))
	p.Gauge("sky_shard_directory_bytes", "Bytes held by the coordinator's object directory.", snap.DirectoryBytes)
	p.Counter("sky_shard_directory_misses_total", "Object lookups the directory could not place on one shard, which broadcast.", snap.DirectoryMisses)

	// Live per-shard state; a probe failure leaves the families out of this
	// scrape rather than failing it (the fleet may be mid-restart).
	p.Gauge("sky_shard_probe_failed", "1 when the last per-shard stats probe failed.", boolInt(statsErr != nil))
	if statsErr == nil {
		p.Metric("sky_shard_ready", "Per-shard readiness (1 serving, 0 loading/replaying).", "gauge")
		for _, st := range stats {
			p.SampleInt("sky_shard_ready", shardLabels(int(st.ShardID)), boolInt(st.Ready))
		}
		p.Metric("sky_shard_rows", "Rows resident on each shard.", "gauge")
		for _, st := range stats {
			p.SampleInt("sky_shard_rows", shardLabels(int(st.ShardID)), st.Rows)
		}
		p.Metric("sky_shard_queries_served_total", "Queries each shard has answered.", "counter")
		for _, st := range stats {
			p.SampleInt("sky_shard_queries_served_total", shardLabels(int(st.ShardID)), st.QueriesServed)
		}
	}
}

func shardLabels(i int) []metrics.Label {
	return []metrics.Label{{Name: "shard", Value: strconv.Itoa(i)}}
}
