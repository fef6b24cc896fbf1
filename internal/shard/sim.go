package shard

import (
	"fmt"
	"io"
	"time"

	"skyloader/internal/catalog"
	"skyloader/internal/exec"
	"skyloader/internal/serve"
)

// SimConfig describes one deterministic DES shard topology: N in-process
// agents behind the priced in-memory transport, a generated observation
// night, and a Zipf query trace whose Poisson arrivals span roughly the load
// window.  The same config always produces the same SimReport, so 100-node
// topologies the test host cannot run for real are still comparable run to
// run.
type SimConfig struct {
	Shards    int
	Seed      int64
	SizeMB    float64
	Files     int
	RowsPerMB int
	Queries   int
	ConeFrac  float64
	// Deferred drives a fleet-wide BeginLoad/Seal window around the load.
	Deferred bool
}

// The sim's network: 200 µs per message plus 1 GiB/s of serialization.
const (
	simNetLatency     = 200 * time.Microsecond
	simNetBytesPerSec = 1 << 30
)

func (c SimConfig) withDefaults() SimConfig {
	if c.Shards <= 0 {
		c.Shards = 3
	}
	if c.SizeMB <= 0 {
		c.SizeMB = 4
	}
	if c.Files <= 0 {
		c.Files = max(c.Shards, 4)
	}
	if c.RowsPerMB <= 0 {
		c.RowsPerMB = 200
	}
	if c.Queries <= 0 {
		c.Queries = 200
	}
	if c.ConeFrac == 0 {
		c.ConeFrac = 0.5
	}
	return c
}

// ShardSimStats is one shard's slice of a SimReport.
type ShardSimStats struct {
	Rows     int64
	Requests int64
}

// SimReport is the deterministic outcome of one DES topology run.
type SimReport struct {
	Config       SimConfig
	RowsLoaded   int64
	LoadElapsed  time.Duration
	TotalElapsed time.Duration
	Queries      int
	Errors       int
	FanoutTotal  int64
	GatherP50    time.Duration
	GatherP99    time.Duration
	GatherMax    time.Duration
	BytesSent    int64
	BytesRecv    int64
	PerShard     []ShardSimStats
}

// RunSim executes one deterministic shard topology on the DES kernel.
func RunSim(cfg SimConfig) (SimReport, error) {
	cfg = cfg.withDefaults()
	files := catalog.GenerateNight(catalog.NightSpec{
		TotalMB:   cfg.SizeMB,
		Files:     cfg.Files,
		RowsPerMB: cfg.RowsPerMB,
		Seed:      cfg.Seed,
	})
	sched := exec.NewDES(cfg.Seed)

	agents := make([]*Agent, cfg.Shards)
	clients := make([]Client, cfg.Shards)
	agentCfg := DefaultAgentConfig()
	if cfg.Deferred {
		agentCfg.Profile.DeferredIndexBuild = true
	}
	for i := range agents {
		a, err := NewAgent(sched, agentCfg)
		if err != nil {
			return SimReport{}, err
		}
		agents[i] = a
		clients[i] = NewMemClient(sched, a, NetModel{Latency: simNetLatency, BytesPerSec: simNetBytesPerSec})
	}
	pm, err := PartitionFromFiles(files, cfg.Shards)
	if err != nil {
		return SimReport{}, err
	}
	co, err := New(sched, pm, clients, Config{Deferred: cfg.Deferred})
	if err != nil {
		return SimReport{}, err
	}

	objects := int64(cfg.SizeMB*float64(cfg.RowsPerMB)) / 8 / int64(len(files))
	if objects < 64 {
		objects = 64
	}
	window := cfg.SizeMB / 2
	if window < 1 {
		window = 1
	}
	trace := serve.GenTrace(serve.TraceSpec{
		Queries:    cfg.Queries,
		Seed:       cfg.Seed + 1000,
		ConeFrac:   cfg.ConeFrac,
		Objects:    objects,
		IDBase:     100_000_000,
		Frames:     objects / 12,
		RatePerSec: float64(cfg.Queries) / window,
	}.WithFootprint(files))

	rep := SimReport{Config: cfg, Queries: len(trace), PerShard: make([]ShardSimStats, cfg.Shards)}
	var driverErr error
	sched.Spawn("sim-driver", func(w exec.Worker) {
		if err := co.Hello(w); err != nil {
			driverErr = err
			return
		}
		load, err := co.LoadFiles(w, files)
		if err != nil {
			driverErr = err
			return
		}
		rep.RowsLoaded = load.RowsLoaded
		rep.LoadElapsed = load.Elapsed
		for i, r := range trace {
			r := r
			sched.SpawnAt(r.Arrival, fmt.Sprintf("query-%d", i), func(qw exec.Worker) {
				if _, err := co.Execute(qw, r.Query, nil); err != nil {
					rep.Errors++ // DES single-runner: plain increment is safe
				}
			})
		}
	})
	rep.TotalElapsed = sched.Run()
	if driverErr != nil {
		return SimReport{}, driverErr
	}

	snap := co.Snapshot()
	for _, n := range snap.FanoutByClass {
		rep.FanoutTotal += n
	}
	rep.GatherP50 = snap.Gather.P50
	rep.GatherP99 = snap.Gather.P99
	rep.GatherMax = snap.Gather.Max
	rep.BytesSent = snap.BytesSent
	rep.BytesRecv = snap.BytesReceived
	for s := range agents {
		rep.PerShard[s] = ShardSimStats{
			Rows:     agents[s].DB().TotalRows(),
			Requests: snap.ShardRequests[s],
		}
	}
	return rep, nil
}

// Render writes the report as a fixed-order text table.  Two runs of the
// same config must render byte-identically — the determinism contract
// `skyshard -sim` verifies.
func (r SimReport) Render(w io.Writer) {
	fmt.Fprintf(w, "shard sim: %d shards, %d files, %.1f MB, seed %d\n",
		r.Config.Shards, r.Config.Files, r.Config.SizeMB, r.Config.Seed)
	fmt.Fprintf(w, "  load:  %d rows in %v (virtual)\n", r.RowsLoaded, r.LoadElapsed)
	fmt.Fprintf(w, "  serve: %d queries, %d errors, fan-out %d calls, makespan %v\n",
		r.Queries, r.Errors, r.FanoutTotal, r.TotalElapsed)
	fmt.Fprintf(w, "  gather: p50 %v  p99 %v  max %v\n", r.GatherP50, r.GatherP99, r.GatherMax)
	fmt.Fprintf(w, "  wire: %d B sent, %d B received\n", r.BytesSent, r.BytesRecv)
	for s, st := range r.PerShard {
		fmt.Fprintf(w, "  shard %3d: %7d rows  %6d requests\n", s, st.Rows, st.Requests)
	}
}
