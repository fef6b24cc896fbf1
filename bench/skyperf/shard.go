package main

import (
	"fmt"
	"time"

	"skyloader/bench/gen"
	"skyloader/internal/catalog"
	"skyloader/internal/exec"
	"skyloader/internal/httpserve"
	"skyloader/internal/queries"
	"skyloader/internal/relstore"
	"skyloader/internal/shard"
)

const fleetShards = 3

// fleet is three agents on loopback TCP, a coordinator dialled to them, and
// the HTTP front over the coordinator.
type fleet struct {
	sched  *exec.Realtime
	agents []*shard.AgentServer
	co     *shard.Coordinator
	front  *httpserve.ShardFront
}

// startFleet starts the agents, dials them and introduces the coordinator.
// The partition follows the footprints of the files about to be loaded.
func startFleet(seed int64, files []*catalog.File) (*fleet, error) {
	f := &fleet{sched: newScheduler(seed)}
	cfg := shard.DefaultAgentConfig()
	cfg.Profile.Indexes = benchIndexes
	cfg.Loader.BatchSize, cfg.Loader.ArraySize = batchSize, arraySize
	clients := make([]shard.Client, fleetShards)
	for i := range clients {
		a, err := shard.NewAgent(f.sched, cfg)
		if err != nil {
			return f, err
		}
		srv, err := shard.ServeAgent(a, f.sched, "127.0.0.1:0")
		if err != nil {
			return f, err
		}
		f.agents = append(f.agents, srv)
		if clients[i], err = shard.DialShard(srv.Addr().String()); err != nil {
			return f, err
		}
	}
	pm, err := shard.PartitionFromFiles(files, fleetShards)
	if err != nil {
		return f, err
	}
	if f.co, err = shard.New(f.sched, pm, clients, shard.Config{}); err != nil {
		return f, err
	}
	f.sched.RunInline("skyperf-hello", func(w exec.Worker) { err = f.co.Hello(w) })
	return f, err
}

func (f *fleet) close() {
	if f == nil {
		return
	}
	if f.front != nil {
		_ = f.front.Close()
	}
	if f.co != nil {
		_ = f.co.Close()
	}
	for _, a := range f.agents {
		_ = a.Close()
	}
}

// load parses the night and hands it to the fleet: the timed region.
func (f *fleet) load(night *gen.Night) (rep shard.LoadReport, parseS, loadS float64, lines int, err error) {
	t0 := time.Now()
	p, err := parseFiles(night.Files)
	if err != nil {
		return rep, 0, 0, 0, err
	}
	t1 := time.Now()
	f.sched.RunInline("skyperf-fleet-load", func(w exec.Worker) { rep, err = f.co.LoadFiles(w, p.files) })
	return rep, t1.Sub(t0).Seconds(), time.Since(t1).Seconds(), p.lines, err
}

// verify checks every agent's database and that the fleet holds exactly the
// oracle's objects (reference rows are duplicated per shard by design, so
// only the partitioned table is summed).
func (f *fleet) verify(oracle *relstore.DB) error {
	var objects int64
	for i, a := range f.agents {
		db := a.Agent().DB()
		if err := verifyDB(db); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		n, err := db.Count(catalog.TObjects)
		if err != nil {
			return err
		}
		objects += n
	}
	want, err := oracle.Count(catalog.TObjects)
	if err != nil {
		return err
	}
	if objects != want {
		return fmt.Errorf("fleet holds %d objects, single-node oracle %d", objects, want)
	}
	return nil
}

// shardInputs is what set-up leaves for shard-scatter.
type shardInputs struct {
	night  *gen.Night
	oracle *relstore.DB
	cold   []queries.Query
	fleet  *fleet
	files  []*catalog.File // parsed once, only to place the partition cuts
}

func setUpShard(r *run, prev *shardInputs) (*shardInputs, error) {
	if prev != nil {
		prev.fleet.close()
	}
	in := &shardInputs{}
	var err error
	// No corrupted rows here: a row whose corrupted key duplicates a key on
	// another shard is rejected by a single node and accepted by the fleet,
	// so with them the fleet and its oracle legitimately differ.
	if in.night, err = setUpCatalog(r, "served", serveFiles, serveRows, 0); err != nil {
		return nil, err
	}
	in.cold = gen.ColdTrace(in.night, r.seed+1, coldTraceLen(in.night))
	if in.oracle, err = openDB(relstore.IndexImmediate); err != nil {
		return nil, err
	}
	if _, err = parseAndLoad(in.oracle, in.night.Files, loadConfig(r.par, 0), r.seed); err != nil {
		return nil, err
	}
	p, err := parseFiles(in.night.Files)
	if err != nil {
		return nil, err
	}
	in.files = p.files
	in.fleet, err = startFleet(r.seed, in.files)
	return in, err
}

// shardScatter: fleet loads through Coordinator.LoadFiles on fresh agents,
// then the cold trace through httpserve.ShardFront against the last fleet,
// in an open loop.
func shardScatter(r *run) error {
	var in *shardInputs
	err := r.setUp(func() (err error) { in, err = setUpShard(r, in); return })
	if in != nil {
		defer func() { in.fleet.close() }()
	}
	if err != nil {
		return err
	}
	var (
		rates, queryable, mem []float64
		checks                checkSet
	)
	deadline := time.Now().Add(r.budget(ingestShare))
	for rep := 0; rep < r.minReps() || time.Now().Before(deadline); rep++ {
		if rep > 0 {
			in.fleet.close()
			if in.fleet, err = startFleet(r.seed, in.files); err != nil {
				return err
			}
		}
		before := liveHeap()
		r.probe()
		report, parseS, loadS, lines, err := in.fleet.load(in.night)
		if err != nil {
			return err
		}
		r.probe()
		rates = append(rates, float64(report.RowsLoaded)/(parseS+loadS))
		queryable = append(queryable, parseS+loadS)
		mem = append(mem, float64(liveHeap()-before)/float64(in.night.Bytes))
		r.res.Attempted += int64(lines)
		checks.note("every shard passes VerifyIntegrity and VerifyPrimaryKeys; fleet objects equal the oracle's", inRep(rep, in.fleet.verify(in.oracle)))
	}
	checks.flush(r.res)
	r.res.TableCounts = tableCounts(in.oracle)
	reportIngest(r, rates, queryable, mem)

	f := in.fleet
	if f.front, err = httpserve.NewShard(f.co, httpserve.Config{}); err != nil {
		return err
	}
	addr, err := f.front.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	queryPhase(r, "http://"+addr.String(), in.cold, shardQPS, in.oracle)
	return nil
}
