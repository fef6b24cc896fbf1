package shard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"skyloader/internal/catalog"
	"skyloader/internal/core"
	"skyloader/internal/exec"
	"skyloader/internal/relstore"
	"skyloader/internal/serve"
	"skyloader/internal/shard/wire"
	"skyloader/internal/sqlbatch"
	"skyloader/internal/tuning"
)

// AgentConfig controls one shard agent.
type AgentConfig struct {
	// Profile is the tuning profile of the agent's database.
	Profile tuning.Profile
	// Loader is the bulk-load configuration used for LoadTasks.
	Loader core.Config
}

// DefaultAgentConfig mirrors the single-node loading setup: the paper's
// production-loading profile and the standard batch parameters.
func DefaultAgentConfig() AgentConfig {
	return AgentConfig{
		Profile: tuning.ProductionLoading(),
		Loader:  core.DefaultConfig(),
	}
}

// Agent owns one shard: a private relstore.DB holding the rows of one
// contiguous trixel range, fed through the same sqlbatch/core bulk-load path
// the single-node system uses.  Which rows those are is the coordinator's
// decision: an agent loads every line it is sent.  The agent is the DB's
// single owner — every access arrives as a wire message through Handle;
// nothing else touches the database.
type Agent struct {
	sched exec.Scheduler
	cfg   AgentConfig
	db    *relstore.DB
	srv   *sqlbatch.Server

	// loadMu serializes load tasks (queries run concurrently against the
	// DB's own synchronization).  A task takes its *core.Loader from loaders
	// and puts it back, so one array-set's buffers serve every task of a
	// load; a pool, so that an agent done loading gives them up to the second
	// collection and what stays resident after a load is the database.
	loadMu   sync.Mutex
	loadOpen bool
	loaders  sync.Pool

	// identity, assigned by Hello.
	shardID atomic.Uint32
	hello   atomic.Bool // set after shardID: who sees it sees the id

	rowsLoaded    atomic.Int64
	queriesServed atomic.Int64
}

// NewAgent opens a fresh shard database (schema + reference rows + profile)
// on the scheduler.  The agent has no identity until it receives Hello.
func NewAgent(sched exec.Scheduler, cfg AgentConfig) (*Agent, error) {
	db, err := cfg.Profile.Open()
	if err != nil {
		return nil, fmt.Errorf("shard: open agent db: %w", err)
	}
	return &Agent{
		sched: sched,
		cfg:   cfg,
		db:    db,
		srv:   sqlbatch.NewServerOn(sched, db, cfg.Profile.ServerConfig(), sqlbatch.DefaultCostModel()),
	}, nil
}

// DB exposes the agent's database for verification in tests; production
// code must never reach it (the agent is the single owner).
func (a *Agent) DB() *relstore.DB { return a.db }

// ShardID returns the identity assigned by Hello.
func (a *Agent) ShardID() uint32 { return a.shardID.Load() }

// Ready reports whether this shard can serve: identity assigned, no load
// window open, and the DB's indexes ready (false while loading under the
// deferred policy, replaying a WAL, or mid-Seal).
func (a *Agent) Ready() bool {
	a.loadMu.Lock()
	open := a.loadOpen
	a.loadMu.Unlock()
	return a.hello.Load() && !open && a.db.Ready()
}

// Handle processes one coordinator message on the given worker and returns
// the reply.  It is the agent's entire surface: transports differ only in
// how bytes reach it.
func (a *Agent) Handle(w exec.Worker, m wire.Msg) wire.Msg {
	switch t := m.(type) {
	case wire.Hello:
		return a.handleHello(t)
	case wire.LoadTask:
		return a.handleLoad(w, t)
	case wire.Query:
		return a.handleQuery(w, t)
	case wire.Stats:
		return a.statsReply()
	default:
		return wire.QueryResult{Err: fmt.Sprintf("shard: unexpected message type 0x%02x", m.Type())}
	}
}

func (a *Agent) handleHello(h wire.Hello) wire.Msg {
	a.shardID.Store(h.ShardID)
	a.hello.Store(true)
	if h.Deferred {
		a.loadMu.Lock()
		if !a.loadOpen {
			if err := a.srv.BeginLoad(); err != nil && !errors.Is(err, relstore.ErrLoadPhaseActive) {
				a.loadMu.Unlock()
				return wire.Ready{ShardID: h.ShardID, Ready: false, Rows: a.db.TotalRows()}
			}
			a.loadOpen = true
		}
		a.loadMu.Unlock()
	}
	return wire.Ready{ShardID: h.ShardID, Ready: a.Ready(), Rows: a.db.TotalRows()}
}

func (a *Agent) handleLoad(w exec.Worker, t wire.LoadTask) wire.Msg {
	a.loadMu.Lock()
	defer a.loadMu.Unlock()
	res := wire.LoadResult{TaskID: t.TaskID, ShardID: a.ShardID()}
	if t.Seal {
		if a.loadOpen {
			if _, err := a.srv.Seal(w); err != nil {
				res.Err = err.Error()
				return res
			}
			a.loadOpen = false
		}
		return res
	}
	if !a.hello.Load() {
		res.Err = "shard: load task before Hello"
		return res
	}
	// The text is this shard's share of the file, already routed: parse and
	// load every line.  A line that is not a record is skipped, like a row the
	// transformer or the database rejects, as on a single node.  The records
	// alias the text and the text its frame; stored rows refer to neither.
	recs, lines, _ := catalog.ParseText(t.Text)
	f := &catalog.File{
		Name:         t.Name,
		Records:      recs,
		RABase:       t.RABase,
		DecBase:      t.DecBase,
		NominalBytes: t.NominalBytes,
	}
	before := a.db.TotalRows()
	conn := a.srv.ConnectWorker(w)
	loader, _ := a.loaders.Get().(*core.Loader)
	if loader != nil {
		loader.Rebind(conn)
	} else {
		var err error
		if loader, err = core.NewLoader(conn, a.cfg.Loader); err != nil {
			res.Err = err.Error()
			return res
		}
	}
	if err := loader.LoadFile(f); err != nil {
		res.Err = err.Error() // the loader stopped mid-file: it is not put back
		return res
	}
	a.loaders.Put(loader)
	loaded := a.db.TotalRows() - before
	a.rowsLoaded.Add(loaded)
	res.RowsLoaded = loaded
	stats := loader.Stats()
	res.RowsSkipped = int64(lines - len(recs) + stats.ParseErrors + stats.RowsSkipped)
	return res
}

func (a *Agent) handleQuery(w exec.Worker, q wire.Query) wire.Msg {
	res := wire.QueryResult{QueryID: q.QueryID}
	query, err := q.ToQuery()
	if err != nil {
		res.Err = err.Error()
		return res
	}
	qres, err := query.Run(a.db)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	a.queriesServed.Add(1)
	// The per-query CPU charged against the agent's worker, priced by the
	// single-node server's model: virtual time under DES, a no-op under
	// realtime.
	w.Sleep(serve.DefaultCostModel().QueryCost(qres.Stats))
	res.Stats = qres.Stats
	res.Objects = qres.Objects
	res.Bins = qres.Bins
	return res
}

func (a *Agent) statsReply() wire.Msg {
	return wire.Stats{
		ShardID:       a.ShardID(),
		Ready:         a.Ready(),
		Rows:          a.db.TotalRows(),
		RowsLoaded:    a.rowsLoaded.Load(),
		QueriesServed: a.queriesServed.Load(),
	}
}
