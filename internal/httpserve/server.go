// Package httpserve is the network front door of the serving stack: an HTTP
// API over internal/serve that turns the in-process query engine into a
// socket-reachable service with first-class observability.
//
// The paper's repository is dual-purpose — a warehouse loaded in bulk and "a
// query engine to support scientific research" (§4.5.1) — and the ROADMAP's
// million-user north star needs that query half reachable over a wire, not
// by function call.  This package adds exactly the transport layer, once:
// Server is the only HTTP type, and it fronts either a single database (New)
// or a shard fleet (NewShard).  Both are a serve.Server underneath — the
// coordinator is a serve.Engine — so a fleet query is admitted, shed and
// deadlined exactly like a single-node one.  It is never cached: no shard
// commit epoch crosses the wire yet, so the fleet's serve.Server runs with
// its result cache off.
//
//   - /v1/cone, /v1/object, /v1/frame, /v1/maghist: the science queries as
//     JSON endpoints.  Every request goes through the SAME serve.Server the
//     in-process scenarios use — worker pool, bounded admission with
//     shedding, queue-wait deadlines, epoch-invalidated result cache — via
//     exec.InlineRunner, so a socket client and a replayed trace contend on
//     identical machinery and are throttled by identical policies.
//   - /v1/stats: one envelope — "server" (the serve.Report) always, and
//     exactly one of "engine" (relstore.StatsSnapshot) or "fleet" (the
//     coordinator's scatter/gather counters and each shard's own stats).
//   - /metrics: the serving counters and latency histograms (sky_serve_*,
//     sky_workers_*, cumulative le-buckets), HTTP transport counters
//     (sky_http_*) and trace-layer counters (sky_trace_*) for both, plus the
//     backend's own families: every engine counter (sky_db_*, sky_wal_*,
//     buffer cache, per-index memory) for a database, sky_shard_* for a
//     fleet.  Hand-rolled Prometheus text format (internal/metrics
//     PromWriter, no client-library dependency).
//   - /healthz: readiness gated on relstore.DB.Ready() — a deferred-policy
//     load phase reports 503 until Seal, so a fronting load balancer keeps
//     latency-sensitive traffic away while indexes are suspended — or, for
//     a fleet, on every shard answering Ready.
//   - /debug/traces: the structured per-request trace ring (internal/trace);
//     /debug/pprof: the runtime profiler mux.
//
// Connection limiting happens at the listener (MaxConns) before HTTP parsing
// — the same backstop the paper's production system gets from its listener
// backlog — and request-level admission happens in serve.Server, so overload
// sheds cheap and early at both layers.
package httpserve

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"

	"skyloader/internal/exec"
	"skyloader/internal/metrics"
	"skyloader/internal/serve"
	"skyloader/internal/trace"
)

// Config controls the front door.
type Config struct {
	// MaxConns bounds concurrently accepted TCP connections; further
	// connections queue in the kernel backlog until one closes.  0 means
	// 4 × the serve worker-pool queue depth (sheds should happen at the
	// admission layer, where they are counted, not silently at the
	// listener).
	MaxConns int
	// TraceEvery samples one request in N into the trace ring (1 traces
	// everything, 0 means 16).  Sampling keeps the ring's mutex off the
	// common path.
	TraceEvery int
	// TraceRing is the trace ring capacity (0 means 512).
	TraceRing int
	// ReadTimeout/WriteTimeout bound slow clients (0: 10s / 30s).
	ReadTimeout, WriteTimeout time.Duration
}

// backend is the part of the front door that differs between a database and
// a shard fleet; everything else in this package is shared.
type backend interface {
	// unready is the /healthz probe: "" when traffic can be served, the 503
	// body otherwise.
	unready() string
	// stats fills exactly one of resp.Engine and resp.Fleet.
	stats(resp *StatsResponse)
	// writeMetrics renders the backend's own metric families.
	writeMetrics(p *metrics.PromWriter)
}

// Server is the HTTP front door over one serve.Server.
type Server struct {
	qs      *serve.Server
	backend backend
	inline  exec.InlineRunner
	tracer  *trace.Tracer
	cfg     Config
	mux     *http.ServeMux

	httpSrv  *http.Server
	listener net.Listener

	reqID atomic.Uint64
	// start anchors process "uptime" for the scrape.
	start time.Time

	// Transport-level accounting, by endpoint label.
	paths   []string
	reqs    map[string]*atomic.Int64
	errs    map[string]*atomic.Int64
	latency *metrics.Histogram
}

// New builds a front door over qs, a serve.Server over a database.  The
// server's scheduler must support inline execution (the realtime engine does;
// DES cannot serve sockets — virtual time has no meaning for a wall-clock
// client).
func New(qs *serve.Server, cfg Config) (*Server, error) {
	if qs.DB() == nil {
		return nil, fmt.Errorf("httpserve: New needs a serve.Server over a database (NewShard fronts a fleet)")
	}
	return newServer(qs, dbBackend{qs.DB()}, cfg)
}

func newServer(qs *serve.Server, b backend, cfg Config) (*Server, error) {
	inline, ok := qs.Scheduler().(exec.InlineRunner)
	if !ok {
		return nil, fmt.Errorf("httpserve: scheduler %T cannot run inline workers (use the realtime engine)", qs.Scheduler())
	}
	if cfg.TraceEvery == 0 {
		cfg.TraceEvery = 16
	}
	if cfg.TraceRing == 0 {
		cfg.TraceRing = 512
	}
	if cfg.ReadTimeout == 0 {
		cfg.ReadTimeout = 10 * time.Second
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = 30 * time.Second
	}
	s := &Server{
		qs:      qs,
		backend: b,
		inline:  inline,
		tracer:  trace.NewTracer(cfg.TraceRing, cfg.TraceEvery),
		cfg:     cfg,
		mux:     http.NewServeMux(),
		start:   time.Now(),
		reqs:    make(map[string]*atomic.Int64),
		errs:    make(map[string]*atomic.Int64),
		latency: metrics.NewHistogram(),
	}
	s.route(PathCone, s.handleQuery)
	s.route(PathObject, s.handleQuery)
	s.route(PathFrame, s.handleQuery)
	s.route(PathMagHist, s.handleQuery)
	s.route(PathStats, s.handleStats)
	s.route(PathMetrics, s.handleMetrics)
	s.route(PathHealthz, s.handleHealthz)
	s.route(PathTraces, s.handleTraces)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s, nil
}

// route registers a handler and its accounting counters.
func (s *Server) route(path string, h func(http.ResponseWriter, *http.Request, string)) {
	s.paths = append(s.paths, path)
	s.reqs[path] = new(atomic.Int64)
	s.errs[path] = new(atomic.Int64)
	s.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		h(w, r, path)
	})
}

// Tracer exposes the trace ring (tests and in-process reports).
func (s *Server) Tracer() *trace.Tracer { return s.tracer }

// Handler returns the root handler (tests drive it without a socket).
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on addr (host:port; port 0 picks a free port) and serves in
// a background goroutine until Close.  It returns the bound address.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	maxConns := s.cfg.MaxConns
	if maxConns <= 0 {
		maxConns = 4 * s.qs.ServeConfig().QueueDepth
	}
	s.listener = limitListener(ln, maxConns)
	s.httpSrv = &http.Server{
		Handler:      s.mux,
		ReadTimeout:  s.cfg.ReadTimeout,
		WriteTimeout: s.cfg.WriteTimeout,
	}
	go func() {
		// ErrServerClosed after Close is the clean shutdown path; anything
		// else would have been surfaced by the first failing request anyway.
		_ = s.httpSrv.Serve(s.listener)
	}()
	return ln.Addr(), nil
}

// Close stops the listener and in-flight connections.
func (s *Server) Close() error {
	if s.httpSrv == nil {
		return nil
	}
	return s.httpSrv.Close()
}

// observe records transport accounting for one request.
func (s *Server) observe(path string, status int, elapsed time.Duration) {
	if c := s.reqs[path]; c != nil {
		c.Add(1)
	}
	if status >= 400 {
		if c := s.errs[path]; c != nil {
			c.Add(1)
		}
	}
	s.latency.Observe(elapsed)
}

// limitListener bounds concurrently open accepted connections, the
// listener-level backstop under connection floods.  (Hand-rolled: the
// golang.org/x/net/netutil helper is a dependency this repo doesn't take.)
func limitListener(ln net.Listener, n int) net.Listener {
	return &limitedListener{Listener: ln, sem: make(chan struct{}, n)}
}

type limitedListener struct {
	net.Listener
	sem chan struct{}
}

func (l *limitedListener) Accept() (net.Conn, error) {
	l.sem <- struct{}{}
	c, err := l.Listener.Accept()
	if err != nil {
		<-l.sem
		return nil, err
	}
	return &limitedConn{Conn: c, release: l.release}, nil
}

func (l *limitedListener) release() { <-l.sem }

type limitedConn struct {
	net.Conn
	release func()
	closed  atomic.Bool
}

func (c *limitedConn) Close() error {
	err := c.Conn.Close()
	if c.closed.CompareAndSwap(false, true) {
		c.release()
	}
	return err
}
