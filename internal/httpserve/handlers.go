package httpserve

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"time"

	"skyloader/internal/exec"
	"skyloader/internal/queries"
	"skyloader/internal/relstore"
	"skyloader/internal/serve"
	"skyloader/internal/trace"
)

// QueryResponse is the JSON envelope of every query endpoint.
type QueryResponse struct {
	RequestID uint64 `json:"request_id"`
	Outcome   string `json:"outcome"`
	// ElapsedNS is the server-side wall time of the request (admission wait
	// included), so a client can split its measured latency into server time
	// and network/queueing time.
	ElapsedNS int64 `json:"elapsed_ns"`

	Objects []queries.Object       `json:"objects,omitempty"`
	Bins    []queries.MagnitudeBin `json:"bins,omitempty"`
	Stats   queries.Stats          `json:"stats"`

	Error string `json:"error,omitempty"`
}

// bodyPool recycles the buffers query responses are built in; a buffer that
// grew past maxPooledBody (a very large answer) is left to the collector.
var bodyPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

const maxPooledBody = 256 << 10

// handleQuery serves the four science-query endpoints: parse, execute
// through the serve layer's admission/cache/engine path on this goroutine
// (inline worker), answer.  An answered query's body is the answer's bytes
// from serve.Server.ExecuteBody — copied from the result cache on a hit,
// appended by encodeAnswer on a miss — framed with this request's members and
// sent in one Write with Content-Length set; every other outcome gets a
// json.Encoder error body.  Tracing: one request in cfg.TraceEvery carries a
// stack-allocated trace.Req through the stages; the encode span closes after
// the response bytes are handed to the socket.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, path string) {
	q, err := parseQuery(path, r.URL.Query())
	if err != nil {
		s.fail(w, path, http.StatusBadRequest, 0, err)
		return
	}
	id := s.reqID.Add(1)
	var tr *trace.Req
	if s.tracer.Sample() {
		tr = new(trace.Req) // escapes into the publish below; one alloc per SAMPLED request
	}

	pooled := bodyPool.Get().(*[]byte)
	buf := (*pooled)[:headRoom]
	s.inline.RunInline("http-"+q.Class(), func(wk exec.Worker) {
		began := wk.Now()
		tr.Begin(id, q.Class(), began)
		var (
			outcome serve.Outcome
			execErr error
		)
		_, buf, outcome, execErr = s.qs.ExecuteBody(wk, q, tr, buf, encodeAnswer)
		elapsed := int64(wk.Now() - began)

		h := w.Header()
		h.Set("Content-Type", "application/json")
		h.Set("X-Request-ID", strconv.FormatUint(id, 10))
		status := http.StatusInternalServerError
		switch outcome {
		case serve.OutcomeServed, serve.OutcomeCacheHit:
			status = http.StatusOK
			body := frame(buf, id, outcome.String(), elapsed)
			h.Set("Content-Length", strconv.Itoa(len(body)))
			w.WriteHeader(status)
			_, _ = w.Write(body)
		case serve.OutcomeShed:
			status = http.StatusServiceUnavailable
			h.Set("Retry-After", "1")
		case serve.OutcomeExpired:
			status = http.StatusGatewayTimeout
		}
		if status != http.StatusOK {
			resp := QueryResponse{RequestID: id, Outcome: outcome.String(), ElapsedNS: elapsed}
			if execErr != nil {
				resp.Error = execErr.Error()
			}
			w.WriteHeader(status)
			_ = json.NewEncoder(w).Encode(resp)
		}
		tr.Finish(outcome.String(), trace.StageEncode, wk.Now())
		s.observe(path, status, wk.Now()-began)
	})
	if cap(buf) <= maxPooledBody {
		*pooled = buf[:0]
		bodyPool.Put(pooled)
	}
	if tr != nil {
		s.tracer.Publish(tr)
	}
}

// StatsResponse is the JSON envelope of /v1/stats: the serving report always,
// and exactly one of Engine (a database behind the front door) and Fleet (a
// shard coordinator) — the same structs the in-process reports use.
type StatsResponse struct {
	Server serve.Report            `json:"server"`
	Engine *relstore.StatsSnapshot `json:"engine,omitempty"`
	Fleet  *FleetStats             `json:"fleet,omitempty"`
	// TracesPublished counts traces captured into the ring since start.
	TracesPublished uint64 `json:"traces_published"`
	UptimeNS        int64  `json:"uptime_ns"`
}

// handleStats serves the machine-readable stats snapshot skystorm prints
// next to its client-side histograms.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request, path string) {
	began := time.Now()
	resp := StatsResponse{
		Server:          s.qs.Report(s.qs.Scheduler().Now()),
		TracesPublished: s.tracer.Published(),
		UptimeNS:        int64(time.Since(s.start)),
	}
	s.backend.stats(&resp)
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		s.observe(path, http.StatusInternalServerError, time.Since(began))
		return
	}
	s.observe(path, http.StatusOK, time.Since(began))
}

// handleHealthz is the readiness probe: 200 when the backend can serve, 503
// with the backend's reason otherwise.  Load balancers use it to keep
// latency-expecting traffic away until indexed reads are possible.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request, path string) {
	began := time.Now()
	status, body := http.StatusOK, "ok\n"
	if why := s.backend.unready(); why != "" {
		status, body = http.StatusServiceUnavailable, why
	}
	w.WriteHeader(status)
	_, _ = w.Write([]byte(body))
	s.observe(path, status, time.Since(began))
}

// dbBackend is a single database behind the front door.
type dbBackend struct{ db *relstore.DB }

// unready reports a database not ready while any index is suspended (an open
// BeginLoad/Seal window) or a StartRecover WAL replay is in flight.
func (b dbBackend) unready() string {
	if b.db.Ready() {
		return ""
	}
	return "loading: indexes not ready\n"
}

func (b dbBackend) stats(resp *StatsResponse) {
	snap := b.db.StatsSnapshot()
	resp.Engine = &snap
}

// TraceDump is the JSON shape of one dumped trace.
type TraceDump struct {
	RequestID uint64           `json:"request_id"`
	Class     string           `json:"class"`
	Outcome   string           `json:"outcome"`
	StartNS   int64            `json:"start_ns"`
	TotalNS   int64            `json:"total_ns"`
	Stages    map[string]int64 `json:"stages_ns"`
}

// handleTraces dumps the trace ring: ?n=K returns the K slowest traces,
// otherwise the whole ring oldest-first.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request, path string) {
	began := time.Now()
	var reqs []trace.Req
	if raw := r.URL.Query().Get("n"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n <= 0 {
			s.fail(w, path, http.StatusBadRequest, time.Since(began), err)
			return
		}
		reqs = s.tracer.Slowest(n)
	} else {
		reqs = s.tracer.Snapshot()
	}
	out := make([]TraceDump, 0, len(reqs))
	for i := range reqs {
		out = append(out, dumpTrace(&reqs[i]))
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
	s.observe(path, http.StatusOK, time.Since(began))
}

func dumpTrace(r *trace.Req) TraceDump {
	d := TraceDump{
		RequestID: r.ID,
		Class:     r.Class,
		Outcome:   r.Outcome,
		StartNS:   int64(r.Start),
		TotalNS:   int64(r.Total()),
		Stages:    make(map[string]int64, trace.NumStages),
	}
	for st, dur := range r.Stages {
		if dur > 0 {
			d.Stages[trace.Stage(st).String()] = int64(dur)
		}
	}
	return d
}

// fail writes a JSON error body and accounts the failure.
func (s *Server) fail(w http.ResponseWriter, path string, status int, elapsed time.Duration, err error) {
	msg := http.StatusText(status)
	if err != nil {
		msg = err.Error()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
	s.observe(path, status, elapsed)
}
