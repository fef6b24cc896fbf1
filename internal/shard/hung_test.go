package shard_test

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"skyloader/internal/exec"
	"skyloader/internal/httpserve"
	"skyloader/internal/queries"
	"skyloader/internal/shard"
)

// silentListener accepts connections and never reads or answers: an agent
// whose process is alive but hung.
type silentListener struct {
	ln    net.Listener
	mu    sync.Mutex
	conns []net.Conn
	done  chan struct{}
}

func listenSilent(t *testing.T, addr string) *silentListener {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	s := &silentListener{ln: ln, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns = append(s.conns, c)
			s.mu.Unlock()
		}
	}()
	return s
}

func (s *silentListener) close() {
	s.ln.Close()
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.conns {
		c.Close()
	}
}

// TestHungAgentFailsClosed: one agent of three accepts and never answers.
// Every call that touches it must fail within the per-call deadline instead
// of holding the client mutex forever — the query comes back as an error
// envelope, /healthz as 503 — and once a live agent is back on the address
// the same client re-dials and the fleet serves again.
func TestHungAgentFailsClosed(t *testing.T) {
	const (
		n       = 3
		hung    = 1
		timeout = 100 * time.Millisecond
		// bound is how long a call that meets the hung agent may take: its
		// deadline plus generous scheduling slack, far below "forever".
		bound = 3 * time.Second
	)
	sched := exec.NewRealtime(exec.RealtimeConfig{Seed: 17})
	silent := listenSilent(t, "127.0.0.1:0")
	addr := silent.ln.Addr().String()

	clients := make([]shard.Client, n)
	for i := range clients {
		if i == hung {
			cl, err := shard.DialShardTimeout(addr, timeout)
			if err != nil {
				t.Fatal(err)
			}
			clients[i] = cl
			continue
		}
		a, err := shard.NewAgent(sched, shard.DefaultAgentConfig())
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = shard.NewMemClient(sched, a, shard.NetModel{})
	}
	pm, err := shard.NewUniformPartition(n)
	if err != nil {
		t.Fatal(err)
	}
	co, err := shard.New(sched, pm, clients, shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	hello := func() (err error) {
		sched.RunInline("hello", func(w exec.Worker) { err = co.Hello(w) })
		return err
	}
	if err := hello(); err == nil {
		t.Fatal("Hello succeeded against a hung agent")
	}

	front, err := httpserve.NewShard(co, httpserve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	get := func(path string) (int, []byte, time.Duration) {
		began := time.Now()
		rec := httptest.NewRecorder()
		front.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Code, rec.Body.Bytes(), time.Since(began)
	}
	lookup, _ := httpserve.QueryURL(queries.ObjectLookup{ObjectID: 7}) // broadcast: reaches every shard

	status, body, took := get(lookup)
	var resp httpserve.QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("query body %q: %v", body, err)
	}
	if status != http.StatusInternalServerError || resp.Outcome != "error" || resp.Error == "" {
		t.Fatalf("query through a hung shard: status %d, envelope %+v", status, resp)
	}
	if took < timeout || took > bound {
		t.Fatalf("query through a hung shard took %s, want the %s deadline", took, timeout)
	}
	if status, _, took := get(httpserve.PathHealthz); status != http.StatusServiceUnavailable || took > bound {
		t.Fatalf("healthz with a hung shard: status %d after %s, want 503 within %s", status, took, bound)
	}

	// The agent comes back on the same address; the client that timed out
	// dropped its connection, so its next call dials the live one.
	silent.close()
	a, err := shard.NewAgent(sched, shard.DefaultAgentConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := shard.ServeAgent(a, sched, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := hello(); err != nil {
		t.Fatalf("Hello after the agent came back: %v", err)
	}
	if status, body, _ := get(httpserve.PathHealthz); status != http.StatusOK {
		t.Fatalf("healthz after the agent came back: %d %s", status, body)
	}
	if status, body, _ := get(lookup); status != http.StatusOK {
		t.Fatalf("query after the agent came back: %d %s", status, body)
	}
}
