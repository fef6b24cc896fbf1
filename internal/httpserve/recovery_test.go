package httpserve

import (
	"net/http"
	"strings"
	"sync"
	"testing"

	"skyloader/internal/catalog"
	"skyloader/internal/exec"
	"skyloader/internal/relstore"
	"skyloader/internal/serve"
)

// TestHealthzDuringRecovery proves the readiness probe keeps traffic away
// while WAL replay is rebuilding the store: /healthz answers 503 from the
// moment the front door is up until Recover finishes, then flips to 200.
func TestHealthzDuringRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := relstore.Open(catalog.NewSchema(), relstore.WithWALDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	txn, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := catalog.SeedReference(txn, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Hold replay at its first applied record so the recovering window is
	// wide enough to probe.
	gate := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	h, err := relstore.StartRecover(catalog.NewSchema(), dir,
		relstore.WithFaultHook(func(p relstore.FaultPoint) error {
			if p == relstore.FPReplay {
				once.Do(func() {
					close(started)
					<-gate
				})
			}
			return nil
		}))
	if err != nil {
		t.Fatal(err)
	}

	sched := exec.NewRealtime(exec.RealtimeConfig{Seed: 1})
	qs := serve.NewServer(sched, h.DB(), serve.Config{Workers: 1, QueueDepth: 8})
	front, err := New(qs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := front.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { front.Close() })
	env := &httpEnv{base: "http://" + addr.String(), client: http.DefaultClient}

	<-started
	if status, body := env.get(t, PathHealthz); status != http.StatusServiceUnavailable {
		t.Fatalf("healthz during replay: %d %s, want 503", status, body)
	}

	close(gate)
	if _, err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	if status, body := env.get(t, PathHealthz); status != http.StatusOK {
		t.Fatalf("healthz after replay: %d %s, want 200", status, body)
	}

	// The scrape surfaces the replay counters.
	status, metricsBody := env.get(t, PathMetrics)
	if status != http.StatusOK {
		t.Fatalf("metrics: %d", status)
	}
	for _, want := range []string{
		"sky_wal_durable 1",
		"sky_wal_replay_records_total",
		"sky_wal_replay_rows_total",
		"sky_wal_replay_torn_tail_total 0",
		"sky_wal_checkpoints_total",
		"sky_wal_commit_wait_seconds_total",
		"sky_wal_shared_flushes_total",
	} {
		if !containsLine(string(metricsBody), want) {
			t.Fatalf("metrics scrape missing %q", want)
		}
	}
}

// containsLine reports whether any line of the exposition starts with prefix.
func containsLine(body, prefix string) bool {
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, prefix) {
			return true
		}
	}
	return false
}
