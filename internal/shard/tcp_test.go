package shard

import (
	"testing"

	"skyloader/internal/catalog"
	"skyloader/internal/exec"
	"skyloader/internal/queries"
	"skyloader/internal/tuning"
)

// TestTCPFleetKillRestart drives the full TCP path: three agents on real
// sockets, a coordinator loading through them, byte-identity against the
// oracle, then a hard kill of one agent followed by RestoreShard onto a
// fresh agent and re-verification.
func TestTCPFleetKillRestart(t *testing.T) {
	files := catalog.GenerateNight(catalog.NightSpec{TotalMB: 2, Files: 3, RowsPerMB: 150, Seed: 31})
	oracle := buildOracle(t, files, tuning.ProductionLoading())

	sched := exec.NewRealtime(exec.RealtimeConfig{Seed: 3})
	inline := exec.InlineRunner(sched)
	const n = 3
	servers := make([]*AgentServer, n)
	clients := make([]Client, n)
	for i := 0; i < n; i++ {
		a, err := NewAgent(sched, DefaultAgentConfig())
		if err != nil {
			t.Fatal(err)
		}
		srv, err := ServeAgent(a, sched, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		servers[i] = srv
		cl, err := DialShard(srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = cl
	}
	pm, err := PartitionFromFiles(files, n)
	if err != nil {
		t.Fatal(err)
	}
	co, err := New(sched, pm, clients, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	inline.RunInline("tcp-setup", func(w exec.Worker) {
		if err := co.Hello(w); err != nil {
			t.Error(err)
			return
		}
		if _, err := co.LoadFiles(w, files); err != nil {
			t.Error(err)
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	// The mixed workload plus four fixed cases: a cone on the first file's
	// footprint, an empty cone, a miss lookup and a histogram.
	qs := append(testQueries(files, 15),
		queries.Cone{RA: files[0].RABase + 1.0, Dec: files[0].DecBase + 0.4, RadiusDeg: 1.5},
		queries.Cone{RA: 200, Dec: -75, RadiusDeg: 0.2},
		queries.ObjectLookup{ObjectID: 42},
		queries.MagHistogram{BinWidth: 0.5},
	)
	assertOracleIdentical(t, co, inline, oracle, qs)

	// Kill shard 1 — server down, its rows gone with the process.
	if err := servers[1].Close(); err != nil {
		t.Fatal(err)
	}
	var readyDown bool
	inline.RunInline("probe-down", func(w exec.Worker) { readyDown = co.Ready(w) })
	if readyDown {
		t.Fatal("fleet reported ready with a dead shard")
	}

	// Bring up a replacement on a new port and load its share again.
	replacement, err := NewAgent(sched, DefaultAgentConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ServeAgent(replacement, sched, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := DialShard(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	inline.RunInline("restore", func(w exec.Worker) {
		if err := co.RestoreShard(w, 1, cl, files); err != nil {
			t.Error(err)
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	assertOracleIdentical(t, co, inline, oracle, qs)

	snap := co.Snapshot()
	if snap.BytesSent == 0 || snap.BytesReceived == 0 {
		t.Fatalf("no bytes accounted on the wire: %+v", snap)
	}
}
