package main

import (
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"skyloader/internal/catalog"
	"skyloader/internal/core"
	"skyloader/internal/exec"
	"skyloader/internal/httpserve"
	"skyloader/internal/parallel"
	"skyloader/internal/serve"
	"skyloader/internal/tuning"
)

// runHTTP loads the catalog on the realtime engine and serves the query API
// over HTTP until interrupted (or, with -smoke, self-checks and exits).
func runHTTP(addr string, seed int64, prof tuning.Profile, files []*catalog.File,
	serveCfg serve.Config, loaders int, traceEvery int, smoke bool) {
	sched := exec.NewRealtime(exec.RealtimeConfig{Seed: seed})
	load, qs, db := buildEnv(sched, prof, serveCfg)

	loadRes, err := parallel.Run(load, files, parallel.Config{
		Loaders:       loaders,
		Loader:        core.Config{BatchSize: 40, ArraySize: 1000, ChargeStaging: true},
		SealAfterLoad: prof.DeferredIndexBuild,
	})
	if err != nil {
		fatal(err)
	}
	printLoad(&loadRes, false, 0)
	if !db.Ready() {
		fatal(fmt.Errorf("indexes not ready after load"))
	}

	front, err := httpserve.New(qs, httpserve.Config{TraceEvery: traceEvery})
	if err != nil {
		fatal(err)
	}
	bound, err := front.Start(addr)
	if err != nil {
		fatal(err)
	}
	defer front.Close()
	fmt.Printf("serving HTTP on %s (%s %s %s %s; %s; %s; %s)\n", bound,
		httpserve.PathCone, httpserve.PathObject, httpserve.PathFrame, httpserve.PathMagHist,
		httpserve.PathMetrics, httpserve.PathHealthz, httpserve.PathTraces)

	if smoke {
		err := httpserve.Smoke("http://"+bound.String(),
			"sky_db_rows_inserted_total", "sky_wal_syncs_total", "sky_relstore_resident_bytes",
			"sky_serve_requests_total", "sky_serve_latency_seconds", "sky_http_requests_total")
		if err != nil {
			fmt.Fprintln(os.Stderr, "skyserve: http smoke failed:", err)
			os.Exit(1)
		}
		fmt.Println("smoke: OK")
		return
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("\nshutting down")
	rep := qs.Report(sched.Now())
	if err := rep.Render(os.Stdout); err != nil {
		fatal(err)
	}
}
