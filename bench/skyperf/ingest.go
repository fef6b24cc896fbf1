package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"skyloader/bench/gen"
	"skyloader/internal/catalog"
	"skyloader/internal/queries"
	"skyloader/internal/relstore"
	"skyloader/internal/tuning"
)

// ingestInputs is what set-up leaves for the ingest workloads.
type ingestInputs struct {
	night *gen.Night
	// late is one small extra file; ingest-durable leaves rows of it in an
	// unacknowledged transaction when it kills the database.
	late *gen.Night
	cold []queries.Query
}

// setUpIngest generates and serialises the night (with its untimed
// 1/10-size warm-up load) and the late file, and builds the cold trace that
// is served from the loaded database afterwards: what the first queries
// after the nightly load see.
func setUpIngest(r *run) (*ingestInputs, error) {
	in := &ingestInputs{}
	var err error
	if in.night, err = setUpCatalog(r, "night", ingestFiles, ingestRows, errorRate); err != nil {
		return nil, err
	}
	dir, err := r.dir("late")
	if err != nil {
		return nil, err
	}
	in.late, err = gen.WriteNight(gen.Spec{Dir: dir, Prefix: "late", Files: 1, Rows: 200, Seed: r.seed, FirstFile: ingestFiles})
	if err != nil {
		return nil, err
	}
	in.cold = gen.ColdTrace(in.night, r.seed+1, coldTraceLen(in.night))
	return in, nil
}

// ingestBulk: catalog.ReadRecords on the text, then parallel.Run into a
// database with immediate indexes and no WAL directory.
func ingestBulk(r *run) error {
	var in *ingestInputs
	if err := r.setUp(func() (err error) { in, err = setUpIngest(r); return }); err != nil {
		return err
	}
	db, err := bulkReps(r, in.night)
	if err != nil {
		return err
	}
	return serveDB(r, db, in.cold, afterLoadQPS)
}

// ingestDurable: the same text into a WAL-backed database with deferred
// indexes and a commit every durableCommitEvery batches: BeginLoad, the
// first 5/7 of the files, Checkpoint, the rest, Seal; then the database is
// killed with one unacknowledged transaction open, recovered from the WAL
// directory and re-indexed.  The recovered database serves the queries.
func ingestDurable(r *run) error {
	var in *ingestInputs
	if err := r.setUp(func() (err error) { in, err = setUpIngest(r); return }); err != nil {
		return err
	}
	var d durableReps
	deadline := time.Now().Add(r.budget(ingestShare))
	for rep := 0; rep < r.minReps() || time.Now().Before(deadline); rep++ {
		d.db = nil
		if err := d.run(r, rep, in); err != nil {
			return err
		}
	}
	d.loadReps.report(r)
	r.res.extra("recover_s", "s", summarize(d.recover))
	r.res.extra("wal_bytes_per_user_byte", "ratio", summarize(d.walRatio))
	return serveDB(r, d.db, in.cold, afterLoadQPS)
}

// durableReps is ingest-durable's repetitions: the load measurements every
// workload has, plus recovery.
type durableReps struct {
	loadReps
	recover, walRatio []float64
	db                *relstore.DB // the last repetition's recovered database
}

func (d *durableReps) run(r *run, rep int, in *ingestInputs) error {
	walDir, err := r.dir("wal")
	if err != nil {
		return err
	}
	before := liveHeap()
	r.probe()
	db, err := openDB(relstore.IndexDeferred, relstore.WithWALDir(walDir))
	if err != nil {
		return err
	}
	if err := db.BeginLoad(); err != nil {
		return err
	}
	cfg := loadConfig(r.par, durableCommitEvery)
	split := len(in.night.Files) * 5 / 7

	out, err := parseAndLoad(db, in.night.Files[:split], cfg, r.seed)
	if err != nil {
		return err
	}
	checkpointS, err := timeIt(db.Checkpoint)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	rest, err := parseAndLoad(db, in.night.Files[split:], cfg, r.seed)
	if err != nil {
		return err
	}
	out.merge(rest)
	sealS, err := timeIt(func() error { _, err := db.Seal(); return err })
	if err != nil {
		return fmt.Errorf("seal: %w", err)
	}
	d.note(r, rep, out, out.seconds()+checkpointS+sealS, db, before, in.night.Bytes)

	wal := db.StatsSnapshot().WAL
	d.walRatio = append(d.walRatio, float64(wal.DurableBytes+checkpointBytes(walDir))/float64(in.night.Bytes))
	acknowledged := tableCounts(db)

	// Kill: open a transaction, insert rows, never commit, and abandon the
	// handle without Close.  The WAL device hands bytes to the operating
	// system only inside a sync, so the files hold exactly the fsynced bytes.
	lateObs, err := insertUnacknowledged(db, in.late.Files[0])
	if err != nil {
		return err
	}
	db = nil

	var rec *relstore.DB
	var report relstore.RecoveryReport
	recoverS, err := timeIt(func() (err error) {
		rec, report, err = relstore.Recover(catalog.NewSchema(), walDir, relstore.WithConfig(tuning.ProductionLoading().DBConfig()))
		if err != nil {
			return err
		}
		// Secondary indexes live outside the schema; recovery ends when they
		// are rebuilt and the database reports Ready.
		return tuning.ApplyIndexPolicyWith(rec, benchIndexes, relstore.IndexImmediate)
	})
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	d.recover = append(d.recover, recoverS)
	d.db = rec

	err = nil
	if !rec.Ready() {
		err = fmt.Errorf("DB.Ready() is false after recovery")
	}
	d.checks.note("recovered database ready once re-indexed", inRep(rep, err))
	err = nil
	if got := tableCounts(rec); got != acknowledged {
		err = fmt.Errorf("recovered %s, acknowledged %s", got, acknowledged)
	}
	d.checks.note("recovered per-table rows equal those at the last acknowledged commit", inRep(rep, err))
	row, err := rec.LookupByPK(catalog.TObservations, []relstore.Value{relstore.Int(lateObs)})
	if err == nil && (row != nil || report.DiscardedTxns > 1) {
		err = fmt.Errorf("observation %d of the uncommitted transaction found: %v; recovery discarded %d transactions", lateObs, row != nil, report.DiscardedTxns)
	}
	d.checks.note("unacknowledged transaction absent after recovery", inRep(rep, err))
	d.checks.note("recovered database passes VerifyIntegrity and VerifyPrimaryKeys", inRep(rep, verifyDB(rec)))
	return nil
}

// insertUnacknowledged leaves the first rows of the late file inserted in an
// open transaction and returns the observation id among them.
func insertUnacknowledged(db *relstore.DB, late gen.FileFacts) (int64, error) {
	p, err := parseFiles([]gen.FileFacts{late})
	if err != nil {
		return 0, err
	}
	txn, err := db.Begin()
	if err != nil {
		return 0, err
	}
	tr := catalog.NewTransformer(db.Schema())
	var obs int64
	for _, rec := range p.files[0].Records[:50] {
		row, err := tr.Transform(rec)
		if err != nil {
			return 0, fmt.Errorf("late file: %w", err)
		}
		if _, err := txn.Insert(row.Table, row.Columns, row.Values); err != nil {
			return 0, fmt.Errorf("late file: %w", err)
		}
		if rec.Tag == catalog.TagOBS {
			obs = row.Values[0].Int()
		}
	}
	return obs, nil
}

// checkpointBytes sums the checkpoint files in a WAL directory.
func checkpointBytes(walDir string) int64 {
	names, _ := filepath.Glob(filepath.Join(walDir, "checkpoint-*.ckpt"))
	var n int64
	for _, name := range names {
		if info, err := os.Stat(name); err == nil {
			n += info.Size()
		}
	}
	return n
}
