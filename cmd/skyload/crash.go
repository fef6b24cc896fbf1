package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"sort"

	"skyloader/internal/catalog"
	"skyloader/internal/relstore"
	"skyloader/internal/tuning"
)

// The -crash scenario is the end-to-end durability check: load a generated
// night into a WAL-backed store, kill the process (via a fault-point panic)
// at a random log append, recover from the directory, resume the remaining
// batches, and require the final state — row counts, per-index iteration
// order, stats row totals — to be byte-identical to an uninterrupted
// in-memory run of the same plan.  Everything is derived from -seed, so a
// fixed seed gives a fixed kill point and fixed output for CI.

// crashKilled is the sentinel the kill hook panics with; anything else
// escaping the load is a real bug and re-panics.
type crashKilled struct{ append int64 }

// crashBatch is one planned transaction: a contiguous run of transformed
// rows committed together.
type crashBatch []catalog.TransformedRow

// runCrash drives the scenario and exits nonzero on any divergence.
func runCrash(seed int64, sizeMB float64, batchRows int, verbose bool) {
	if sizeMB <= 0 {
		sizeMB = 2
	}
	if batchRows <= 0 {
		batchRows = 40
	}
	file := catalog.Generate(catalog.GenSpec{
		SizeMB: sizeMB, RowsPerMB: 100, Seed: seed, ErrorRate: 0,
		RunID: 1, IDBase: 10_000_000,
	})

	// Transform every record up front so both runs apply the identical plan.
	tr := catalog.NewTransformer(catalog.NewSchema())
	var rows []catalog.TransformedRow
	for _, rec := range file.Records {
		row, err := tr.Transform(rec)
		if err != nil {
			fatal(fmt.Errorf("crash scenario: clean input failed to transform: %w", err))
		}
		rows = append(rows, row)
	}
	var batches []crashBatch
	for i := 0; i < len(rows); i += batchRows {
		end := i + batchRows
		if end > len(rows) {
			end = len(rows)
		}
		batches = append(batches, crashBatch(rows[i:end]))
	}
	fmt.Printf("crash scenario:      seed=%d rows=%d batches=%d (batch=%d)\n",
		seed, len(rows), len(batches), batchRows)

	// Reference: the same plan, uninterrupted, on a plain in-memory store.
	ref := openCrashDB(nil)
	applyCrashBatches(ref, batches, 0)
	refDigest := crashDigest(ref)

	// Crash run: durable store, killed at a random append once the load is
	// past seeding.  Small segments and an aggressive auto-checkpoint make
	// the recovery exercise rotation, truncation and checkpoint-bounded
	// replay, not just a single-segment scan.
	walDir, err := os.MkdirTemp("", "skyload-crash-*")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(walDir)

	// Every row insert and commit marker is one append; killing within that
	// budget is guaranteed to interrupt the load.
	rng := rand.New(rand.NewSource(seed * 7919))
	killAt := 1 + rng.Int63n(int64(len(rows)+len(batches)))
	var armed bool
	var appends int64
	kill := func(p relstore.FaultPoint) error {
		if p == relstore.FPWALAppend && armed {
			if appends++; appends >= killAt {
				panic(crashKilled{append: appends})
			}
		}
		return nil
	}
	durableOpts := []relstore.Option{
		relstore.WithWALDir(walDir),
		relstore.WithWALSegmentBytes(8 << 10),
		relstore.WithCheckpointEvery(16 << 10),
		relstore.WithFaultHook(kill),
	}
	crashDB := openCrashDB(durableOpts)
	armed = true
	committed, kp := applyCrashBatchesUntilKilled(crashDB, batches)
	if kp < 0 {
		fatal(fmt.Errorf("crash scenario: kill at append %d never fired (%d appends seen)", killAt, appends))
	}
	armed = false
	fmt.Printf("killed:              at log append %d, %d/%d batches committed\n",
		kp, committed, len(batches))

	// Recover from the directory the dead process left behind, rebuild the
	// secondary indexes (they live outside the schema), and resume the load
	// from the first uncommitted batch.
	prof := tuning.ProductionLoading()
	recoverOpts := append([]relstore.Option{relstore.WithConfig(prof.DBConfig())}, durableOpts[1:]...)
	rec, rep, err := relstore.Recover(catalog.NewSchema(), walDir, recoverOpts...)
	if err != nil {
		fatal(fmt.Errorf("crash scenario: recover: %w", err))
	}
	if err := tuning.ApplyIndexPolicyWith(rec, prof.Indexes, relstore.IndexImmediate); err != nil {
		fatal(err)
	}
	fmt.Printf("recovered:           checkpoint rows=%d replayed records=%d rows=%d torn=%d discarded txns=%d\n",
		rep.CheckpointRows, rep.ReplayedRecords, rep.ReplayedRows, rep.TornTailRecords, rep.DiscardedTxns)
	applyCrashBatches(rec, batches, committed)
	fmt.Printf("resumed:             %d batches\n", len(batches)-committed)

	gotDigest := crashDigest(rec)
	if err := compareCrashDigests(refDigest, gotDigest); err != nil {
		fmt.Printf("crash/recover: MISMATCH: %v\n", err)
		os.Exit(1)
	}
	if verbose {
		for _, td := range refDigest {
			fmt.Printf("  %-22s rows=%-8d indexes=%d\n", td.table, td.rows, len(td.indexes))
		}
	}
	fmt.Printf("verified:            %d tables, per-index iteration order and stats identical\n", len(refDigest))
	fmt.Println("crash/recover: OK")
}

// openCrashDB builds the store the way the bulk loader does: production
// tuning, reference tables seeded, secondary indexes applied.
func openCrashDB(extra []relstore.Option) *relstore.DB {
	db, err := tuning.ProductionLoading().Open(extra...)
	if err != nil {
		fatal(err)
	}
	return db
}

// applyCrashBatches commits batches[from:] one transaction each.
func applyCrashBatches(db *relstore.DB, batches []crashBatch, from int) {
	for i := from; i < len(batches); i++ {
		txn, err := db.Begin()
		if err != nil {
			fatal(err)
		}
		for _, row := range batches[i] {
			if _, err := txn.Insert(row.Table, row.Columns, row.Values); err != nil {
				fatal(fmt.Errorf("crash scenario: batch %d insert into %s: %w", i, row.Table, err))
			}
		}
		if _, err := txn.Commit(); err != nil {
			fatal(err)
		}
	}
}

// applyCrashBatchesUntilKilled applies batches until the kill hook fires.
// It returns the number of fully committed batches and the append the kill
// fired at, or -1 if the whole load completed.
func applyCrashBatchesUntilKilled(db *relstore.DB, batches []crashBatch) (committed int, killAppend int64) {
	killAppend = -1
	func() {
		defer func() {
			if r := recover(); r != nil {
				k, ok := r.(crashKilled)
				if !ok {
					panic(r)
				}
				killAppend = k.append
			}
		}()
		applyCrashBatches(db, batches, 0)
	}()
	if killAppend < 0 {
		return len(batches), -1
	}
	return countCommittedBatches(db, batches), killAppend
}

// countCommittedBatches reports the length of the committed batch prefix by
// probing each batch's last row; the load is sequential, so commits form a
// prefix.
func countCommittedBatches(db *relstore.DB, batches []crashBatch) int {
	n := 0
	for _, b := range batches {
		last := b[len(b)-1]
		pk := []relstore.Value{last.Values[0]}
		row, err := db.LookupByPK(last.Table, pk)
		if err != nil || row == nil {
			break
		}
		n++
	}
	return n
}

// crashTableDigest is one table's comparable state.
type crashTableDigest struct {
	table   string
	rows    int64
	indexes map[string]uint64 // index name -> iteration-order hash
}

// crashDigest captures row counts, stats totals and a per-index hash of the
// full ascend order (key bytes and row-id postings).
func crashDigest(db *relstore.DB) []crashTableDigest {
	var out []crashTableDigest
	names := db.Schema().TableNames()
	sort.Strings(names)
	for _, name := range names {
		t := db.Table(name)
		td := crashTableDigest{table: name, rows: t.RowCount(), indexes: map[string]uint64{}}
		for _, ix := range t.Indexes() {
			h := fnv.New64a()
			ix.Tree().AscendRange(nil, nil, func(key []byte, rowIDs []int64) bool {
				_, _ = h.Write(key)
				for _, id := range rowIDs {
					var b [8]byte
					for i := 0; i < 8; i++ {
						b[i] = byte(id >> (8 * i))
					}
					_, _ = h.Write(b[:])
				}
				return true
			})
			td.indexes[ix.Name] = h.Sum64()
		}
		out = append(out, td)
	}
	// Stats totals ride along as a pseudo-table so one comparison covers
	// everything the scenario promises.
	snap := db.StatsSnapshot()
	out = append(out, crashTableDigest{
		table:   "(stats)",
		rows:    snap.DB.RowsInserted,
		indexes: map[string]uint64{"total_rows": uint64(snap.TotalRows)},
	})
	return out
}

// compareCrashDigests reports the first divergence between two digests.
func compareCrashDigests(want, got []crashTableDigest) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d tables vs %d", len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.table != g.table {
			return fmt.Errorf("table order %q vs %q", w.table, g.table)
		}
		if w.rows != g.rows {
			return fmt.Errorf("table %s: %d rows vs %d", w.table, w.rows, g.rows)
		}
		if len(w.indexes) != len(g.indexes) {
			return fmt.Errorf("table %s: %d indexes vs %d", w.table, len(w.indexes), len(g.indexes))
		}
		for name, wh := range w.indexes {
			gh, ok := g.indexes[name]
			if !ok {
				return fmt.Errorf("table %s: index %s missing after recovery", w.table, name)
			}
			if wh != gh {
				return fmt.Errorf("table %s: index %s iteration order diverged", w.table, name)
			}
		}
	}
	return nil
}
