package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"skyloader/bench/gen"
	"skyloader/internal/arrayset"
	"skyloader/internal/catalog"
	"skyloader/internal/core"
	"skyloader/internal/exec"
	"skyloader/internal/htm"
	"skyloader/internal/parallel"
	"skyloader/internal/relstore"
	"skyloader/internal/sqlbatch"
	"skyloader/internal/tuning"
)

// The ingest side of the traced run is a staged replay: the same input files
// pushed, file by file, through each layer's public entry point, each stage
// materialising the next stage's input.
//
//	S1  catalog.ReadRecords
//	S2  Transformer.Transform          (S2b: htm.Lookup alone, same coordinates)
//	S3  arrayset.Add / Drain
//	S4  sqlbatch Stmt.ExecuteBatchRows + Conn.Commit
//	S4' relstore Txn.InsertBatch + Commit on fresh databases, with and
//	    without secondary indexes and a WAL directory, so that index
//	    maintenance and WAL append are differences of two outside measurements
//	S5  Seal   S6 Checkpoint   S7 Recover   S8 re-index   (ingest-durable)
//	E1  core.Loader.LoadFiles, one loader   E2 parallel.Run
//
// S1..S4 together are what E1 does untraced, so their sum against E1 is the
// tracing overhead, and a layer's self time is its stage minus the stage
// below it (core.self = E1 - S2 - S3 - S4; sqlbatch.self = S4 - S4').

// traceRowsPerSecond sizes the replayed subset of the night from the run's
// measuring time: every stage sees the same first files.
const traceRowsPerSecond = 12_000

// stagedFile is what the stages materialise for one input file.
type stagedFile struct {
	facts  gen.FileFacts
	recs   []catalog.Record
	rows   []catalog.TransformedRow
	lines  []int
	cycles [][]*arrayset.Array // flush cycles, arrays in parent-before-child order
}

// ingestVariant is one database configuration of the replay.
type ingestVariant struct {
	name        string
	indexes     tuning.IndexPolicy
	policy      relstore.IndexPolicy
	wal         bool
	commitEvery int // batches; 0 commits per file
}

func (v ingestVariant) open(r *run) (*relstore.DB, string, error) {
	if !v.wal {
		db, err := openDBIndexes(v.indexes, v.policy)
		return db, "", err
	}
	dir, err := r.dir("wal-" + v.name)
	if err != nil {
		return nil, "", err
	}
	db, err := openDBIndexes(v.indexes, v.policy, relstore.WithWALDir(dir))
	if err == nil && v.policy == relstore.IndexDeferred {
		err = db.BeginLoad()
	}
	return db, dir, err
}

// applyCycles sends every array of every flush cycle in batches of batchSize
// and, when a batch stops at a row the database rejects, skips that row and
// resumes after it, as core.Loader does.  apply inserts one batch and returns
// the index of its failing row, or -1; afterBatch runs the commit policy.
func applyCycles(cycles [][]*arrayset.Array, apply func(arr *arrayset.Array, rows [][]relstore.Value) (failed int, err error), afterBatch func() error) (batches, skipped int, err error) {
	for _, cycle := range cycles {
		for _, arr := range cycle {
			for idx := 0; idx < arr.Len(); {
				end := min(idx+batchSize, arr.Len())
				failed, err := apply(arr, arr.Rows[idx:end])
				if err != nil {
					return batches, skipped, err
				}
				batches++
				if err := afterBatch(); err != nil {
					return batches, skipped, err
				}
				if failed < 0 {
					idx = end
					continue
				}
				skipped++
				idx += failed + 1
			}
		}
	}
	return batches, skipped, nil
}

// staged is what the traced pipeline S1..S4 materialised and measured.
type staged struct {
	files          []*stagedFile
	s1, s2, s3, s4 time.Duration
	// wall is the files' spans together; glue the part of them spent in no
	// stage (the materialising between stages).
	wall, glue         time.Duration
	checkpoint         time.Duration
	rowsRead, buffered int
	rejected, skipped  int
	flushCycles        int
	peakBytes          int64
	server             sqlbatch.ServerStats
}

func (st *staged) perRow(d time.Duration) float64 { return float64(d) / float64(st.rowsRead) }

func traceIngest(r *run) error {
	durable := r.res.Workload == "ingest-durable"
	in, err := setUpIngest(r)
	if err != nil {
		return err
	}
	rec := r.rec

	// The subset every stage replays.
	var subset []gen.FileFacts
	var userBytes int64
	rowsWanted := int(r.seconds * traceRowsPerSecond)
	for rows := 0; rows < rowsWanted && len(subset) < len(in.night.Files); {
		f := in.night.Files[len(subset)]
		subset = append(subset, f)
		rows += f.Rows
		userBytes += f.Bytes
	}

	// The workload's own database configuration, and the S4' grid.
	own := ingestVariant{"immediate,nowal", benchIndexes, relstore.IndexImmediate, false, 0}
	grid := []ingestVariant{
		{"noidx,nowal", tuning.NoIndexes, relstore.IndexImmediate, false, 0},
		own,
	}
	checkpointAt := -1
	if durable {
		own = ingestVariant{"deferred,wal", benchIndexes, relstore.IndexDeferred, true, durableCommitEvery}
		for i := range grid {
			grid[i].commitEvery = durableCommitEvery
		}
		grid = append(grid,
			ingestVariant{"noidx,wal", tuning.NoIndexes, relstore.IndexImmediate, true, durableCommitEvery},
			ingestVariant{"immediate,wal", benchIndexes, relstore.IndexImmediate, true, durableCommitEvery})
		// S6 where the workload has it: after 5/7 of the files, so that
		// recovery finds a checkpoint and a log tail to replay.
		checkpointAt = len(subset) * 5 / 7
	}

	// S1..S4, then S5..S8 on the database they loaded.
	db, walDir, err := own.open(r)
	if err != nil {
		return err
	}
	st, err := stagedPipeline(r, db, subset, own.commitEvery, checkpointAt)
	if err != nil {
		return fmt.Errorf("staged pipeline: %w", err)
	}
	rec.set("catalog.parse_ns_per_row", st.perRow(st.s1))
	rec.set("catalog.transform_ns_per_row", st.perRow(st.s2))
	rec.set("catalog.rejected_rows", float64(st.rejected))
	rec.set("arrayset.add_ns_per_row", float64(st.s3)/float64(st.buffered))
	rec.set("arrayset.flush_cycles", float64(st.flushCycles))
	rec.set("arrayset.peak_bytes", float64(st.peakBytes))
	rec.set("sqlbatch.execute_ns_per_row", st.perRow(st.s4))
	rec.set("sqlbatch.db_calls", float64(st.server.Calls))
	rec.set("sqlbatch.lock_waits", float64(st.server.LockWaits))
	r.res.TableCounts = tableCounts(db)
	r.res.Attempted += int64(st.rowsRead)
	if durable {
		if err := stagedDurability(r, db, walDir, userBytes, st.checkpoint); err != nil {
			return err
		}
	}
	db = nil

	stagedLookups(rec, st.files)
	match, err := stagedGrid(r, grid, st.files, durable)
	if err != nil {
		return err
	}
	rec.set("sqlbatch.self_ns_per_row", st.perRow(st.s4-match.insert-match.commit))
	return stagedOriginals(r, own, subset, st)
}

// stagedPipeline is S1..S4 under the recorder: every file parsed,
// transformed, buffered into flush cycles and executed through one sqlbatch
// connection into db, committing every commitEvery batches (0: per file) and
// checkpointing before file checkpointAt (-1: never).
func stagedPipeline(r *run, db *relstore.DB, subset []gen.FileFacts, commitEvery, checkpointAt int) (*staged, error) {
	rec := r.rec
	st := &staged{}
	sched := newScheduler(r.seed)
	srv := loadServer(sched, db)
	tr := catalog.NewTransformer(db.Schema())
	set, err := arrayset.New(db.Schema(), arrayset.Config{ArraySize: arraySize})
	if err != nil {
		return nil, err
	}
	sched.RunInline("skyperf-staged", func(w exec.Worker) {
		conn := srv.ConnectWorker(w)
		defer conn.Close()
		sinceCommit := 0
		for i, facts := range subset {
			if i == checkpointAt {
				st.checkpoint = rec.do("relstore.checkpoint", 0, "night", func() { err = db.Checkpoint() })
				if err != nil {
					return
				}
			}
			sf := &stagedFile{facts: facts}
			st.files = append(st.files, sf)
			fid := rec.begin("staged.file", 0, facts.Name)

			st.s1 += rec.do("catalog.parse", fid, facts.Name, func() {
				var in *os.File
				if in, err = os.Open(facts.Path); err != nil {
					return
				}
				sf.recs, _ = catalog.ReadRecords(in)
				_ = in.Close()
			})
			if err != nil {
				return
			}
			st.rowsRead += len(sf.recs)

			st.s2 += rec.chunked("catalog.transform", fid, facts.Name, len(sf.recs), func(i int) {
				row, err := tr.Transform(sf.recs[i])
				if err != nil {
					st.rejected++
					return
				}
				sf.rows = append(sf.rows, row)
				sf.lines = append(sf.lines, sf.recs[i].Line)
			})
			st.buffered += len(sf.rows)

			drain := func() {
				st.peakBytes = max(st.peakBytes, set.MemoryBytes())
				sf.cycles = append(sf.cycles, set.Drain())
			}
			st.s3 += rec.chunked("arrayset.add", fid, facts.Name, len(sf.rows), func(i int) {
				row := sf.rows[i]
				full, _, addErr := set.Add(row.Table, row.Columns, row.Values, sf.lines[i])
				if addErr != nil {
					err = addErr
				}
				if full {
					drain()
				}
			})
			if set.Len() > 0 {
				st.s3 += rec.do("arrayset.add", fid, facts.Name, drain)
			}
			st.flushCycles += len(sf.cycles)

			if err == nil {
				err = conn.Begin()
			}
			if err != nil {
				return
			}
			commit := func() error {
				var err error
				st.s4 += rec.do("sqlbatch.commit", fid, facts.Name, func() { err = conn.Commit() })
				sinceCommit = 0
				return err
			}
			var skip int
			_, skip, err = applyCycles(sf.cycles,
				func(arr *arrayset.Array, rows [][]relstore.Value) (int, error) {
					stmt := conn.Prepare(arr.Table, arr.Columns)
					var res sqlbatch.BatchResult
					var err error
					st.s4 += rec.do("sqlbatch.execute", fid, facts.Name, func() { res, err = stmt.ExecuteBatchRows(rows) })
					if err != nil || res.Err == nil {
						return -1, err
					}
					return res.FailedIndex, nil
				},
				func() error {
					sinceCommit++
					if commitEvery == 0 || sinceCommit < commitEvery {
						return nil
					}
					if err := commit(); err != nil {
						return err
					}
					return conn.Begin()
				})
			st.skipped += skip
			if err == nil {
				err = commit()
			}
			if err != nil {
				return
			}
			st.wall += rec.end(fid)
			st.glue += rec.selfTimes(fid)["staged.file"]
		}
	})
	st.server = srv.Stats()
	return st, err
}

// stagedLookups is S2b: htm.Lookup alone on the coordinates of every object
// row the transform produced.
func stagedLookups(rec *recorder, files []*stagedFile) {
	var ras, decs []float64
	for _, sf := range files {
		for _, row := range sf.rows {
			if row.Table != catalog.TObjects {
				continue
			}
			var ra, dec float64
			for c, name := range row.Columns {
				switch name {
				case "ra":
					ra = row.Values[c].Float()
				case "dec":
					dec = row.Values[c].Float()
				}
			}
			ras, decs = append(ras, ra), append(decs, dec)
		}
	}
	lookups := rec.chunked("htm.lookup", 0, "night", len(ras), func(i int) {
		_, _ = htm.Lookup(ras[i], decs[i], htm.DefaultDepth)
	})
	if len(ras) > 0 {
		rec.set("htm.lookup_ns", float64(lookups)/float64(len(ras)))
	}
}

// stagedGrid is S4': the materialised batches through relstore directly on
// every variant of the grid, index maintenance and WAL append priced as
// differences between variants.  It returns the variant that does what the
// pipeline's own database did.
func stagedGrid(r *run, grid []ingestVariant, files []*stagedFile, durable bool) (gridResult, error) {
	rec := r.rec
	grids := map[string]gridResult{}
	for _, v := range grid {
		g, err := stagedRelstore(r, v, files)
		if err != nil {
			return g, fmt.Errorf("S4' %s: %w", v.name, err)
		}
		grids[v.name] = g
	}
	base, imm := grids["noidx,nowal"], grids["immediate,nowal"]
	rec.set("relstore.apply_ns_per_row", float64(base.insert)/float64(base.rows))
	rec.set("relstore.index_maint_ns_per_row", float64(imm.insert-base.insert)/float64(imm.rows))
	rec.set("relstore.index_nodes_visited_per_row", float64(imm.report.IndexNodesVisited)/float64(imm.rows))
	rec.set("relstore.index_splits", float64(imm.stats.DB.IndexSplits))
	rec.set("relstore.constraint_checks_per_row", float64(imm.report.ConstraintChecks)/float64(imm.rows))
	rec.set("relstore.fk_lookups_per_row", float64(imm.report.FKLookups)/float64(imm.rows))
	if imm.stats.DB.IndexKeyBytes > 0 {
		rec.set("relstore.index_arena_bytes_per_key_byte", float64(imm.stats.DB.IndexArenaBytes)/float64(imm.stats.DB.IndexKeyBytes))
	}
	if !durable {
		return imm, nil
	}
	// Deferred indexes are not maintained during the load, so the durable
	// pipeline's database did what the index-free, logged variant does.
	logged := grids["noidx,wal"]
	rec.set("relstore.wal_append_ns_per_row", float64(logged.insert-base.insert)/float64(logged.rows))
	rec.set("relstore.commit_p50_ms", quantileMs(logged.commits, 0.50))
	rec.set("relstore.commit_p99_ms", quantileMs(logged.commits, 0.99))
	wal := logged.stats.WAL
	rec.set("relstore.commits", float64(wal.Commits))
	rec.set("relstore.wal_syncs", float64(wal.DurableSyncs))
	rec.set("relstore.wal_bytes_per_sync", float64(wal.DurableBytes)/float64(max(wal.DurableSyncs, 1)))
	rec.set("relstore.wal_segments", float64(wal.SegmentsCreated))
	// No group commit in the default options: every sync covers the commits
	// since the previous one.
	rec.set("relstore.group_mean_size", float64(wal.Commits)/float64(max(wal.Syncs, 1)))
	return logged, nil
}

// stagedOriginals is E1 and E2, the untraced originals of the pipeline:
// core.Loader.LoadFiles with one loader and parallel.Run, on the same files
// and database configuration.  They price the loop around the stages, the
// parallel speed-up and the recorder's overhead, and check that the staged
// pipeline did what the loader does.
func stagedOriginals(r *run, own ingestVariant, subset []gen.FileFacts, st *staged) error {
	rec := r.rec
	p, err := parseFiles(subset)
	if err != nil {
		return err
	}
	e1DB, _, err := own.open(r)
	if err != nil {
		return err
	}
	var e1Stats core.Stats
	e1Sched := newScheduler(r.seed)
	e1Srv := loadServer(e1Sched, e1DB)
	e1 := rec.do("core.load_files", 0, "night", func() {
		e1Sched.RunInline("skyperf-e1", func(w exec.Worker) {
			conn := e1Srv.ConnectWorker(w)
			defer conn.Close()
			var ld *core.Loader
			if ld, err = core.NewLoader(conn, loadConfig(1, own.commitEvery).Loader); err == nil {
				e1Stats, err = ld.LoadFiles(p.files)
			}
		})
	})
	if err != nil {
		return fmt.Errorf("E1: %w", err)
	}
	rec.set("core.load_file_ns_per_row", st.perRow(e1))
	rec.set("core.self_ns_per_row", st.perRow(e1-st.s2-st.s3-st.s4))
	rec.set("core.batches", float64(e1Stats.Batches))
	rec.set("core.rows_skipped", float64(e1Stats.RowsSkipped))
	var same error
	if got := tableCounts(e1DB); got != r.res.TableCounts {
		same = fmt.Errorf("staged pipeline left %s, core.Loader %s", r.res.TableCounts, got)
	}
	r.res.check("the staged pipeline loads exactly the rows core.Loader loads", same)
	same = nil
	if st.skipped != e1Stats.RowsSkipped || st.rejected != e1Stats.ParseErrors {
		same = fmt.Errorf("staged skipped %d rejected %d, core.Loader skipped %d rejected %d", st.skipped, st.rejected, e1Stats.RowsSkipped, e1Stats.ParseErrors)
	}
	r.res.check("the staged pipeline skips the rows core.Loader skips", same)
	e1DB = nil

	e2DB, _, err := own.open(r)
	if err != nil {
		return err
	}
	var e2Res parallel.Result
	e2 := rec.do("parallel.run", 0, "night", func() {
		e2Res, err = parallel.Run(loadServer(newScheduler(r.seed), e2DB), p.files, loadConfig(r.par, own.commitEvery))
	})
	if err != nil {
		return fmt.Errorf("E2: %w", err)
	}
	if r.par == 1 {
		rec.notes["parallel.speedup"] = "unresolved (1 CPU)"
	} else {
		rec.set("parallel.speedup", float64(e1)/float64(e2))
	}
	var longest, total float64
	for _, n := range e2Res.Nodes {
		busy := float64(n.FinishedAt - n.StartedAt)
		longest, total = max(longest, busy), total+busy
	}
	rec.set("parallel.node_imbalance", longest*float64(len(e2Res.Nodes))/total)

	// The pipeline without its parse stage is what E1 did untraced.
	rec.set("trace.overhead", float64(st.wall-st.s1)/float64(e1)-1)
	rec.set("trace.coverage", 1-float64(st.glue)/float64(st.wall))
	return nil
}

func quantileMs(d []time.Duration, q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	ms := make([]float64, len(d))
	for i, v := range d {
		ms[i] = float64(v) / 1e6
	}
	sort.Float64s(ms)
	return quantile(ms, q)
}

// gridResult is one S4' variant's measurement.
type gridResult struct {
	rows           int
	insert, commit time.Duration
	commits        []time.Duration
	report         relstore.OpReport
	stats          relstore.StatsSnapshot
}

// stagedRelstore replays the materialised batches through Txn.InsertBatch
// and Commit on a fresh database of the given variant.
func stagedRelstore(r *run, v ingestVariant, files []*stagedFile) (gridResult, error) {
	var g gridResult
	db, _, err := v.open(r)
	if err != nil {
		return g, err
	}
	rec := r.rec
	root := rec.begin("relstore.replay["+v.name+"]", 0, "night")
	for _, sf := range files {
		txn, err := db.Begin()
		if err != nil {
			return g, err
		}
		sinceCommit := 0
		commit := func() error {
			var err error
			d := rec.do("relstore.commit["+v.name+"]", root, sf.facts.Name, func() { _, err = txn.Commit() })
			g.commit += d
			g.commits = append(g.commits, d)
			sinceCommit = 0
			return err
		}
		_, _, err = applyCycles(sf.cycles,
			func(arr *arrayset.Array, rows [][]relstore.Value) (int, error) {
				var br relstore.BatchReport
				var err error
				g.insert += rec.do("relstore.insert_batch["+v.name+"]", root, sf.facts.Name, func() {
					br, err = txn.InsertBatch(arr.Table, arr.Columns, rows)
				})
				g.rows += br.RowsInserted
				g.report.Add(br.Report)
				if err != nil && !relstore.IsConstraintViolation(err) {
					return -1, err
				}
				return br.FailedIndex, nil
			},
			func() error {
				sinceCommit++
				if v.commitEvery == 0 || sinceCommit < v.commitEvery {
					return nil
				}
				if err := commit(); err != nil {
					return err
				}
				txn, err = db.Begin()
				return err
			})
		if err == nil {
			err = commit()
		}
		if err != nil {
			return g, err
		}
	}
	rec.end(root)
	g.stats = db.StatsSnapshot()
	return g, nil
}

// stagedDurability runs the rest of S5..S8 on the database the pipeline
// loaded and checkpointed: Seal, then kill, Recover and re-index.
func stagedDurability(r *run, db *relstore.DB, walDir string, userBytes int64, ckpt time.Duration) error {
	rec := r.rec
	var err error
	var seal relstore.SealReport
	sealD := rec.do("relstore.seal", 0, "night", func() { seal, err = db.Seal() })
	if err != nil {
		return fmt.Errorf("S5 seal: %w", err)
	}
	wal := db.StatsSnapshot().WAL
	acknowledged := tableCounts(db)
	rec.set("relstore.seal_s", sealD.Seconds())
	if seal.RowsStreamed > 0 {
		rec.set("relstore.seal_ns_per_key", float64(sealD)/float64(seal.RowsStreamed))
	}
	rec.set("relstore.checkpoint_s", ckpt.Seconds())
	rec.set("relstore.checkpoint_bytes_per_user_byte", float64(checkpointBytes(walDir))/float64(userBytes))
	rec.set("relstore.wal_bytes_per_user_byte", float64(wal.DurableBytes+checkpointBytes(walDir))/float64(userBytes))

	var recovered *relstore.DB
	var report relstore.RecoveryReport
	replay := rec.do("relstore.recover", 0, "night", func() {
		recovered, report, err = relstore.Recover(catalog.NewSchema(), walDir, relstore.WithConfig(tuning.ProductionLoading().DBConfig()))
	})
	if err != nil {
		return fmt.Errorf("S7 recover: %w", err)
	}
	reindex := rec.do("relstore.reindex", 0, "night", func() {
		err = tuning.ApplyIndexPolicyWith(recovered, benchIndexes, relstore.IndexImmediate)
	})
	if err != nil {
		return fmt.Errorf("S8 re-index: %w", err)
	}
	rec.set("relstore.recover_replay_s", replay.Seconds())
	rec.set("relstore.reindex_s", reindex.Seconds())
	rec.set("relstore.recover_s", (replay + reindex).Seconds())
	rec.set("relstore.recover_replayed_rows", float64(report.ReplayedRows))
	rec.set("relstore.recover_discarded_txns", float64(report.DiscardedTxns))
	var same error
	if got := tableCounts(recovered); got != acknowledged || !recovered.Ready() {
		same = fmt.Errorf("recovered %s (ready %v), acknowledged %s", got, recovered.Ready(), acknowledged)
	}
	r.res.check("recovered per-table rows equal those at the last acknowledged commit", same)
	return nil
}
