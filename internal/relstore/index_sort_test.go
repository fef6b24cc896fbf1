package relstore

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// indexSortSchema is one table with a nullable integer, a timestamp and a
// boolean key column (each indexed alone) and two float columns indexed as a
// composite: every key shape the secondary-index sort serves.
func indexSortSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(&TableSchema{
		Name: "ev",
		Columns: []Column{
			{Name: "id", Type: TypeInt},
			{Name: "k", Type: TypeInt, Nullable: true},
			{Name: "ts", Type: TypeTime},
			{Name: "flag", Type: TypeBool},
			{Name: "ra", Type: TypeFloat},
			{Name: "dec", Type: TypeFloat},
		},
		PrimaryKey: []string{"id"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

var indexSortIndexes = []struct {
	name string
	cols []string
}{
	{"ix_k", []string{"k"}},
	{"ix_ts", []string{"ts"}},
	{"ix_flag", []string{"flag"}},
	{"ix_radec", []string{"ra", "dec"}},
}

// indexSortBatches draws batches of 1, 40 and 1,000 rows and a 40-row batch
// holding a NULL key, over key domains with negatives, both int64 extremes,
// heavy duplicates and no order.
func indexSortBatches() [][][]Value {
	rng := rand.New(rand.NewSource(3401))
	extremes := []int64{math.MinInt64, math.MaxInt64, -1, 0, 1}
	key := func() int64 {
		switch r := rng.Intn(10); {
		case r == 0:
			return extremes[rng.Intn(len(extremes))]
		case r < 6:
			return rng.Int63n(200) - 100
		default:
			return rng.Int63() - rng.Int63()
		}
	}
	var id int64
	var batches [][][]Value
	for bi, n := range []int{1, 40, 1000, 40} {
		rows := make([][]Value, n)
		for i := range rows {
			id++
			k := Int(key())
			if bi == 3 && i == 17 {
				k = Null
			}
			rows[i] = []Value{Int(id), k, {Kind: KindTime, I: key()}, Bool(rng.Intn(3) == 0),
				Float(float64(rng.Intn(50))/4 - 5), Float(rng.NormFloat64())}
		}
		batches = append(batches, rows)
	}
	return batches
}

// openIndexSortDB opens the table with its four indexes under policy.
func openIndexSortDB(t *testing.T, policy IndexPolicy) *DB {
	t.Helper()
	db := MustOpen(indexSortSchema(t), withBTreeDegree(4))
	for _, ix := range indexSortIndexes {
		if _, err := db.CreateIndexWith("ev", ix.name, ix.cols, false, policy); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// loadIndexSortBatches inserts the batches, one transaction each, and
// returns every batch's report.
func loadIndexSortBatches(t *testing.T, db *DB, batches [][][]Value) []OpReport {
	t.Helper()
	cols := []string{"id", "k", "ts", "flag", "ra", "dec"}
	var reps []OpReport
	for bi, rows := range batches {
		txn, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		br, err := txn.InsertBatch("ev", cols, rows)
		if err != nil || br.RowsInserted != len(rows) {
			t.Fatalf("batch %d: %+v err=%v", bi, br, err)
		}
		if _, err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
		reps = append(reps, br.Report)
	}
	return reps
}

// indexDigest folds an index's full iteration — every key's bytes and its
// row ids in order — into one fnv-64a sum.
func indexDigest(tr *BTree) uint64 {
	h := fnv.New64a()
	tr.AscendRange(nil, nil, func(key []byte, ids []int64) bool {
		fmt.Fprintf(h, "%x", key)
		for _, id := range ids {
			fmt.Fprintf(h, " %d", id)
		}
		h.Write([]byte{'\n'})
		return true
	})
	return h.Sum64()
}

// TestIndexSortCounters pins what the secondary-index sort feeds the cost
// model and the tree, on a fixed seed, for every key shape at once: each
// batch's index counters under immediate maintenance, the IndexBuildReports
// of a BeginLoad/Seal rebuild and of a backfill over a loaded table, and a
// digest of every index's contents, which all three ways of building it must
// agree on.
func TestIndexSortCounters(t *testing.T) {
	batches := indexSortBatches()

	imm := openIndexSortDB(t, IndexImmediate)
	reps := loadIndexSortBatches(t, imm, batches)
	wantBatch := []string{
		"visited=4 splits=0 entryBytes=69 intVisits=3 floatVisits=2",
		"visited=191 splits=29 entryBytes=2760 intVisits=140 floatVisits=102",
		"visited=5724 splits=673 entryBytes=69000 intVisits=3866 floatVisits=3716",
		"visited=572 splits=6 entryBytes=2753 intVisits=388 floatVisits=368",
	}
	for bi, r := range reps {
		got := fmt.Sprintf("visited=%d splits=%d entryBytes=%d intVisits=%d floatVisits=%d",
			r.IndexNodesVisited, r.IndexSplits, r.IndexEntryBytes, r.IndexIntColNodeVisits, r.IndexFloatColNodeVisits)
		if bi >= len(wantBatch) || got != wantBatch[bi] {
			t.Errorf("batch %d (%d rows): %s", bi, len(batches[bi]), got)
		}
	}

	sealed := openIndexSortDB(t, IndexDeferred)
	if err := sealed.BeginLoad(); err != nil {
		t.Fatal(err)
	}
	loadIndexSortBatches(t, sealed, batches)
	srep, err := sealed.Seal()
	if err != nil {
		t.Fatal(err)
	}
	wantSeal := []string{
		"{Table:ev Index:ix_flag Rows:1081 DistinctKeys:2 NodesBuilt:1 Height:1 EntryBytes:9729 IntCols:1 FloatCols:0}",
		"{Table:ev Index:ix_k Rows:1081 DistinctKeys:628 NodesBuilt:92 Height:4 EntryBytes:17289 IntCols:1 FloatCols:0}",
		"{Table:ev Index:ix_radec Rows:1081 DistinctKeys:1081 NodesBuilt:157 Height:4 EntryBytes:25944 IntCols:0 FloatCols:2}",
		"{Table:ev Index:ix_ts Rows:1081 DistinctKeys:617 NodesBuilt:91 Height:4 EntryBytes:21620 IntCols:1 FloatCols:0}",
	}
	if len(srep.Indexes) != len(wantSeal) {
		t.Errorf("Seal rebuilt %d indexes, want %d", len(srep.Indexes), len(wantSeal))
	}
	for i, r := range srep.Indexes {
		if got := fmt.Sprintf("%+v", r); i >= len(wantSeal) || got != wantSeal[i] {
			t.Errorf("Seal index %d: %s", i, got)
		}
	}

	// A backfill runs the same rebuild; its report is read by rebuilding the
	// backfilled index again over the unchanged table.
	backfilled := MustOpen(indexSortSchema(t), withBTreeDegree(4))
	loadIndexSortBatches(t, backfilled, batches)
	bt := backfilled.Table("ev")
	wantBackfill := []string{
		"len=628 height=4 nodes=92 keyBytes=5644 {Table:ev Index:ix_k Rows:1081 DistinctKeys:628 NodesBuilt:92 Height:4 EntryBytes:17289 IntCols:1 FloatCols:0}",
		"len=617 height=4 nodes=91 keyBytes=5553 {Table:ev Index:ix_ts Rows:1081 DistinctKeys:617 NodesBuilt:91 Height:4 EntryBytes:21620 IntCols:1 FloatCols:0}",
		"len=2 height=1 nodes=1 keyBytes=4 {Table:ev Index:ix_flag Rows:1081 DistinctKeys:2 NodesBuilt:1 Height:1 EntryBytes:9729 IntCols:1 FloatCols:0}",
		"len=1081 height=4 nodes=157 keyBytes=19458 {Table:ev Index:ix_radec Rows:1081 DistinctKeys:1081 NodesBuilt:157 Height:4 EntryBytes:25944 IntCols:0 FloatCols:2}",
	}
	for i, ix := range indexSortIndexes {
		idx, err := backfilled.CreateIndex("ev", ix.name, ix.cols, false)
		if err != nil {
			t.Fatal(err)
		}
		tr := idx.Tree()
		shape := fmt.Sprintf("len=%d height=%d nodes=%d keyBytes=%d", tr.Len(), tr.Height(), tr.NodeCount(), tr.KeyBytes())
		bt.mu.Lock()
		r := bt.rebuildIndexLocked(idx)
		bt.mu.Unlock()
		if got := fmt.Sprintf("%s %+v", shape, r); i >= len(wantBackfill) || got != wantBackfill[i] {
			t.Errorf("backfill %s: %s", ix.name, got)
		}
	}

	wantDigest := map[string]uint64{
		"ix_k":     0x813542a04dd8773,
		"ix_ts":    0x97b1ec320d1a0419,
		"ix_flag":  0x23484e5f9324d6e1,
		"ix_radec": 0xf0acdf615a7532ff,
	}
	for _, ix := range indexSortIndexes {
		for _, db := range []*DB{imm, sealed, backfilled} {
			if got := indexDigest(db.Table("ev").indexes[ix.name].tree); got != wantDigest[ix.name] {
				t.Errorf("%s digest %#x, want %#x", ix.name, got, wantDigest[ix.name])
			}
		}
	}
}
