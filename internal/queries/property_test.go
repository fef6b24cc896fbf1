package queries

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"skyloader/internal/catalog"
	"skyloader/internal/htm"
	"skyloader/internal/relstore"
	"skyloader/internal/tuning"
)

// randomCatalog builds a repository holding n objects scattered around a
// field centre, with the full parent chain satisfied and the htmid index
// built, inserting rows directly (no loader) so the test controls positions.
func randomCatalog(t testing.TB, rng *rand.Rand, n int, raBase, decBase, spread float64) *relstore.DB {
	t.Helper()
	db := relstore.MustOpen(catalog.NewSchema())
	txn, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := catalog.SeedReference(txn, 4); err != nil {
		t.Fatal(err)
	}
	ins := func(table string, cols []string, vals []relstore.Value) {
		if _, err := txn.Insert(table, cols, vals); err != nil {
			t.Fatalf("insert into %s: %v", table, err)
		}
	}
	ins(catalog.TObservations,
		[]string{"obs_id", "telescope_id", "mjd_start", "ra_center", "dec_center", "airmass", "filter_set"},
		[]relstore.Value{relstore.Int(1), relstore.Int(1), relstore.Float(53600), relstore.Float(raBase),
			relstore.Float(decBase), relstore.Float(1.2), relstore.Str("r")})
	ins(catalog.TCCDColumns,
		[]string{"ccd_col_id", "obs_id", "ccd_id", "ccd_number", "filter", "ra_center", "dec_center"},
		[]relstore.Value{relstore.Int(1), relstore.Int(1), relstore.Int(1), relstore.Int(1),
			relstore.Str("r"), relstore.Float(raBase), relstore.Float(decBase)})
	const frames = 4
	for f := int64(1); f <= frames; f++ {
		ins(catalog.TCCDFrames,
			[]string{"frame_id", "ccd_col_id", "frame_number", "mjd_start", "exposure_s"},
			[]relstore.Value{relstore.Int(f), relstore.Int(1), relstore.Int(f),
				relstore.Float(53600.1), relstore.Float(140)})
	}
	for i := 0; i < n; i++ {
		ra := raBase + (rng.Float64()-0.5)*spread
		dec := decBase + (rng.Float64()-0.5)*spread
		if ra < 0 {
			ra += 360
		}
		if ra >= 360 {
			ra -= 360
		}
		if dec > 89 {
			dec = 89
		}
		if dec < -89 {
			dec = -89
		}
		v := htm.FromRaDec(ra, dec)
		ins(catalog.TObjects,
			[]string{"object_id", "frame_id", "ra", "dec", "htmid", "cx", "cy", "cz", "mag"},
			[]relstore.Value{relstore.Int(int64(i + 1)), relstore.Int(1 + int64(i)%frames),
				relstore.Float(ra), relstore.Float(dec),
				relstore.Int(htm.MustLookup(ra, dec, htm.DefaultDepth)),
				relstore.Float(v.X), relstore.Float(v.Y), relstore.Float(v.Z),
				relstore.Float(14 + rng.Float64()*8)})
	}
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tuning.ApplyIndexPolicyWith(db, tuning.HTMIDOnly, relstore.IndexImmediate); err != nil {
		t.Fatal(err)
	}
	return db
}

// bruteForceCone is the oracle: a full scan applying exactly the same
// distance filter and result ordering the indexed path uses.
func bruteForceCone(t testing.TB, db *relstore.DB, ra, dec, radius float64) []Object {
	t.Helper()
	cols := newObjectCols(db.Schema().Table(catalog.TObjects))
	var out []Object
	err := db.ScanRef(catalog.TObjects, func(r relstore.RowView) bool {
		obj := cols.decode(r)
		if angularDistanceDeg(htm.FromRaDec(ra, dec), obj.RA, obj.Dec) <= radius {
			out = append(out, obj)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	sortObjects(out)
	return out
}

// TestConeSearchMatchesBruteForce is the property the serving layer's
// correctness rests on: the htmid trixel-range path returns exactly the same
// objects as a full-scan point-in-cone filter, for random catalogs and random
// cones (including cones near the poles and the RA wrap).
func TestConeSearchMatchesBruteForce(t *testing.T) {
	property := func(seed uint64) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		raBase := rng.Float64() * 360
		decBase := -80 + rng.Float64()*160
		spread := 0.5 + rng.Float64()*6
		db := randomCatalog(t, rng, 150+rng.Intn(150), raBase, decBase, spread)

		for c := 0; c < 4; c++ {
			ra := raBase + (rng.Float64()-0.5)*spread
			dec := decBase + (rng.Float64()-0.5)*spread
			if ra < 0 {
				ra += 360
			}
			if ra >= 360 {
				ra -= 360
			}
			radius := 0.02 + rng.Float64()*spread
			indexed, stats, err := coneSearch(db, ra, dec, radius)
			if err != nil {
				t.Errorf("seed %d: cone search failed: %v", seed, err)
				return false
			}
			if !stats.UsedIndex {
				t.Errorf("seed %d: index path not taken", seed)
				return false
			}
			oracle := bruteForceCone(t, db, ra, dec, radius)
			if len(indexed) == 0 && len(oracle) == 0 {
				continue
			}
			if !reflect.DeepEqual(indexed, oracle) {
				t.Errorf("seed %d: cone (%.5f, %.5f, r=%.5f): index returned %d objects, oracle %d",
					seed, ra, dec, radius, len(indexed), len(oracle))
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 20}
	if testing.Short() {
		cfg.MaxCount = 5
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQueryInterfaceRoundTrip checks every Query implementation produces the
// same answer as its underlying one-shot function and carries a stable
// signature.
func TestQueryInterfaceRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db := randomCatalog(t, rng, 200, 120, -30, 3)

	queries := []Query{
		Cone{RA: 120, Dec: -30, RadiusDeg: 1.5},
		ObjectLookup{ObjectID: 7},
		ObjectLookup{ObjectID: 999_999},
		FrameObjects{FrameID: 2},
		MagHistogram{BinWidth: 0.5},
	}
	for _, q := range queries {
		if q.Table() != catalog.TObjects {
			t.Fatalf("%s: unexpected table %q", q.Class(), q.Table())
		}
		if q.Signature() == "" || q.Signature() != q.Signature() {
			t.Fatalf("%s: unstable signature", q.Class())
		}
		r1, err := q.Run(db)
		if err != nil {
			t.Fatalf("%s: %v", q.Class(), err)
		}
		r2, err := q.Run(db)
		if err != nil {
			t.Fatalf("%s rerun: %v", q.Class(), err)
		}
		if !reflect.DeepEqual(r1, r2) {
			t.Fatalf("%s: two runs over unchanged data disagree", q.Class())
		}
	}

	cone := Cone{RA: 120, Dec: -30, RadiusDeg: 1.5}
	res, err := cone.Run(db)
	if err != nil {
		t.Fatal(err)
	}
	oracle := bruteForceCone(t, db, 120, -30, 1.5)
	if !reflect.DeepEqual(res.Objects, oracle) {
		t.Fatalf("Cone query and oracle disagree: %d vs %d objects", len(res.Objects), len(oracle))
	}
}
