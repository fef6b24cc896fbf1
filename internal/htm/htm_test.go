package htm

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestFromRaDecRoundTrip(t *testing.T) {
	cases := []struct{ ra, dec float64 }{
		{0, 0}, {90, 45}, {180, -45}, {359.9, 89}, {123.456, -67.89}, {271.3, 12.0},
	}
	for _, c := range cases {
		v := FromRaDec(c.ra, c.dec)
		ra, dec := v.RaDec()
		if math.Abs(ra-c.ra) > 1e-9 || math.Abs(dec-c.dec) > 1e-9 {
			t.Errorf("round trip (%v,%v) -> (%v,%v)", c.ra, c.dec, ra, dec)
		}
		norm := math.Sqrt(v.X*v.X + v.Y*v.Y + v.Z*v.Z)
		if math.Abs(norm-1) > 1e-12 {
			t.Errorf("vector for (%v,%v) not unit length: %v", c.ra, c.dec, norm)
		}
	}
}

func TestLookupDepthZeroRoots(t *testing.T) {
	// Depth-0 ids must be one of the eight root faces (8..15).
	positions := []struct{ ra, dec float64 }{
		{45, 45}, {135, 45}, {225, 45}, {315, 45},
		{45, -45}, {135, -45}, {225, -45}, {315, -45},
	}
	seen := map[int64]bool{}
	for _, p := range positions {
		id, err := Lookup(p.ra, p.dec, 0)
		if err != nil {
			t.Fatal(err)
		}
		if id < 8 || id > 15 {
			t.Fatalf("root id %d out of range for (%v,%v)", id, p.ra, p.dec)
		}
		seen[id] = true
	}
	if len(seen) != 8 {
		t.Fatalf("expected to hit all 8 root triangles, hit %d", len(seen))
	}
}

func TestLookupDepthEncoding(t *testing.T) {
	for depth := 0; depth <= 20; depth += 5 {
		id, err := Lookup(123.4, -21.7, depth)
		if err != nil {
			t.Fatal(err)
		}
		d, err := Depth(id)
		if err != nil {
			t.Fatal(err)
		}
		if d != depth {
			t.Fatalf("Depth(%d) = %d, want %d", id, d, depth)
		}
	}
	if _, err := Lookup(0, 0, -1); err == nil {
		t.Fatal("negative depth should error")
	}
	if _, err := Lookup(0, 0, MaxDepth+1); err == nil {
		t.Fatal("excessive depth should error")
	}
}

func TestParentRelationship(t *testing.T) {
	id := MustLookup(200.5, 33.3, 10)
	parent := id >> 2 // a trixel's parent drops its last two bits
	d, _ := Depth(parent)
	if d != 9 {
		t.Fatalf("parent depth = %d", d)
	}
	// The parent id must equal a direct lookup at depth 9.
	if got := MustLookup(200.5, 33.3, 9); got != parent {
		t.Fatalf("lookup at depth 9 = %d, parent = %d", got, parent)
	}
}

// centroid returns the centre (ra, dec in degrees) of the triangle with the
// given id, found by walking the id's subdivision from its root face with the
// same edge midpoints Lookup descends through.
func centroid(id int64) (raDeg, decDeg float64, err error) {
	d, err := Depth(id)
	if err != nil {
		return 0, 0, err
	}
	i := slices.IndexFunc(faces, func(f face) bool { return f.id == id>>uint(2*d) })
	if i < 0 {
		return 0, 0, fmt.Errorf("htm: invalid root in id %d", id)
	}
	a, b, c := faces[i].a, faces[i].b, faces[i].c
	for level := d - 1; level >= 0; level-- {
		w0, w1, w2 := mid(b, c), mid(a, c), mid(a, b)
		switch (id >> uint(2*level)) & 3 {
		case 0:
			b, c = w2, w1
		case 1:
			a, c = w2, w0
		case 2:
			a, b = w1, w0
		case 3:
			a, b, c = w0, w1, w2
		}
	}
	ra, dec := add(add(a, b), c).Normalize().RaDec()
	return ra, dec, nil
}

func TestCenterInsideTriangle(t *testing.T) {
	// The centroid of a triangle must map back to the same triangle.
	for _, pos := range []struct{ ra, dec float64 }{{10, 10}, {100, -50}, {250, 70}, {330, -5}} {
		id := MustLookup(pos.ra, pos.dec, 8)
		ra, dec, err := centroid(id)
		if err != nil {
			t.Fatal(err)
		}
		back := MustLookup(ra, dec, 8)
		if back != id {
			t.Errorf("center of %d maps to %d", id, back)
		}
	}
}

func TestCenterCloseToSource(t *testing.T) {
	// At depth 20 a triangle is sub-arcsecond, so the center must be very
	// close to the original position.
	ra0, dec0 := 187.25, 2.05
	id := MustLookup(ra0, dec0, 20)
	ra, dec, err := centroid(id)
	if err != nil {
		t.Fatal(err)
	}
	distDeg := angularDistance(ra0, dec0, ra, dec)
	if distDeg > 0.001 { // 3.6 arcsec bound, generous
		t.Fatalf("center %v,%v is %v deg from source", ra, dec, distDeg)
	}
}

func angularDistance(ra1, dec1, ra2, dec2 float64) float64 {
	a := FromRaDec(ra1, dec1)
	b := FromRaDec(ra2, dec2)
	d := dot(a, b)
	if d > 1 {
		d = 1
	}
	return math.Acos(d) * 180 / math.Pi
}

func TestDepthInvalidIDs(t *testing.T) {
	if _, err := Depth(0); err == nil {
		t.Fatal("Depth(0) should error")
	}
	if _, err := Depth(7); err == nil {
		t.Fatal("Depth(7) should error")
	}
	if _, err := Depth(16); err == nil {
		// 16 has 5 bits -> (5-4) odd -> invalid
		t.Fatal("Depth(16) should error")
	}
}

// TestLookupProperty checks for random positions that ids are stable, in
// range, and consistent across depths (each deeper id refines its parent).
func TestLookupProperty(t *testing.T) {
	f := func(raSeed, decSeed uint32) bool {
		ra := float64(raSeed%360000) / 1000.0
		dec := float64(decSeed%180000)/1000.0 - 90
		id12, err := Lookup(ra, dec, 12)
		if err != nil {
			return false
		}
		id12b := MustLookup(ra, dec, 12)
		if id12 != id12b {
			return false
		}
		d, err := Depth(id12)
		if err != nil || d != 12 {
			return false
		}
		// Consistency: the depth-11 lookup equals the parent of the depth-12 id.
		id11 := MustLookup(ra, dec, 11)
		return id12>>2 == id11
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestDistinctPositionsDistinctIDs checks that two clearly separated
// positions never share a deep HTM id.
func TestDistinctPositionsDistinctIDs(t *testing.T) {
	a := MustLookup(10, 10, 20)
	b := MustLookup(190, -10, 20)
	if a == b {
		t.Fatal("antipodal positions share an id")
	}
}

func TestPolesAndWrapAround(t *testing.T) {
	for _, pos := range []struct{ ra, dec float64 }{{0, 90}, {0, -90}, {0, 0}, {360, 0}, {359.999999, 45}} {
		id, err := Lookup(pos.ra, pos.dec, 15)
		if err != nil {
			t.Fatalf("Lookup(%v,%v): %v", pos.ra, pos.dec, err)
		}
		if d, _ := Depth(id); d != 15 {
			t.Fatalf("depth at (%v,%v) = %d", pos.ra, pos.dec, d)
		}
	}
}
