package htm

import (
	"math"
	"math/rand"
	"testing"
)

func TestConeCoverValidation(t *testing.T) {
	if _, err := ConeCover(10, 10, 0, 5); err == nil {
		t.Fatal("zero radius accepted")
	}
	if _, err := ConeCover(10, 10, 1, -1); err == nil {
		t.Fatal("negative depth accepted")
	}
	if _, err := ConeCover(10, 10, 1, MaxDepth+1); err == nil {
		t.Fatal("excessive depth accepted")
	}
}

func TestConeCoverFullSphere(t *testing.T) {
	rs, err := ConeCover(0, 0, 180, 3)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, r := range rs {
		total += r.Trixels()
	}
	if want := int64(8 << (2 * 3)); total != want {
		t.Fatalf("full-sphere cover holds %d trixels, want %d", total, want)
	}
}

// TestConeCoverRangesSortedDisjoint pins the contract queries.ConeSearch
// leans on to visit no object twice without remembering which it has seen:
// over random cones, radii and depths (and the poles, the RA wrap and a
// hemisphere), the ranges are well-formed, ascending, non-overlapping and
// non-adjacent — and so are their descendant ranges at the index depth.
func TestConeCoverRangesSortedDisjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	type cone struct{ ra, dec, radius float64 }
	cones := []cone{{120, -40, 2.5}, {0, 90, 1}, {0, -90, 30}, {359.99, 0, 0.5}, {180, 0, 90}, {10, 10, 179.9}}
	for len(cones) < 300 {
		cones = append(cones, cone{rng.Float64() * 360, rng.Float64()*180 - 90, math.Pow(10, rng.Float64()*4-2.5)})
	}
	for _, c := range cones {
		for _, depth := range []int{0, 1 + rng.Intn(6), 7 + rng.Intn(6)} {
			rs, err := ConeCover(c.ra, c.dec, c.radius, depth)
			if err != nil {
				t.Fatal(err)
			}
			if len(rs) == 0 {
				t.Fatalf("cone %+v depth %d: empty cover", c, depth)
			}
			for i, r := range rs {
				if r.Lo > r.Hi {
					t.Fatalf("cone %+v depth %d: range %d inverted: %+v", c, depth, i, r)
				}
				if i == 0 {
					continue
				}
				if r.Lo <= rs[i-1].Hi+1 {
					t.Fatalf("cone %+v depth %d: ranges %d and %d not disjoint/merged: %+v %+v", c, depth, i-1, i, rs[i-1], r)
				}
				if d, prev := r.DescendantRange(DefaultDepth-depth), rs[i-1].DescendantRange(DefaultDepth-depth); d.Lo <= prev.Hi {
					t.Fatalf("cone %+v depth %d: descendant ranges overlap: %+v %+v", c, depth, prev, d)
				}
			}
		}
	}
}

// TestConeCoverNeverMisses is the core soundness property: every point within
// the cone lies in a trixel the cover includes, across random cones, depths
// and points concentrated near the cap boundary.
func TestConeCoverNeverMisses(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		ra := rng.Float64() * 360
		dec := -85 + rng.Float64()*170
		radius := math.Pow(10, -2+rng.Float64()*2.5) // 0.01 .. ~30 degrees
		depth := rng.Intn(9)
		rs, err := ConeCover(ra, dec, radius, depth)
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < 50; p++ {
			// Sample points inside the cap, biased towards the rim where an
			// undercover would show first.
			frac := 1.0
			if p%3 == 0 {
				frac = rng.Float64()
			}
			pra, pdec := offsetPoint(rng, ra, dec, radius*frac)
			id, err := Lookup(pra, pdec, depth)
			if err != nil {
				t.Fatal(err)
			}
			if !rangesContain(rs, id) {
				t.Fatalf("trial %d: point (%.6f, %.6f) within %.4f deg of (%.6f, %.6f) "+
					"maps to trixel %d at depth %d, not covered by %v",
					trial, pra, pdec, radius, ra, dec, id, depth, rs)
			}
		}
	}
}

// offsetPoint returns a point at angular distance <= d degrees from (ra, dec),
// built by rotating the centre vector about a random orthogonal axis.
func offsetPoint(rng *rand.Rand, raDeg, decDeg, dDeg float64) (float64, float64) {
	c := FromRaDec(raDeg, decDeg)
	// A random vector not parallel to c gives an orthogonal rotation axis.
	r := Vector{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}.Normalize()
	axis := cross(c, r).Normalize()
	theta := dDeg * math.Pi / 180 * (0.999 * rng.Float64())
	// Rodrigues rotation of c about axis by theta.
	cosT, sinT := math.Cos(theta), math.Sin(theta)
	k := axis
	kxc := cross(k, c)
	kdc := dot(k, c)
	rot := Vector{
		X: c.X*cosT + kxc.X*sinT + k.X*kdc*(1-cosT),
		Y: c.Y*cosT + kxc.Y*sinT + k.Y*kdc*(1-cosT),
		Z: c.Z*cosT + kxc.Z*sinT + k.Z*kdc*(1-cosT),
	}
	return rot.Normalize().RaDec()
}

func rangesContain(rs []Range, id int64) bool {
	for _, r := range rs {
		if id >= r.Lo && id <= r.Hi {
			return true
		}
	}
	return false
}

func TestCoverDepthMonotone(t *testing.T) {
	if d := CoverDepth(45); d != 0 {
		t.Fatalf("depth for 45 deg = %d", d)
	}
	prev := CoverDepth(30)
	for _, r := range []float64{10, 3, 1, 0.3, 0.1, 0.03, 0.01} {
		d := CoverDepth(r)
		if d < prev {
			t.Fatalf("CoverDepth(%v) = %d < CoverDepth of larger radius %d", r, d, prev)
		}
		prev = d
	}
	if prev > DefaultDepth {
		t.Fatalf("deepest cover depth %d exceeds object depth", prev)
	}
}

func TestDescendantRange(t *testing.T) {
	r := Range{Lo: 8, Hi: 8}.DescendantRange(2)
	if r.Lo != 8<<4 || r.Hi != (9<<4)-1 {
		t.Fatalf("descendant range of trixel 8 = %+v", r)
	}
	if r.Trixels() != 16 {
		t.Fatalf("trixel count = %d, want 16", r.Trixels())
	}
}
