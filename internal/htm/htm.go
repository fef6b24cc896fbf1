// Package htm implements the Hierarchical Triangular Mesh (HTM), the
// recursive partitioning of the celestial sphere into spherical triangles
// used by sky-survey repositories to index objects by position.
//
// The SkyLoader paper lists computation of the HTM id (htmid) and sky
// coordinates among the per-row transformations performed while loading
// catalog data (§3, §4.5.1: the htmid index is the one secondary index kept
// during intensive loading).  This package provides the real computation:
// starting from the eight faces of an octahedron inscribed in the unit
// sphere, each triangle is subdivided into four children by the midpoints of
// its edges; the id accumulates two bits per level.
package htm

import (
	"fmt"
	"math"
)

// Vector is a 3-D unit vector on the celestial sphere.
type Vector struct {
	X, Y, Z float64
}

// FromRaDec converts equatorial coordinates in degrees to a unit vector.
func FromRaDec(raDeg, decDeg float64) Vector {
	ra := raDeg * math.Pi / 180
	dec := decDeg * math.Pi / 180
	cd := math.Cos(dec)
	return Vector{X: math.Cos(ra) * cd, Y: math.Sin(ra) * cd, Z: math.Sin(dec)}
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Normalize returns the unit vector in the direction of v.
func (v Vector) Normalize() Vector {
	n := math.Sqrt(v.X*v.X + v.Y*v.Y + v.Z*v.Z)
	if n == 0 {
		return Vector{Z: 1}
	}
	return Vector{X: v.X / n, Y: v.Y / n, Z: v.Z / n}
}

// add and mid are small helpers on vectors.
func add(a, b Vector) Vector { return Vector{a.X + b.X, a.Y + b.Y, a.Z + b.Z} }
func mid(a, b Vector) Vector { return add(a, b).Normalize() }
func cross(a, b Vector) Vector {
	return Vector{
		X: a.Y*b.Z - a.Z*b.Y,
		Y: a.Z*b.X - a.X*b.Z,
		Z: a.X*b.Y - a.Y*b.X,
	}
}
func dot(a, b Vector) float64 { return a.X*b.X + a.Y*b.Y + a.Z*b.Z }

// inside reports whether p lies inside (or on the boundary of) the spherical
// triangle v0,v1,v2 given in counter-clockwise order.
func inside(p, v0, v1, v2 Vector) bool {
	const eps = -1e-12
	return dot(cross(v0, v1), p) >= eps &&
		dot(cross(v1, v2), p) >= eps &&
		dot(cross(v2, v0), p) >= eps
}

// The eight initial octahedron faces, in the traditional HTM order.  S0-S3
// cover the southern hemisphere, N0-N3 the northern.  Ids for the root
// triangles are 8..15 (S0=8, ..., N3=15), matching the standard encoding in
// which the leading bit pattern 0b1 precedes two bits per subdivision level.
var (
	v0 = Vector{0, 0, 1} // north pole
	v1 = Vector{1, 0, 0}
	v2 = Vector{0, 1, 0}
	v3 = Vector{-1, 0, 0}
	v4 = Vector{0, -1, 0}
	v5 = Vector{0, 0, -1} // south pole
)

// face is one of the eight root triangles; the comments give its
// conventional name.
type face struct {
	id      int64
	a, b, c Vector
}

var faces = []face{
	{8, v1, v5, v2},  // S0
	{9, v2, v5, v3},  // S1
	{10, v3, v5, v4}, // S2
	{11, v4, v5, v1}, // S3
	{12, v1, v0, v4}, // N0
	{13, v4, v0, v3}, // N1
	{14, v3, v0, v2}, // N2
	{15, v2, v0, v1}, // N3
}

// MaxDepth is the deepest supported subdivision (2 bits per level in an
// int64, with 4 bits used by the root face encoding).
const MaxDepth = 27

// DefaultDepth matches the level the Palomar-Quest and SDSS catalogs used for
// object htmids (level 20, ~0.3 arcsecond triangles).
const DefaultDepth = 20

// Lookup returns the HTM id of the triangle at the given depth containing the
// position (ra, dec) in degrees.
func Lookup(raDeg, decDeg float64, depth int) (int64, error) {
	if depth < 0 || depth > MaxDepth {
		return 0, fmt.Errorf("htm: depth %d out of range [0,%d]", depth, MaxDepth)
	}
	p := FromRaDec(raDeg, decDeg)
	var cur face
	found := false
	for _, f := range faces {
		if inside(p, f.a, f.b, f.c) {
			cur = f
			found = true
			break
		}
	}
	if !found {
		// Numerical corner case exactly on an edge/vertex: fall back to the
		// face whose centroid is closest.
		best := -1.0
		for _, f := range faces {
			c := add(add(f.a, f.b), f.c).Normalize()
			if d := dot(c, p); d > best {
				best = d
				cur = f
			}
		}
	}
	id := cur.id
	a, b, c := cur.a, cur.b, cur.c
	for level := 0; level < depth; level++ {
		w0 := mid(b, c)
		w1 := mid(a, c)
		w2 := mid(a, b)
		switch {
		case inside(p, a, w2, w1):
			id = id<<2 | 0
			b, c = w2, w1
		case inside(p, w2, b, w0):
			id = id<<2 | 1
			a, c = w2, w0
		case inside(p, w1, w0, c):
			id = id<<2 | 2
			a, b = w1, w0
		default:
			id = id<<2 | 3
			a, b, c = w0, w1, w2
		}
	}
	return id, nil
}

// MustLookup is Lookup that panics on error; intended for static depths.
func MustLookup(raDeg, decDeg float64, depth int) int64 {
	id, err := Lookup(raDeg, decDeg, depth)
	if err != nil {
		panic(err)
	}
	return id
}
