package htm

import (
	"fmt"
	"math"
)

// Test-only decoders of what Lookup encodes.

// RaDec converts a unit vector back to equatorial coordinates in degrees,
// with RA in [0, 360).
func (v Vector) RaDec() (raDeg, decDeg float64) {
	ra := math.Atan2(v.Y, v.X) * 180 / math.Pi
	if ra < 0 {
		ra += 360
	}
	dec := math.Asin(clamp(v.Z, -1, 1)) * 180 / math.Pi
	return ra, dec
}

// Depth returns the subdivision depth encoded in an HTM id.
func Depth(id int64) (int, error) {
	if id < 8 {
		return 0, fmt.Errorf("htm: invalid id %d", id)
	}
	bits := 0
	for v := id; v > 0; v >>= 1 {
		bits++
	}
	// Root ids use 4 bits; each level adds 2.
	if (bits-4)%2 != 0 {
		return 0, fmt.Errorf("htm: id %d has invalid bit length %d", id, bits)
	}
	d := (bits - 4) / 2
	if d > MaxDepth {
		return 0, fmt.Errorf("htm: id %d implies depth %d beyond maximum %d", id, d, MaxDepth)
	}
	return d, nil
}
