package server

import "testing"

// TestSeedForGolden pins the seed-derivation function. These values are
// load-bearing: every figure's numbers depend on them, and the parallel
// runner relies on seeds being a pure function of grid coordinates. Any
// change here silently shifts every published table.
func TestSeedForGolden(t *testing.T) {
	cases := []struct {
		base         uint64
		system, load int
		want         uint64
	}{
		{1, 0, 0, 0x35aa233257ed720d},
		{1, 0, 1, 0x2d8ba0bbf2dedaf7},
		{1, 1, 0, 0x0ff428b25743d371},
		{1, 2, 7, 0x618f5b611e1e791a},
		{7, 0, 0, 0xcb2209f1f72ad2b9},
		{7, 3, 5, 0xc5fc8dddbad0b0cc},
		{12345, 9, 41, 0xeafb448f56c60318},
	}
	for _, c := range cases {
		if got := SeedFor(c.base, c.system, c.load); got != c.want {
			t.Errorf("SeedFor(%d, %d, %d) = %#016x, want %#016x",
				c.base, c.system, c.load, got, c.want)
		}
	}
	// Distinct coordinates must yield distinct seeds (the old linear
	// seed*1e6+offset scheme collided across systems).
	seen := map[uint64][2]int{}
	for s := 0; s < 8; s++ {
		for l := 0; l < 64; l++ {
			v := SeedFor(1, s, l)
			if prev, dup := seen[v]; dup {
				t.Fatalf("seed collision: (%d,%d) and (%d,%d) both map to %#x",
					s, l, prev[0], prev[1], v)
			}
			seen[v] = [2]int{s, l}
		}
	}
}
