package rng

import "testing"

// TestMixGoldenVectors pins the stream: the first three outputs for seeds
// 0, 1 and 2^64-1, computed with the simulator's splitmix64 before the
// hand-written copies were folded into this package (seed 0 is also the
// reference implementation's published vector). Goldens, spool fixtures and
// every exact benchmark row depend on these bits.
func TestMixGoldenVectors(t *testing.T) {
	cases := []struct {
		seed uint64
		want [3]uint64
	}{
		{0, [3]uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}},
		{1, [3]uint64{0x910a2dec89025cc1, 0xbeeb8da1658eec67, 0xf893a2eefb32555e}},
		{1<<64 - 1, [3]uint64{0xe4d971771b652c20, 0xe99ff867dbf682c9, 0x382ff84cb27281e9}},
	}
	for _, c := range cases {
		state := c.seed
		for i, want := range c.want {
			if got := Mix(state); got != want {
				t.Errorf("seed %#x output %d = %#016x, want %#016x", c.seed, i, got, want)
			}
			state += Increment
		}
	}
}
