package proc

import (
	"math"
	"testing"
)

// TestReadUsage: bracketing a known allocation burst yields a positive
// AllocBytes delta of at least the burst size, and Sub clamps negatives.
func TestReadUsage(t *testing.T) {
	u0 := ReadUsage()
	buf := make([][]byte, 128)
	for i := range buf {
		buf[i] = make([]byte, 8192)
	}
	_ = buf
	du := ReadUsage().Sub(u0)
	// The runtime's alloc accounting has size-class and flush granularity;
	// assert the bulk of the burst is visible, not the exact byte count.
	if du.AllocBytes < 128*8192/2 {
		t.Errorf("AllocBytes delta %g after allocating ~1MiB", du.AllocBytes)
	}
	if du.AllocObjects < 64 {
		t.Errorf("AllocObjects delta %g after 128 allocations", du.AllocObjects)
	}
	if du.CPUSeconds < 0 {
		t.Errorf("CPU delta negative: %g", du.CPUSeconds)
	}
	neg := Usage{}.Sub(Usage{CPUSeconds: 1, AllocBytes: 2, AllocObjects: 3})
	if neg != (Usage{}) {
		t.Errorf("Sub did not clamp negatives: %+v", neg)
	}
}

// TestProcessCPUSeconds: on unix the reading is positive after burning some
// cycles, and never decreases.
func TestProcessCPUSeconds(t *testing.T) {
	a := processCPUSeconds()
	x := 1.0
	for i := 0; i < 5_000_000; i++ {
		x = math.Sqrt(x + float64(i))
	}
	if x < 0 {
		t.Fatal("unreachable, defeats dead-code elimination")
	}
	b := processCPUSeconds()
	if b < a {
		t.Fatalf("process CPU went backwards: %g -> %g", a, b)
	}
}
