// Package proc provides the point-in-time Usage readings the batch engine
// and the HTTP server use to attribute CPU time and allocation volume to
// individual jobs and requests.
//
// ReadUsage brackets a unit of work with cumulative process counters (CPU
// seconds from getrusage, allocated bytes/objects from runtime/metrics);
// the delta is that work's attributed cost. The counters are
// process-global, so the attribution is approximate under concurrency —
// see DESIGN.md for why the totals stay exact anyway.
package proc

import "runtime/metrics"

// runtime/metrics names ReadUsage samples.
const (
	mAllocBytes = "/gc/heap/allocs:bytes"
	mAllocObjs  = "/gc/heap/allocs:objects"
)

// Usage is a point-in-time reading of the process-global cumulative
// resource counters used for per-job attribution: CPU seconds (user plus
// system, from the OS) and heap allocation volume (bytes and object count,
// from the Go runtime). Bracket a unit of work with two ReadUsage calls and
// Sub the readings to get that work's attributed cost.
//
// Because every field is process-global, a delta taken while other
// goroutines run attributes their activity to the bracketed work too — the
// numbers are approximate under concurrency, exact when the bracketed work
// is the only load. Sums over all concurrent brackets still bound the true
// process totals; DESIGN.md discusses the model.
type Usage struct {
	CPUSeconds   float64 // process CPU, user+system
	AllocBytes   float64 // cumulative heap bytes allocated
	AllocObjects float64 // cumulative heap objects allocated
}

// ReadUsage samples the process counters now. It costs one getrusage call
// plus one two-key runtime/metrics read (~a microsecond), cheap enough to
// bracket every batch job and HTTP request.
func ReadUsage() Usage {
	samples := [2]metrics.Sample{{Name: mAllocBytes}, {Name: mAllocObjs}}
	metrics.Read(samples[:])
	u := Usage{CPUSeconds: processCPUSeconds()}
	if samples[0].Value.Kind() == metrics.KindUint64 {
		u.AllocBytes = float64(samples[0].Value.Uint64())
	}
	if samples[1].Value.Kind() == metrics.KindUint64 {
		u.AllocObjects = float64(samples[1].Value.Uint64())
	}
	return u
}

// Sub returns the non-negative component-wise difference u - prev: the
// resources consumed between the two readings.
func (u Usage) Sub(prev Usage) Usage {
	return Usage{
		CPUSeconds:   nonNeg(u.CPUSeconds - prev.CPUSeconds),
		AllocBytes:   nonNeg(u.AllocBytes - prev.AllocBytes),
		AllocObjects: nonNeg(u.AllocObjects - prev.AllocObjects),
	}
}

func nonNeg(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}
