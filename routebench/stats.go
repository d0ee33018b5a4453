package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// memWindow sums the Go runtime's allocation and GC work over one or
// more begin/end intervals.
type memWindow struct {
	at                          runtime.MemStats
	mallocs, bytes, gcs, pauseN uint64
}

func (w *memWindow) begin() { runtime.ReadMemStats(&w.at) }

func (w *memWindow) end() {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	w.mallocs += now.Mallocs - w.at.Mallocs
	w.bytes += now.TotalAlloc - w.at.TotalAlloc
	w.gcs += uint64(now.NumGC - w.at.NumGC)
	w.pauseN += now.PauseTotalNs - w.at.PauseTotalNs
}

// setRuntime reports the window's allocation and GC work per measured
// operation.
func (w *memWindow) setRuntime(r *result, ops int) {
	n := float64(max(ops, 1))
	r.setN("runtime.alloc_mb", float64(w.bytes)/(1<<20)/n, ops)
	r.setN("runtime.num_gc", float64(w.gcs)/n, ops)
	r.setN("runtime.gc_pause_ms", float64(w.pauseN)/1e6/n, ops)
}
