package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-quantile of v (NaN when v is empty).
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(v []float64) float64 { return percentile(v, 0.5) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// processCPU is the CPU time, user and system, that every thread of the
// process has run so far. The kernel does not count time a thread waited for
// a CPU, so a co-tenant that takes the host's cores from this process lengthens
// wall-clock times but leaves this alone.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
