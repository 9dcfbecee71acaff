package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// describeHost records what the numbers were measured on: CPU count,
// GOMAXPROCS, the Go version and the data-cache sizes the kernel reports.
func describeHost() string {
	s := fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s %s/%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	for i := 0; ; i++ {
		dir := filepath.Join("/sys/devices/system/cpu/cpu0/cache", fmt.Sprintf("index%d", i))
		level, err := os.ReadFile(filepath.Join(dir, "level"))
		if err != nil {
			break
		}
		typ, _ := os.ReadFile(filepath.Join(dir, "type"))
		size, _ := os.ReadFile(filepath.Join(dir, "size"))
		if strings.TrimSpace(string(typ)) == "Instruction" {
			continue
		}
		s += fmt.Sprintf(" L%s=%s", strings.TrimSpace(string(level)), strings.TrimSpace(string(size)))
	}
	return s
}

// sink keeps the probes' results alive so the compiler cannot drop them.
var sink uint64

// hostProbes is the noise canary: a pure compute loop and a dependent random
// walk over 16 MB, each run for about d and reported as the median over short
// chunks in ns per step. A co-tenant that contends for caches or memory moves
// the walk while the compute loop stays put, which tells a disturbed run from
// a regression.
func hostProbes(d time.Duration, seed int64) (computeNS, walkNS float64) {
	const chunk = 1 << 18

	x := uint64(seed) | 1
	var per []float64
	for start := time.Now(); time.Since(start) < d || len(per) < 3; {
		t := time.Now()
		for i := 0; i < chunk; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		per = append(per, float64(time.Since(t).Nanoseconds())/chunk)
	}
	computeNS = median(per)

	// Sattolo's algorithm makes next one cycle through all slots, so the walk
	// visits every entry and each load depends on the previous one.
	next := make([]uint32, 4<<20)
	for i := range next {
		next[i] = uint32(i)
	}
	rng := rand.New(rand.NewPCG(uint64(seed), 0x6d656d))
	for i := len(next) - 1; i > 0; i-- {
		j := rng.IntN(i)
		next[i], next[j] = next[j], next[i]
	}
	p := uint32(0)
	per = per[:0]
	for start := time.Now(); time.Since(start) < d || len(per) < 3; {
		t := time.Now()
		for i := 0; i < chunk; i++ {
			p = next[p]
		}
		per = append(per, float64(time.Since(t).Nanoseconds())/chunk)
	}
	sink = x + uint64(p)
	return computeNS, median(per)
}
