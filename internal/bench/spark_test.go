package bench

import (
	"testing"
	"time"

	"anyscan/internal/core"
	"anyscan/internal/datasets"
	"anyscan/internal/graph"
)

func datasetsMustLoad(t *testing.T, name string, scale float64) *graph.CSR {
	t.Helper()
	g, err := datasets.Load(name, scale)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSparkline(t *testing.T) {
	if got := sparkline(nil, 0, 1); got != "" {
		t.Fatalf("empty series rendered %q", got)
	}
	s := sparkline([]float64{0, 0.5, 1}, 0, 1)
	if len([]rune(s)) != 3 {
		t.Fatalf("want 3 runes, got %q", s)
	}
	r := []rune(s)
	if r[0] != '▁' || r[2] != '█' {
		t.Fatalf("scaling wrong: %q", s)
	}
	// Values clamp outside the range; degenerate range is tolerated.
	s = sparkline([]float64{-5, 99}, 0, 1)
	r = []rune(s)
	if r[0] != '▁' || r[1] != '█' {
		t.Fatalf("clamping wrong: %q", s)
	}
	if got := sparkline([]float64{3, 3}, 3, 3); len([]rune(got)) != 2 {
		t.Fatalf("degenerate range: %q", got)
	}
}

func TestAutoBlockAndHelpers(t *testing.T) {
	small := datasetsMustLoad(t, "GR01L", 0.05)
	if b := core.AutoBlock(small.NumVertices()); b != 128 {
		t.Fatalf("small graph auto block = %d, want floor 128", b)
	}
	big := datasetsMustLoad(t, "GR02L", 1.0)
	if b := core.AutoBlock(big.NumVertices()); b != big.NumVertices()/128 {
		t.Fatalf("big graph auto block = %d, want |V|/128", b)
	}
	cfg := DefaultConfig(nil)
	o := cfg.anyOpts(big, 3)
	if o.Threads != 3 || o.Alpha != core.AutoBlock(big.NumVertices()) || o.Beta != core.AutoBlock(big.NumVertices()) {
		t.Fatalf("anyOpts wiring wrong: %+v", o)
	}
	cfg.Alpha, cfg.Beta = 77, 88
	o = cfg.anyOpts(big, 1)
	if o.Alpha != 77 || o.Beta != 88 {
		t.Fatalf("explicit block sizes ignored: %+v", o)
	}
	if got := sortedCopy([]int{4, 1, 16}); got[0] != 1 || got[2] != 16 {
		t.Fatalf("sortedCopy: %v", got)
	}
	if got := ms(1500 * time.Microsecond); got != "1.5" {
		t.Fatalf("ms formatting: %q", got)
	}
}
