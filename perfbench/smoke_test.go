package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload of BENCHMARK.json at a tiny scale, untraced
// and traced, and checks that every metric it names is in the result line
// with its unit, that error_rate is 0, and that no traced span has a
// negative self time.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) == 0 {
		t.Fatal("BENCHMARK.json names no workloads")
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			name, traced := w.Name, traced
			t.Run(fmt.Sprintf("%s/trace=%v", name, traced), func(t *testing.T) {
				dir := t.TempDir()
				cfg := config{workload: name, seed: 3, duration: time.Second, trace: traced,
					workdir: dir, scale: 0.06, setups: 2, probe: 10 * time.Millisecond}
				var out bytes.Buffer
				res, err := run(cfg, &out)
				if err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				defs := spec.EndToEnd
				if traced {
					defs = spec.PerLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics in the result line, BENCHMARK.json names %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", d.Name, m, ok, d.Unit)
					}
				}
				if !traced {
					if !strings.Contains(out.String(), "metric error_rate 0 ratio\n") {
						t.Errorf("error_rate is not 0:\n%s", out.String())
					}
					return
				}
				spans := readSpans(t, filepath.Join(dir, fmt.Sprintf("trace-%s-%d.jsonl", name, cfg.seed)))
				if len(spans) == 0 {
					t.Fatal("empty span dump")
				}
				for i, d := range selfTimes(spans) {
					if d < 0 {
						t.Fatalf("span %+v has self time %v < 0", spans[i], d)
					}
				}
			})
		}
	}
}

func readSpans(t *testing.T, path string) []span {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return spans
}
