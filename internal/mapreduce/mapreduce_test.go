package mapreduce

import (
	"sort"
	"testing"

	"anyscan/internal/cluster"
	"anyscan/internal/graph"
	"anyscan/internal/testutil"
)

func TestRoundWordCount(t *testing.T) {
	job := NewJob(3)
	words := []string{"a", "b", "a", "c", "a", "b"}
	type count struct {
		word string
		n    int
	}
	out := Round(job, words,
		func(w string, emit func(string, int)) { emit(w, 1) },
		func(w string, ones []int) count { return count{w, len(ones)} },
	)
	sort.Slice(out, func(i, j int) bool { return out[i].word < out[j].word })
	want := []count{{"a", 3}, {"b", 2}, {"c", 1}}
	if len(out) != len(want) {
		t.Fatalf("got %v", out)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("got %v, want %v", out, want)
		}
	}
	if job.Stats.MapCalls != 6 || job.Stats.ShuffledKVs != 6 || job.Stats.ReduceGroups != 3 || job.Stats.Rounds != 1 {
		t.Fatalf("stats = %+v", job.Stats)
	}
}

func TestRoundEmptyInput(t *testing.T) {
	job := NewJob(2)
	out := Round(job, nil,
		func(x int, emit func(int, int)) { emit(x, x) },
		func(k int, vs []int) int { return k },
	)
	if len(out) != 0 {
		t.Fatalf("got %v", out)
	}
}

func TestPSCANMRAgreesWithSCANOnFixtures(t *testing.T) {
	g := testutil.TwoTriangles()
	res, stats, _ := PSCANMR(g, 3, 0.6, 2)
	if res.NumClusters != 2 {
		t.Fatalf("clusters = %d, want 2", res.NumClusters)
	}
	if err := cluster.Validate(g, 3, 0.6, res); err != nil {
		t.Fatal(err)
	}
	if stats.ShuffledKVs == 0 {
		t.Fatal("no shuffle traffic recorded")
	}
}

func TestPSCANMRRoundsGrowWithDiameter(t *testing.T) {
	// A long path of overlapping triangles: the core-core similar graph is
	// a chain, so min-label propagation needs ~length rounds — the
	// synchronization cost the shared-memory algorithms avoid.
	var edges [][2]int32
	segments := int32(30)
	for i := int32(0); i < segments; i++ {
		base := 2 * i
		edges = append(edges, [2]int32{base, base + 1}, [2]int32{base, base + 2}, [2]int32{base + 1, base + 2})
	}
	g, err := clusterGraph(edges, 2*segments+1)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, _ := PSCANMR(g, 2, 0.5, 2)
	if stats.Rounds < 10 {
		t.Fatalf("chain of %d segments finished in %d rounds; label propagation should need many", segments, stats.Rounds)
	}
	res, _, _ := PSCANMR(g, 2, 0.5, 2)
	if err := cluster.Validate(g, 2, 0.5, res); err != nil {
		t.Fatal(err)
	}
}

func clusterGraph(edges [][2]int32, n int32) (*graph.CSR, error) {
	return graph.FromUnweightedEdges(int(n), edges)
}
