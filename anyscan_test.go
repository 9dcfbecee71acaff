package anyscan_test

// Black-box tests of the public facade: everything an adopter of the
// library would touch, exercised through the anyscan package only.

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"anyscan"
)

func karate(t *testing.T) *anyscan.Graph {
	t.Helper()
	edges := [][2]int32{
		{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}, {0, 6}, {0, 7}, {0, 8}, {0, 10},
		{0, 11}, {0, 12}, {0, 13}, {0, 17}, {0, 19}, {0, 21}, {0, 31},
		{1, 2}, {1, 3}, {1, 7}, {1, 13}, {1, 17}, {1, 19}, {1, 21}, {1, 30},
		{2, 3}, {2, 7}, {2, 8}, {2, 9}, {2, 13}, {2, 27}, {2, 28}, {2, 32},
		{3, 7}, {3, 12}, {3, 13}, {4, 6}, {4, 10}, {5, 6}, {5, 10}, {5, 16},
		{6, 16}, {8, 30}, {8, 32}, {8, 33}, {9, 33}, {13, 33}, {14, 32}, {14, 33},
		{15, 32}, {15, 33}, {18, 32}, {18, 33}, {19, 33}, {20, 32}, {20, 33},
		{22, 32}, {22, 33}, {23, 25}, {23, 27}, {23, 29}, {23, 32}, {23, 33},
		{24, 25}, {24, 27}, {24, 31}, {25, 31}, {26, 29}, {26, 33}, {27, 33},
		{28, 31}, {28, 33}, {29, 32}, {29, 33}, {30, 32}, {30, 33}, {31, 32},
		{31, 33}, {32, 33},
	}
	g, err := anyscan.FromUnweightedEdges(34, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPublicCluster(t *testing.T) {
	g := karate(t)
	opts := anyscan.DefaultOptions()
	opts.Mu, opts.Eps = 3, 0.5
	res, m, err := anyscan.Cluster(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters == 0 {
		t.Fatal("no clusters found")
	}
	if m.Sim.Sims == 0 {
		t.Fatal("no metrics recorded")
	}
	if err := anyscan.Validate(g, 3, 0.5, res); err != nil {
		// Roles may be coarser without ResolveRoles; membership must agree
		// with the reference at NMI 1 modulo shared borders.
		ref := anyscan.Reference(g, 3, 0.5)
		if nmi := anyscan.NMI(res, ref); nmi < 0.95 {
			t.Fatalf("result too far from reference: NMI=%v (%v)", nmi, err)
		}
	}
}

func TestPublicAnytimeLoop(t *testing.T) {
	g := anyscan.GenerateHolmeKim(3000, 6, 0.7, anyscan.WeightConfig{}, 1)
	opts := anyscan.DefaultOptions()
	opts.Alpha, opts.Beta = 256, 256
	c, err := anyscan.New(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for c.Step() {
		steps++
		if steps == 3 {
			snap := c.Snapshot()
			if snap.N() != g.NumVertices() {
				t.Fatal("snapshot wrong size")
			}
			p := c.Progress()
			if p.Iterations != 3 {
				t.Fatalf("progress iterations = %d", p.Iterations)
			}
		}
	}
	if steps < 5 {
		t.Fatalf("expected several anytime steps, got %d", steps)
	}
	if !c.Done() {
		t.Fatal("not done after Step returned false")
	}
}

func TestPublicRunWithContext(t *testing.T) {
	g := karate(t)
	res, err := anyscan.Run(context.Background(), g, anyscan.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.N() != 34 {
		t.Fatalf("result size %d", res.N())
	}
}

func TestPublicBaselinesAgree(t *testing.T) {
	g := karate(t)
	q := anyscan.Query{Mu: 3, Eps: 0.5}
	scanRes, _, err := anyscan.Batch(g, anyscan.AlgoSCAN, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range anyscan.Algorithms()[1:] {
		res, _, err := anyscan.Batch(g, algo, q)
		if err != nil {
			t.Fatal(err)
		}
		if nmi := anyscan.NMI(scanRes, res); nmi < 0.95 {
			t.Errorf("%s: NMI vs SCAN = %v", algo, nmi)
		}
	}
	if _, _, err := anyscan.Batch(g, anyscan.Algorithm("nope"), q); err == nil {
		t.Error("Batch accepted an unknown algorithm")
	}
	if _, _, err := anyscan.Batch(g, anyscan.AlgoSCAN, anyscan.Query{Mu: 0, Eps: 0.5}); err == nil {
		t.Error("Batch accepted mu=0")
	}
}

func TestPublicQueryIndex(t *testing.T) {
	g := karate(t)
	x := anyscan.NewIndex(g, 2)
	for _, q := range []anyscan.Query{{Mu: 2, Eps: 0.4}, {Mu: 3, Eps: 0.5}, {Mu: 5, Eps: 0.6}} {
		got, err := x.Query(q.Mu, q.Eps)
		if err != nil {
			t.Fatal(err)
		}
		want := anyscan.Reference(g, q.Mu, q.Eps)
		if !reflect.DeepEqual(got.Labels, want.Labels) || !reflect.DeepEqual(got.Roles, want.Roles) {
			t.Errorf("Index.Query(%d, %v) differs from Reference", q.Mu, q.Eps)
		}
		if err := anyscan.Validate(g, q.Mu, q.Eps, got); err != nil {
			t.Errorf("Index.Query(%d, %v): %v", q.Mu, q.Eps, err)
		}
	}
	ex, err := anyscan.ExplorerFromIndex(x, 3)
	if err != nil {
		t.Fatal(err)
	}
	fromIndex := ex.ClusteringAt(0.5)
	direct, err := x.Query(3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromIndex.Labels, direct.Labels) || !reflect.DeepEqual(fromIndex.Roles, direct.Roles) {
		t.Error("ExplorerFromIndex disagrees with Index.Query")
	}
}

func TestPublicEdgeListIO(t *testing.T) {
	g := karate(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "karate.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.WriteEdgeList(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	g2, _, err := anyscan.LoadEdgeListFile(path, anyscan.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() || g2.NumVertices() != g.NumVertices() {
		t.Fatalf("round trip mismatch")
	}
}

func TestPublicGenerators(t *testing.T) {
	lfr, comm, err := anyscan.GenerateLFR(anyscan.DefaultLFR(1000, 12, 3))
	if err != nil {
		t.Fatal(err)
	}
	if lfr.NumVertices() != 1000 || len(comm) != 1000 {
		t.Fatal("LFR output malformed")
	}
	for _, g := range []*anyscan.Graph{
		anyscan.GenerateErdosRenyi(200, 600, anyscan.WeightConfig{}, 1),
		anyscan.GenerateHolmeKim(200, 4, 0.5, anyscan.WeightConfig{}, 1),
		anyscan.GenerateRMAT(8, 1000, 0.5, 0.2, 0.2, anyscan.WeightConfig{}, 1),
		anyscan.GeneratePlantedPartition(200, 4, 0.3, 0.01, anyscan.WeightConfig{}, 1),
		anyscan.GenerateSocialCircles(anyscan.SocialCirclesConfig{
			N: 500, CirclesPerV: 2, CircleSize: 20, IntraP: 0.6, Seed: 1,
		}),
	} {
		if g.NumEdges() == 0 {
			t.Error("generator produced empty graph")
		}
	}
	s := anyscan.ComputeStats(lfr)
	if s.Vertices != 1000 {
		t.Errorf("stats: %+v", s)
	}
}

func TestPublicRoleConstants(t *testing.T) {
	if anyscan.RoleCore.String() != "core" || anyscan.RoleHub.String() != "hub" {
		t.Error("role constants miswired")
	}
	if !anyscan.RoleHub.IsNoise() || !anyscan.RoleOutlier.IsNoise() {
		t.Error("noise roles misclassified")
	}
	if anyscan.RoleBorder.IsNoise() || anyscan.RoleCore.IsNoise() {
		t.Error("cluster roles claimed noise")
	}
}

func TestRelabelByDegreePreservesClustering(t *testing.T) {
	g := karate(t)
	h, perm := anyscan.RelabelByDegree(g)
	if h.NumVertices() != g.NumVertices() || h.NumArcs() != g.NumArcs() {
		t.Fatalf("relabeled graph changed size")
	}
	for _, name := range []string{"scan", "pscan"} {
		algo, err := anyscan.ParseAlgorithm(name)
		if err != nil {
			t.Fatal(err)
		}
		q := anyscan.Query{Mu: 3, Eps: 0.45}
		orig, _, err := anyscan.Batch(g, algo, q)
		if err != nil {
			t.Fatal(err)
		}
		rel, _, err := anyscan.Batch(h, algo, q)
		if err != nil {
			t.Fatal(err)
		}
		// The partitions must correspond under the permutation: roles map
		// pointwise, labels up to a consistent bijection.
		fwd := map[int32]int32{}
		for old := 0; old < g.NumVertices(); old++ {
			mapped := perm[old]
			if orig.Roles[old] != rel.Roles[mapped] {
				t.Fatalf("%s: role of %d changed under relabeling: %v vs %v",
					name, old, orig.Roles[old], rel.Roles[mapped])
			}
			a, b := orig.Labels[old], rel.Labels[mapped]
			if (a < 0) != (b < 0) {
				t.Fatalf("%s: vertex %d labeled %d vs %d", name, old, a, b)
			}
			if a < 0 {
				continue
			}
			if want, ok := fwd[a]; ok && want != b {
				t.Fatalf("%s: label %d maps to both %d and %d", name, a, want, b)
			}
			fwd[a] = b
		}
		if orig.NumClusters != rel.NumClusters {
			t.Fatalf("%s: cluster count %d vs %d", name, orig.NumClusters, rel.NumClusters)
		}
	}
}
