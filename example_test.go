package anyscan_test

import (
	"fmt"

	"anyscan"
)

// A small two-community graph used by the examples: two triangles joined by
// a single bridge vertex.
func exampleGraph() *anyscan.Graph {
	g, err := anyscan.FromUnweightedEdges(7, [][2]int32{
		{0, 1}, {0, 2}, {1, 2}, // community A
		{4, 5}, {4, 6}, {5, 6}, // community B
		{2, 3}, {3, 4}, // bridge vertex 3
	})
	if err != nil {
		panic(err)
	}
	return g
}

func ExampleCluster() {
	opts := anyscan.DefaultOptions()
	opts.Mu, opts.Eps = 3, 0.6
	res, _, err := anyscan.Cluster(exampleGraph(), opts)
	if err != nil {
		panic(err)
	}
	fmt.Println("clusters:", res.NumClusters)
	fmt.Println("vertex 0:", res.Roles[0])
	fmt.Println("vertex 3:", res.Roles[3])
	// Output:
	// clusters: 2
	// vertex 0: core
	// vertex 3: hub
}

func ExampleNew_anytime() {
	opts := anyscan.DefaultOptions()
	opts.Mu, opts.Eps = 3, 0.6
	opts.Alpha, opts.Beta = 2, 2 // tiny blocks so the loop visibly iterates
	opts.Threads = 1
	c, err := anyscan.New(exampleGraph(), opts)
	if err != nil {
		panic(err)
	}
	steps := 0
	for c.Step() {
		steps++
		_ = c.Snapshot() // the best-so-far clustering, inspectable any time
	}
	fmt.Println("finished:", c.Done())
	fmt.Println("ran multiple anytime steps:", steps > 1)
	// Output:
	// finished: true
	// ran multiple anytime steps: true
}

func ExampleNewExplorer() {
	ex, err := anyscan.NewExplorer(exampleGraph(), 3, 1)
	if err != nil {
		panic(err)
	}
	for _, p := range ex.SweepProfile([]float64{0.5, 0.7, 0.9}) {
		fmt.Printf("eps=%.1f clusters=%d cores=%d\n", p.Eps, p.Clusters, p.Counts.Cores)
	}
	// Output:
	// eps=0.5 clusters=1 cores=7
	// eps=0.7 clusters=2 cores=6
	// eps=0.9 clusters=0 cores=0
}

func ExampleNewLiveGraph() {
	lg := anyscan.NewLiveGraph(anyscan.NewIndex(exampleGraph(), 1))
	clusters := func() int {
		res, err := lg.Epoch().Query(3, 0.6)
		if err != nil {
			panic(err)
		}
		return res.NumClusters
	}
	triangleA := func(op anyscan.MutationOp) []anyscan.Mutation {
		return []anyscan.Mutation{
			{Op: op, U: 0, V: 1, W: 1}, {Op: op, U: 0, V: 2, W: 1}, {Op: op, U: 1, V: 2, W: 1},
		}
	}
	fmt.Println("clusters before:", clusters())
	// Community A falls apart in one atomic batch...
	if _, _, err := lg.Apply(triangleA(anyscan.OpDelete)); err != nil {
		panic(err)
	}
	fmt.Println("clusters after:", clusters())
	// ...and reforms when the friendships return.
	if _, _, err := lg.Apply(triangleA(anyscan.OpAdd)); err != nil {
		panic(err)
	}
	fmt.Println("clusters restored:", clusters(), "at epoch", lg.Epoch().Seq())
	// Output:
	// clusters before: 2
	// clusters after: 1
	// clusters restored: 2 at epoch 2
}

func ExampleBatch() {
	res, metrics, err := anyscan.Batch(exampleGraph(), anyscan.AlgoSCAN, anyscan.Query{Mu: 3, Eps: 0.6})
	if err != nil {
		panic(err)
	}
	fmt.Println("clusters:", res.NumClusters)
	fmt.Println("evaluations:", metrics.Sim.Sims) // 2|E| = 16
	// Output:
	// clusters: 2
	// evaluations: 16
}

func ExampleIndex_Query() {
	// Build the query index once (one σ evaluation per edge), then answer
	// any (μ, ε) without further similarity work.
	x := anyscan.NewIndex(exampleGraph(), 1)
	for _, q := range []anyscan.Query{{Mu: 3, Eps: 0.6}, {Mu: 2, Eps: 0.4}} {
		res, err := x.Query(q.Mu, q.Eps)
		if err != nil {
			panic(err)
		}
		fmt.Printf("mu=%d eps=%.1f clusters=%d\n", q.Mu, q.Eps, res.NumClusters)
	}
	fmt.Println("total evaluations:", x.SimEvals()) // |E| = 8
	// Output:
	// mu=3 eps=0.6 clusters=2
	// mu=2 eps=0.4 clusters=1
	// total evaluations: 8
}

func ExampleNMI() {
	g := exampleGraph()
	a, _, _ := anyscan.Batch(g, anyscan.AlgoSCAN, anyscan.Query{Mu: 3, Eps: 0.6})
	b, _, _ := anyscan.Batch(g, anyscan.AlgoPSCAN, anyscan.Query{Mu: 3, Eps: 0.6})
	fmt.Printf("%.2f\n", anyscan.NMI(a, b))
	// Output:
	// 1.00
}
