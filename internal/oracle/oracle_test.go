// Package oracle holds every exact entry point to one truth,
// cluster.Reference, computed once per (graph, μ, ε) cell, through one
// small adapter per entry point. The index, sweep, live epochs, local
// queries and the HTTP API must reproduce it label for label; the batch
// algorithms, which may attach a border shared by two clusters to either,
// must be valid and equivalent to it. The package holds only tests.
package oracle

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"anyscan/internal/cluster"
	"anyscan/internal/core"
	"anyscan/internal/gen"
	"anyscan/internal/graph"
	"anyscan/internal/index"
	"anyscan/internal/live"
	"anyscan/internal/local"
	"anyscan/internal/mapreduce"
	"anyscan/internal/scan"
	"anyscan/internal/simeval"
	"anyscan/internal/sweep"
	"anyscan/internal/testutil"
)

// A param is one (μ, ε) of an input; batch marks the cells the batch
// algorithms answer as well.
type param struct {
	mu    int
	eps   float64
	batch bool
}

// A setting is one anySCAN configuration: workers and block sizes α = β.
type setting struct{ threads, block int }

// An input is a graph and what the oracle asks of it: every adapter answers
// each cell, then the graph takes script batches of generated edits, and
// after each batch every adapter answers each cell again on the edited
// graph. seeds is the number of random local seeds per cell (see newCell).
type input struct {
	name     string
	g        *graph.CSR
	cells    []param
	settings []setting
	seeds    int
	script   int
	http     bool
}

// The anySCAN configurations of the fixtures, the random graphs and the
// graphs on five vertices.
var (
	fixtureSettings = []setting{{1, 4}, {1, 1024}, {2, 16}, {4, 2}, {8, 64}}
	randomSettings  = []setting{{1, 7}, {1, 128}, {1, 100000}, {4, 7}, {4, 128}, {4, 100000}}
	tinySettings    = []setting{{1, 2}, {3, 2}}
)

func TestOracle(t *testing.T) {
	dir := t.TempDir()
	for _, in := range inputs(t) {
		t.Run(in.name, func(t *testing.T) { check(t, dir, in) })
	}
	t.Run("tiny", func(t *testing.T) {
		if testing.Short() {
			t.Skip("every graph on five vertices")
		}
		for _, in := range tinyInputs(t) {
			check(t, "", in)
		}
	})
}

// inputs returns the fixtures, the random cases (twice as many without
// -short) with the index grid on the first round, and the graphs of the
// local, live and HTTP shapes.
func inputs(t *testing.T) []input {
	karate := []param{{2, 0.5, true}, {3, 0.6, true}, {5, 0.4, true}, {1, 0.1, true}, {10, 0.3, true}, {4, 1, true}}
	ins := []input{
		{name: "two-triangles", g: testutil.TwoTriangles(), cells: []param{{3, 0.6, true}}, settings: fixtureSettings, seeds: 64},
		{name: "karate", g: testutil.Karate(), cells: karate, settings: fixtureSettings, seeds: 64},
	}
	rounds := 2
	if testing.Short() {
		rounds = 1
	}
	cases := testutil.RandomCases(rounds)
	grid := randomGrid(t, cases[:len(cases)/rounds])
	for i, tc := range cases {
		in := input{name: fmt.Sprintf("random-%d", i), g: tc.G, cells: []param{{tc.Mu, tc.Eps, true}}, settings: randomSettings}
		if i < len(grid) {
			in.cells = append(in.cells, grid[i]...)
		}
		ins = append(ins, in)
	}
	lfr, _, err := gen.LFR(gen.DefaultLFR(2500, 9, 19))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	var lfrCells []param
	for range 4 {
		lfrCells = append(lfrCells, param{mu: 2 + rng.Intn(5), eps: 0.25 + 0.5*rng.Float64()})
	}
	// Three more cells from the same stream, drawn with seed picks between
	// them: the cells the per-backend local-against-global test asked.
	lfrCells = append(lfrCells, param{mu: 5, eps: 0.4355077708575346},
		param{mu: 3, eps: 0.5933465564985058}, param{mu: 3, eps: 0.3108278200561919})
	var localCells []param
	for k := range 16 {
		localCells = append(localCells, param{mu: []int{1, 2, 3, 5}[k/4], eps: []float64{0.2, 0.4, 0.6, 0.8}[k%4]})
	}
	var unit gen.WeightConfig
	return append(ins,
		input{name: "local-planted", g: gen.PlantedPartition(300, 6, 0.5, 0.01, unit, 1), cells: localCells, seeds: 20},
		input{name: "local-er", g: gen.ErdosRenyi(200, 900, unit, 2), cells: localCells, seeds: 20},
		input{name: "local-ba", g: gen.BarabasiAlbert(250, 3, unit, 3), cells: localCells, seeds: 20},
		input{name: "local-planted-240", g: gen.PlantedPartition(240, 5, 0.5, 0.02, unit, 4),
			cells: []param{{2, 0.3, false}, {2, 0.5, false}, {2, 0.7, false}, {4, 0.3, false}, {4, 0.5, false}, {4, 0.7, false}}, seeds: 12},
		input{name: "live-er", g: gen.ErdosRenyi(150, 600, unit, 5),
			cells: []param{{2, 0.3, false}, {2, 0.6, false}, {3, 0.3, false}, {3, 0.6, false}}, seeds: 10, script: 3, http: true},
		input{name: "http-lfr", g: lfr, cells: lfrCells, seeds: 6, http: true},
	)
}

// randomGrid returns the index cells of each random case: μ ∈ {1, 2, μ₀,
// μ₀+2} at eight fixed ε and eight drawn per (case, μ), {1, μ₀} × {0.3,
// ε₀, 0.8}, {2, 3, 5} × {0.3, 0.5, 0.7} on the first four cases, and two of
// sweep's interesting thresholds per μ, which are exact σ boundaries.
func randomGrid(t *testing.T, cases []testutil.RandomCase) [][]param {
	rng := rand.New(rand.NewSource(7))
	out := make([][]param, len(cases))
	for i, tc := range cases {
		seen := map[param]bool{{tc.Mu, tc.Eps, false}: true} // a batch cell already
		add := func(mu int, epss ...float64) {
			for _, eps := range epss {
				if p := (param{mu: mu, eps: eps}); eps > 0 && !seen[p] {
					seen[p] = true
					out[i] = append(out[i], p)
				}
			}
		}
		mus := []int{1, 2, tc.Mu, tc.Mu + 2}
		x := index.Build(tc.G, 1)
		for _, mu := range mus {
			ex, err := sweep.FromIndex(x, mu)
			if err != nil {
				t.Fatal(err)
			}
			add(mu, 0.1, 0.3, 0.45, 0.5, 0.6, 0.75, 0.9, 1.0)
			if thr := ex.InterestingThresholds(0); len(thr) > 0 {
				add(mu, thr[0], thr[len(thr)/2])
			}
		}
		for k := range 2 * 4 * len(mus) { // four per μ, twice over
			add(mus[k/4%len(mus)], 0.05+0.9*rng.Float64())
		}
		add(1, 0.3, tc.Eps, 0.8)
		add(tc.Mu, 0.3, 0.8)
		for _, mu := range []int{2, 3, 5} {
			if i < 4 {
				add(mu, 0.3, 0.5, 0.7)
			}
		}
	}
	return out
}

// tinyInputs returns every graph on five vertices, 1,024 edge sets, each
// at four (μ, ε).
func tinyInputs(t *testing.T) []input {
	cells := []param{{2, 0.5, true}, {3, 0.7, true}, {2, 0.9, true}, {4, 0.4, true}}
	pairs := clique(0, 5)
	var ins []input
	for mask := range 1 << (len(pairs) / 2) {
		data := []byte{0, 4}
		for i := 0; i < len(pairs); i += 2 {
			if mask&(1<<(i/2)) != 0 {
				data = append(data, pairs[i], pairs[i+1])
			}
		}
		ins = append(ins, input{name: fmt.Sprintf("tiny-%#x", mask), g: fuzzGraph(t, data), cells: cells, settings: tinySettings})
	}
	return ins
}

// clique returns the edges of a k-clique over lo..lo+k-1 in fuzzGraph's
// layout, in lexicographic order.
func clique(lo, k byte) (edges []byte) {
	for u := lo; u < lo+k; u++ {
		for v := u + 1; v < lo+k; v++ {
			edges = append(edges, u, v)
		}
	}
	return edges
}

// FuzzOracle runs every in-process adapter on a graph decoded from the
// input, at one (μ, ε), then after two batches of generated edits. Byte 0
// sets μ (1 to 8), byte 1 sets ε ((b+1)/256, so in (0, 1]), and the rest is
// a graph (fuzzGraph). The first three seeds steer the hub/outlier split
// down each of its paths: two clusters whose hubs are found from the
// labelled side, a dense graph whose pendant vertices are scanned, and a
// graph with no core; the last four hold σ at the kernel's corners (a
// clique, triangles sharing vertices, weights, no edge).
func FuzzOracle(f *testing.F) {
	// Two 4-cliques {0..3} and {4..7}, both clusters at μ=4, ε=0.5. Vertex
	// 8 touches one vertex of each and is the center of a star over 9..28:
	// a hub. Vertex 29 touches 1 and 2, one cluster twice, and leaves
	// 9..18: an outlier. The noise side carries more arcs than the
	// cliques, so the split pushes from the labelled side.
	cliques := slices.Concat([]byte{3, 127, 0, 29}, clique(0, 4), clique(4, 4), []byte{8, 0, 8, 4, 29, 1, 29, 2})
	for leaf := byte(9); leaf <= 28; leaf++ {
		cliques = append(cliques, 8, leaf)
		if leaf <= 18 {
			cliques = append(cliques, 29, leaf)
		}
	}
	f.Add(cliques)
	// Two 6-cliques {0..5} and {6..11} at μ=4, ε=0.7 with pendant vertices:
	// 12 touches 0 and 6 (a hub), 13 touches 1 and 2 (an outlier), 14
	// touches 7 (an outlier). The noise side is the smaller, so the split
	// scans it.
	f.Add(slices.Concat([]byte{3, 179, 0, 14}, clique(0, 6), clique(6, 6), []byte{12, 0, 12, 6, 13, 1, 13, 2, 14, 7}))
	// A ring of 8 at μ=4: every vertex has two neighbors, so no core.
	f.Add([]byte{3, 127, 0, 7, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 0})
	f.Add(append([]byte{4, 127, 0, 11}, clique(0, 12)...))
	f.Add([]byte{2, 100, 0, 7, 0, 1, 1, 2, 2, 0, 2, 3, 3, 4, 4, 2, 5, 6})
	f.Add([]byte{2, 150, 1, 7, 0, 1, 10, 1, 2, 200, 2, 0, 77, 2, 3, 63, 3, 0, 5})
	f.Add([]byte{1, 200, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		mu, eps := 1+int(data[0])%8, float64(int(data[1])+1)/256
		check(t, t.TempDir(), input{name: "fuzz", g: fuzzGraph(t, data[2:]),
			cells: []param{{mu, eps, true}}, settings: tinySettings, seeds: 64, script: 2})
	})
}

// fuzzGraph decodes a graph: a flag byte whose bit 0 makes edges weighted,
// a byte setting the vertex count (1 to 64), then edges, two endpoint bytes
// each plus a weight byte ((b+1)/64) when weighted.
func fuzzGraph(t *testing.T, data []byte) *graph.CSR {
	n, step := 1+int(data[1])%64, 2+int(data[0]&1)
	var b graph.Builder
	b.SetNumVertices(n)
	for i := 2; i+step <= len(data); i += step {
		w := float32(1)
		if step == 3 {
			w = float32(int(data[i+2])+1) / 64
		}
		b.AddEdge(int32(int(data[i])%n), int32(int(data[i+1])%n), w)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// check holds every adapter to the truth at each cell of in, on in's graph
// and then after each batch of its script. dir holds the files the mmap
// backend maps; with no dir that backend is left out, as for the graphs on
// five vertices, where a file per graph would cost more than all their
// other checks.
func check(t *testing.T, dir string, in input) {
	t.Helper()
	var svc *service
	if in.http {
		svc = newService(t, in.g)
	}
	lg := live.FromIndex(index.Build(in.g, 1))
	rng := rand.New(rand.NewSource(1))
	g := in.g
	for stage := 0; ; stage++ {
		as := adapters(t, dir, fmt.Sprintf("%s-%d", in.name, stage), in, g, lg.Epoch())
		if svc != nil {
			as = append(as, svc.adapters()...)
		}
		for _, p := range in.cells {
			c := newCell(g, p, rng, in.seeds)
			// Every exact adapter must answer the truth, so validating the
			// truth validates each of their answers.
			if err := c.valid(c.truth); err != nil {
				t.Fatalf("%s, after %d batches: the truth at μ=%d ε=%v: %v", in.name, stage, p.mu, p.eps, err)
			}
			for _, a := range as {
				if a.batch && !p.batch {
					continue
				}
				if err := a.check(c); err != nil {
					t.Fatalf("%s, after %d batches: %s at μ=%d ε=%v: %v", in.name, stage, a.name, p.mu, p.eps, err)
				}
			}
		}
		if stage == in.script || g.NumVertices() < 2 {
			return
		}
		muts := edits(rng, g, 12)
		if _, _, err := lg.Apply(muts); err != nil {
			t.Fatalf("%s: batch %d: %v", in.name, stage+1, err)
		}
		if svc != nil {
			svc.mutate(t, muts)
		}
		var err error
		if g, err = lg.Epoch().ToCSR(); err != nil {
			t.Fatal(err)
		}
	}
}

// edits draws a batch of k edits of g: adds of random pairs (an add of a
// present edge reweights it), deletes and reweights of present edges.
func edits(rng *rand.Rand, g *graph.CSR, k int) []live.Mutation {
	n := int32(g.NumVertices())
	gone := map[[2]int32]bool{}
	var muts []live.Mutation
	for len(muts) < k {
		u, v := rng.Int31n(n), rng.Int31n(n)
		op := live.Op(rng.Intn(3))
		if op != live.OpAdd {
			adj, _ := g.Neighbors(u)
			if len(adj) == 0 {
				continue
			}
			v = adj[rng.Intn(len(adj))]
		}
		e := [2]int32{min(u, v), max(u, v)}
		if u == v || op == live.OpReweight && gone[e] {
			continue
		}
		gone[e] = op == live.OpDelete
		muts = append(muts, live.Mutation{Op: op, U: u, V: v, W: 0.25 + rng.Float32()}) // W is ignored by a delete
	}
	return muts
}

// A cell is one (graph, μ, ε), its truth, and the local seeds it is asked
// about: sample vertices at random and the first vertex of each role, or
// every vertex when sample is at least the vertex count.
type cell struct {
	g     *graph.CSR
	mu    int
	eps   float64
	truth *cluster.Result
	seeds []int32
}

func newCell(g *graph.CSR, p param, rng *rand.Rand, sample int) *cell {
	c := &cell{g: g, mu: p.mu, eps: p.eps, truth: cluster.Reference(g, p.mu, p.eps)}
	if n := g.NumVertices(); sample >= n {
		for v := range n {
			c.seeds = append(c.seeds, int32(v))
		}
	} else {
		for range sample {
			c.seeds = append(c.seeds, rng.Int31n(int32(n)))
		}
	}
	for _, role := range []cluster.Role{cluster.Core, cluster.Border, cluster.Hub, cluster.Outlier} {
		if v := slices.Index(c.truth.Roles, role); v >= 0 {
			c.seeds = append(c.seeds, int32(v))
		}
	}
	slices.Sort(c.seeds)
	c.seeds = slices.Compact(c.seeds)
	return c
}

// same reports where res differs from the truth.
func (c *cell) same(res *cluster.Result) error {
	if res.N() != c.truth.N() || res.NumClusters != c.truth.NumClusters {
		return fmt.Errorf("%d vertices in %d clusters, want %d in %d", res.N(), res.NumClusters, c.truth.N(), c.truth.NumClusters)
	}
	for v := range c.truth.Roles {
		if res.Labels[v] != c.truth.Labels[v] || res.Roles[v] != c.truth.Roles[v] {
			return fmt.Errorf("vertex %d is (%v, %d), want (%v, %d)",
				v, res.Roles[v], res.Labels[v], c.truth.Roles[v], c.truth.Labels[v])
		}
	}
	return nil
}

// valid is cluster.Validate made against the cell's truth instead of a
// second reference run, plus cluster.Equivalent: the same cores, borders,
// noise, core partition and cluster count as the truth, every border
// labelled and attached to the cluster of a similar adjacent core, and no
// label on noise.
func (c *cell) valid(res *cluster.Result) error {
	if err := cluster.Equivalent(c.truth, res); err != nil || res.NumClusters != c.truth.NumClusters {
		return fmt.Errorf("%d clusters, want %d; %v", res.NumClusters, c.truth.NumClusters, err)
	}
	eng := simeval.New(c.g, c.eps, simeval.Options{})
	for v := range res.Roles {
		switch r := res.Roles[v]; {
		case r.IsNoise() != c.truth.Roles[v].IsNoise():
			return fmt.Errorf("vertex %d is %v, want %v", v, r, c.truth.Roles[v])
		case r.IsNoise() && res.Labels[v] != cluster.NoLabel:
			return fmt.Errorf("noise vertex %d carries label %d", v, res.Labels[v])
		case r == cluster.Border && res.Labels[v] == cluster.NoLabel:
			return fmt.Errorf("border %d has no label", v)
		case r == cluster.Border && !attached(eng, res, int32(v)):
			return fmt.Errorf("border %d attached to cluster %d without a similar core there", v, res.Labels[v])
		}
	}
	return nil
}

// attached reports whether border v has a similar adjacent core in its
// cluster.
func attached(eng *simeval.Engine, res *cluster.Result, v int32) bool {
	adj, wts := eng.G.Neighbors(v)
	for i, q := range adj {
		if res.Roles[q] == cluster.Core && res.Labels[q] == res.Labels[v] && eng.SimilarEdge(v, q, wts[i]) {
			return true
		}
	}
	return false
}

// community reports where a local answer for seed differs from the truth:
// its role, its members and their roles must be the truth's, and it must
// touch at least one and at most every vertex.
func (c *cell) community(seed int32, role string, members []int32, roles []cluster.Role, touched int) error {
	if want := c.truth.Roles[seed].String(); role != want {
		return fmt.Errorf("seed %d is %s, want %s", seed, role, want)
	}
	var want []int32
	if l := c.truth.Labels[seed]; l != cluster.NoLabel {
		want = c.truth.Members(l)
	}
	if !slices.Equal(members, want) {
		return fmt.Errorf("seed %d: members differ from the truth's %d", seed, len(want))
	}
	for i, m := range members {
		if roles[i] != c.truth.Roles[m] {
			return fmt.Errorf("seed %d: member %d is %v, want %v", seed, m, roles[i], c.truth.Roles[m])
		}
	}
	if touched < 1 || touched > c.g.NumVertices() {
		return fmt.Errorf("seed %d: touched %d of %d vertices", seed, touched, c.g.NumVertices())
	}
	return nil
}

// An adapter reaches one entry point: check answers a cell through it and
// says how the answer differs from the truth. A batch adapter runs only at
// batch cells.
type adapter struct {
	name  string
	batch bool
	check func(c *cell) error
}

// exact adapts an entry point whose clustering must be the truth.
func exact(name string, query func(mu int, eps float64) (*cluster.Result, error)) adapter {
	return adapter{name: name, check: func(c *cell) error {
		res, err := query(c.mu, c.eps)
		if err != nil {
			return err
		}
		return c.same(res)
	}}
}

// equivalent adapts a batch algorithm, whose clustering must be valid and
// equivalent to the truth.
func equivalent(name string, run func(c *cell) (*cluster.Result, error)) adapter {
	return adapter{name: name, batch: true, check: func(c *cell) error {
		res, err := run(c)
		if err != nil {
			return err
		}
		return c.valid(res)
	}}
}

// localQuery adapts local.Query on view, asked about every seed of a cell.
func localQuery(name string, view local.View) adapter {
	return adapter{name: name, check: func(c *cell) error {
		for _, seed := range c.seeds {
			lr, err := local.Query(view, seed, c.mu, c.eps)
			if err != nil {
				return err
			}
			if err := c.community(seed, lr.Role.String(), lr.Members, lr.Roles, lr.Touched); err != nil {
				return err
			}
		}
		return nil
	}}
}

// adapters returns the in-process adapters for g, whose live epoch is ep;
// the mmap backend maps dir/file.csrz (no dir, no mmap backend). On the
// way it checks that the index built on every backend at 1, 2 and 4
// workers, and ep, have the neighbor orders, σ bit for bit, and core
// thresholds of the reference merge join, that every build counts one σ
// per edge, that ep counts g's edges, and that every build persists the
// same bytes.
func adapters(t *testing.T, dir, file string, in input, g *graph.CSR, ep *live.Epoch) []adapter {
	t.Helper()
	names, graphs := []string{"flat", "compressed"}, []graph.Graph{g, graph.Compress(g)}
	if dir != "" {
		names, graphs = append(names, "mmap"), append(graphs, mapFile(t, filepath.Join(dir, file+".csrz"), g))
	}
	want := exactOrders(g)
	var as []adapter
	var saved []byte
	evals := g.NumEdges()
	for i, bg := range graphs {
		for _, threads := range []int{1, 2, 4} {
			name := fmt.Sprintf("index/%s/%d", names[i], threads)
			x := index.Build(bg, threads)
			if err := want.differ(x, in.cells); err != nil || x.SimEvals() != evals {
				t.Fatalf("%s: %s: %d σ evaluations (want %d); %v", in.name, name, x.SimEvals(), evals, err)
			}
			var buf bytes.Buffer
			if err := x.Save(&buf); err != nil {
				t.Fatal(err)
			}
			if saved == nil {
				saved = buf.Bytes()
			} else if !bytes.Equal(buf.Bytes(), saved) {
				t.Fatalf("%s: %s persists other bytes than index/flat/1", in.name, name)
			}
			as = append(as, exact(name, x.Query))
			if i == 0 && threads != 2 {
				as = append(as, exact(fmt.Sprintf("sweep/%d", threads), func(mu int, eps float64) (*cluster.Result, error) {
					ex, err := sweep.FromIndex(x, mu)
					if err != nil {
						return nil, err
					}
					return ex.ClusteringAt(eps), nil
				}))
			}
			if name == "index/compressed/1" {
				as = append(as, localQuery("local/index", x))
			}
		}
	}
	loaded, err := index.Load(g, bytes.NewReader(saved), 2)
	if err != nil {
		t.Fatalf("%s: %v", in.name, err)
	}
	if err := want.differ(ep, in.cells); err != nil || ep.NumEdges() != g.NumEdges() {
		t.Fatalf("%s: epoch %d: %d edges (want %d); %v", in.name, ep.Seq(), ep.NumEdges(), g.NumEdges(), err)
	}
	// SCAN, the cheapest batch algorithm, answers every cell.
	scanAll := equivalent("SCAN", func(c *cell) (*cluster.Result, error) { r, _ := scan.SCAN(c.g, c.mu, c.eps); return r, nil })
	scanAll.batch = false
	as = append(as,
		exact("index/loaded", loaded.Query),
		exact("epoch", ep.Query),
		localQuery("local/epoch", ep),
		scanAll,
		equivalent("SCAN-B", func(c *cell) (*cluster.Result, error) { r, _ := scan.SCANB(c.g, c.mu, c.eps); return r, nil }),
		equivalent("pSCAN", func(c *cell) (*cluster.Result, error) { r, _ := scan.PSCAN(c.g, c.mu, c.eps); return r, nil }),
		equivalent("SCAN++", func(c *cell) (*cluster.Result, error) { r, _ := scan.SCANPP(c.g, c.mu, c.eps); return r, nil }),
	)
	for _, threads := range []int{1, 2, 4} {
		as = append(as,
			equivalent(fmt.Sprintf("ParallelSCAN/%d", threads), func(c *cell) (*cluster.Result, error) {
				r, _ := scan.ParallelSCAN(c.g, c.mu, c.eps, threads)
				return r, nil
			}),
			equivalent(fmt.Sprintf("PSCAN-MR/%d", threads), func(c *cell) (*cluster.Result, error) {
				r, _, _ := mapreduce.PSCANMR(c.g, c.mu, c.eps, threads)
				return r, nil
			}))
	}
	for _, s := range in.settings {
		as = append(as, equivalent(fmt.Sprintf("anySCAN/%d/%d", s.threads, s.block), func(c *cell) (*cluster.Result, error) {
			o := core.DefaultOptions()
			o.Mu, o.Eps, o.Threads, o.Alpha, o.Beta, o.ResolveRoles = c.mu, c.eps, s.threads, s.block, s.block, true
			r, _, err := core.Cluster(c.g, o)
			return r, err
		}))
	}
	return as
}

// mapFile writes g compressed to path and maps it back until the test ends.
func mapFile(t *testing.T, path string, g *graph.CSR) *graph.CompressedCSR {
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(graph.Compress(g).WriteCompressed(f), f.Close()); err != nil {
		t.Fatal(err)
	}
	mapped, err := graph.OpenCompressedFile(path, graph.CompressedOpenOptions{VerifyCRC: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mapped.Close() })
	return mapped
}

// orders holds each vertex's neighbors sorted by σ descending, ties by id,
// with σ from the reference merge join, simeval.Crossing(EdgeNumerator).
type orders struct {
	ids [][]int32
	sig [][]float64
}

func exactOrders(g *graph.CSR) orders {
	eng := simeval.New(g, 0, simeval.Options{})
	var o orders
	for v := range int32(g.NumVertices()) {
		adj, wts := g.Neighbors(v)
		ids, sig := slices.Clone(adj), make([]float64, len(adj))
		for j, q := range adj {
			sig[j] = simeval.Crossing(eng.EdgeNumerator(v, q, wts[j]))
		}
		index.SortOrder(ids, sig)
		o.ids, o.sig = append(o.ids, ids), append(o.sig, sig)
	}
	return o
}

// differ reports a vertex whose neighbor order or σ in view, or core
// threshold at the μ of cells, is not o's.
func (o orders) differ(view local.View, cells []param) error {
	for v := range o.ids {
		ids, sig := view.NeighborOrder(int32(v))
		if !slices.Equal(ids, o.ids[v]) || !slices.EqualFunc(sig, o.sig[v], func(a, b float64) bool {
			return math.Float64bits(a) == math.Float64bits(b)
		}) {
			return fmt.Errorf("vertex %d orders %v at σ %v, want %v at %v", v, ids, sig, o.ids[v], o.sig[v])
		}
		for _, p := range cells {
			if got, want := view.CoreThreshold(int32(v), p.mu), index.CoreThresholdOf(o.sig[v], p.mu); got != want {
				return fmt.Errorf("vertex %d: core threshold %v at μ=%d, want %v", v, got, p.mu, want)
			}
		}
	}
	return nil
}
