package server_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"anyscan/internal/datasets"
	"anyscan/internal/gen"
	"anyscan/internal/graph"
	"anyscan/internal/index"
	"anyscan/internal/server"
)

// This file tests the live-graph HTTP surface: POST /v1/graphs/{name}/edges
// batch mutations, the ?min_epoch= read-your-writes parameter on /v1/query,
// and the epoch routing of plain queries against mutated graphs.

// edgeSet collects g's undirected edges keyed (u<v).
func edgeSet(g *graph.CSR) map[[2]int32]float32 {
	edges := make(map[[2]int32]float32)
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		adj, wts := g.Neighbors(v)
		for i, q := range adj {
			if q > v {
				edges[[2]int32{v, q}] = wts[i]
			}
		}
	}
	return edges
}

// buildFromEdges assembles a CSR from an edge map (the reference the live
// server state must match exactly).
func buildFromEdges(t *testing.T, n int, edges map[[2]int32]float32) *graph.CSR {
	t.Helper()
	var b graph.Builder
	b.SetNumVertices(n)
	for e, w := range edges {
		b.AddEdge(e[0], e[1], w)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func apiStatus(t *testing.T, err error) int {
	t.Helper()
	var apiErr *server.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("want *server.APIError, got %T: %v", err, err)
	}
	return apiErr.Status
}

// TestMutateReadYourWrites drives the full write path over HTTP: a mixed
// batch publishes epoch 1, a min_epoch query observes it, and the answer —
// including per-vertex assignments — is identical to a from-scratch
// index.Build on the equivalent static graph. Plain queries (no min_epoch)
// against the mutated graph also serve the live epoch, no-op batches do not
// publish, and live profile queries require an explicit ε list.
func TestMutateReadYourWrites(t *testing.T) {
	const n = 300
	g := gen.ErdosRenyi(n, 1500, gen.WeightConfig{}, 5)
	path := writeGraphFile(t, g, t.TempDir())
	_, c := newTestServer(t, server.ManagerConfig{Workers: 1})
	if _, err := c.LoadGraph(tctx, server.LoadGraphRequest{Name: "live", GraphSource: server.GraphSource{Path: path}}); err != nil {
		t.Fatal(err)
	}

	edges := edgeSet(g)
	var del, rw [2]int32
	for e := range edges {
		if del == ([2]int32{}) {
			del = e
		} else if rw == ([2]int32{}) && e != del {
			rw = e
			break
		}
	}
	var add [2]int32
	for u := int32(0); u < n && add == ([2]int32{}); u++ {
		for v := u + 1; v < n; v++ {
			if _, ok := edges[[2]int32{u, v}]; !ok {
				add = [2]int32{u, v}
				break
			}
		}
	}

	muts := []server.MutationSpec{
		{Op: "add", U: add[0], V: add[1], W: 1.25},
		{Op: "delete", U: del[0], V: del[1]},
		{Op: "reweight", U: rw[0], V: rw[1], W: 2.5},
	}
	mr, err := c.Mutate(tctx, "live", muts)
	if err != nil {
		t.Fatal(err)
	}
	if mr.Epoch != 1 || mr.Applied != 3 || mr.NoOps != 0 {
		t.Fatalf("mutate: epoch=%d applied=%d noops=%d, want 1/3/0", mr.Epoch, mr.Applied, mr.NoOps)
	}
	if want := int64(len(edges)); mr.Edges != want {
		t.Fatalf("mutate: edges=%d, want %d (one insert, one delete)", mr.Edges, want)
	}

	// Reference: the same mutations applied to a static edge list, rebuilt
	// from scratch.
	edges[add] = 1.25
	delete(edges, del)
	edges[rw] = 2.5
	want := index.Build(buildFromEdges(t, n, edges), 0)

	const mu, eps = 3, 0.5
	qr, err := c.QueryEpoch(tctx, "live", mu, eps, mr.Epoch, true)
	if err != nil {
		t.Fatal(err)
	}
	if qr.Epoch != mr.Epoch {
		t.Fatalf("query epoch=%d, want %d", qr.Epoch, mr.Epoch)
	}
	res, err := want.Query(mu, eps)
	if err != nil {
		t.Fatal(err)
	}
	if qr.Clusters != res.NumClusters {
		t.Fatalf("clusters=%d, want %d (fresh rebuild)", qr.Clusters, res.NumClusters)
	}
	if qr.Assignments == nil {
		t.Fatal("no assignments in response")
	}
	for v := 0; v < n; v++ {
		if qr.Assignments.Labels[v] != res.Labels[v] || qr.Assignments.Roles[v] != int8(res.Roles[v]) {
			t.Fatalf("vertex %d: label/role (%d,%d), want (%d,%d)",
				v, qr.Assignments.Labels[v], qr.Assignments.Roles[v], res.Labels[v], int8(res.Roles[v]))
		}
	}

	// A plain query (no min_epoch) against a mutated graph serves the live
	// epoch too — mutations are immediately visible.
	qr2, err := c.Query(tctx, "live", mu, eps, false)
	if err != nil {
		t.Fatal(err)
	}
	if qr2.Epoch != mr.Epoch || qr2.Clusters != res.NumClusters {
		t.Fatalf("plain query: epoch=%d clusters=%d, want %d/%d", qr2.Epoch, qr2.Clusters, mr.Epoch, res.NumClusters)
	}

	// A batch with no net effect keeps the current epoch (nothing published).
	mr2, err := c.Mutate(tctx, "live", []server.MutationSpec{{Op: "delete", U: del[0], V: del[1]}})
	if err != nil {
		t.Fatal(err)
	}
	if mr2.Epoch != mr.Epoch || mr2.Applied != 0 || mr2.NoOps != 1 {
		t.Fatalf("no-op batch: epoch=%d applied=%d noops=%d, want %d/0/1", mr2.Epoch, mr2.Applied, mr2.NoOps, mr.Epoch)
	}

	// Profiles on live graphs need an explicit ε list...
	if _, err := c.QueryProfile(tctx, "live", mu, nil, 0); err == nil {
		t.Fatal("auto-probed profile on a live graph should fail")
	} else if got := apiStatus(t, err); got != http.StatusBadRequest {
		t.Fatalf("auto-probed profile: status %d, want 400", got)
	}
	// ...and with one, each point matches a direct epoch query.
	pr, err := c.QueryProfile(tctx, "live", mu, []float64{0.3, eps}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Epoch != mr.Epoch || len(pr.Points) != 2 {
		t.Fatalf("profile: epoch=%d points=%d, want %d/2", pr.Epoch, len(pr.Points), mr.Epoch)
	}
	if pr.Points[1].Clusters != res.NumClusters {
		t.Fatalf("profile point at eps=%g: clusters=%d, want %d", eps, pr.Points[1].Clusters, res.NumClusters)
	}

	txt, err := c.MetricsText(tctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"anyscand_mutations_total 4",
		"anyscand_epoch_publish_seconds_count 1",
		"anyscand_live_graphs 1",
		"anyscand_epoch_lag 0",
	} {
		if !strings.Contains(txt, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestMutateValidation pins the error surface of the mutation endpoint:
// structural errors are 400s naming the offending mutation, unknown graphs
// are 404s, and an invalid batch is rejected atomically — the epoch chain
// does not advance.
func TestMutateValidation(t *testing.T) {
	g := gen.ErdosRenyi(50, 200, gen.WeightConfig{}, 9)
	path := writeGraphFile(t, g, t.TempDir())
	_, c := newTestServer(t, server.ManagerConfig{Workers: 1})
	if _, err := c.LoadGraph(tctx, server.LoadGraphRequest{Name: "g", GraphSource: server.GraphSource{Path: path}}); err != nil {
		t.Fatal(err)
	}

	if _, err := c.Mutate(tctx, "nope", []server.MutationSpec{{Op: "add", U: 0, V: 1, W: 1}}); err == nil {
		t.Fatal("mutating an unloaded graph should fail")
	} else if got := apiStatus(t, err); got != http.StatusNotFound {
		t.Fatalf("unloaded graph: status %d, want 404", got)
	}

	cases := []struct {
		name string
		muts []server.MutationSpec
		msg  string
	}{
		{"empty batch", nil, "mutations list is empty"},
		{"unknown op", []server.MutationSpec{{Op: "frobnicate", U: 0, V: 1, W: 1}}, `unknown op "frobnicate"`},
		{"self loop", []server.MutationSpec{{Op: "add", U: 3, V: 3, W: 1}}, "self loop"},
		{"out of range", []server.MutationSpec{{Op: "add", U: 0, V: 99, W: 1}}, "out of range"},
		{"bad weight", []server.MutationSpec{{Op: "add", U: 0, V: 1, W: -2}}, "not positive"},
		{"reweight absent", []server.MutationSpec{
			{Op: "add", U: 0, V: 2, W: 1}, // valid, must not survive the batch
			{Op: "reweight", U: 40, V: 41, W: 1},
		}, "mutation 1"},
	}
	for _, tc := range cases {
		_, err := c.Mutate(tctx, "g", tc.muts)
		if err == nil {
			t.Fatalf("%s: batch accepted", tc.name)
		}
		if got := apiStatus(t, err); got != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", tc.name, got)
		}
		if !strings.Contains(err.Error(), tc.msg) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.msg)
		}
	}

	// None of the rejected batches advanced the epoch chain (the reweight
	// batch in particular must not have applied its valid first mutation).
	qr, err := c.Query(tctx, "g", 2, 0.5, false)
	if err != nil {
		t.Fatal(err)
	}
	if qr.Epoch != 0 {
		t.Fatalf("rejected batches advanced the epoch to %d", qr.Epoch)
	}
}

// TestRequestBodyTooLarge pins the bound on JSON request bodies: a body
// over 32 MiB is a structured 413 on every route that decodes one, and a
// mutation batch that arrives that way applies nothing.
func TestRequestBodyTooLarge(t *testing.T) {
	const limit = 32 << 20
	g := gen.ErdosRenyi(50, 200, gen.WeightConfig{}, 9)
	path := writeGraphFile(t, g, t.TempDir())
	srv, c := newTestServer(t, server.ManagerConfig{Workers: 1})
	if _, err := c.LoadGraph(tctx, server.LoadGraphRequest{Name: "g", GraphSource: server.GraphSource{Path: path}}); err != nil {
		t.Fatal(err)
	}
	u, v := int32(0), int32(1)
	for g.HasEdge(u, v) {
		v++
	}
	add := fmt.Sprintf(`{"mutations":[{"op":"add","u":%d,"v":%d,"w":1}]`, u, v)
	// Valid JSON but for its whitespace padding past the bound.
	padded := func(head string) string { return head + strings.Repeat(" ", limit) + "}" }
	for _, r := range []struct{ path, body string }{
		{"/v1/graphs/g/edges", padded(add)},
		{"/v1/graphs", padded(`{"name":"h","dataset":"GR01L","scale":0.05`)},
		{"/v1/jobs", padded(`{"graph":"g","mu":2,"eps":0.5`)},
	} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, r.path, strings.NewReader(r.body)))
		var e server.ErrorResponse
		if err := json.NewDecoder(rec.Body).Decode(&e); err != nil || rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("POST %s with a %d-byte body: status %d, body error %q (%v), want a structured 413",
				r.path, len(r.body), rec.Code, e.Error, err)
		}
	}
	if qr, err := c.Query(tctx, "g", 2, 0.5, false); err != nil || qr.Epoch != 0 {
		t.Fatalf("after the oversized batch: epoch %d, err %v; want epoch 0", qr.Epoch, err)
	}
	// The same batch within the bound applies.
	if mr, err := c.Mutate(tctx, "g", []server.MutationSpec{{Op: "add", U: u, V: v, W: 1}}); err != nil || mr.Epoch != 1 {
		t.Fatalf("the batch within the bound: epoch %d, err %v; want epoch 1", mr.Epoch, err)
	}
}

// TestMinEpochSemantics pins the read-your-writes contract's edges: a
// min_epoch bound on a never-mutated graph is a 409 (no epoch chain can ever
// satisfy it), and a bound beyond the published epoch times out with 503 —
// never a stale or torn answer.
func TestMinEpochSemantics(t *testing.T) {
	g := gen.ErdosRenyi(100, 400, gen.WeightConfig{}, 3)
	path := writeGraphFile(t, g, t.TempDir())
	_, c := newTestServer(t, server.ManagerConfig{Workers: 1})
	if _, err := c.LoadGraph(tctx, server.LoadGraphRequest{Name: "g", GraphSource: server.GraphSource{Path: path}}); err != nil {
		t.Fatal(err)
	}

	if _, err := c.QueryEpoch(tctx, "g", 2, 0.5, 1, false); err == nil {
		t.Fatal("min_epoch on a never-mutated graph should fail")
	} else if got := apiStatus(t, err); got != http.StatusConflict {
		t.Fatalf("unmutated graph: status %d, want 409", got)
	}

	mr, err := c.Mutate(tctx, "g", []server.MutationSpec{{Op: "delete", U: 0, V: 1}, {Op: "add", U: 2, V: 5, W: 9.5}})
	if err != nil {
		t.Fatal(err)
	}
	if mr.Epoch < 1 {
		t.Fatalf("mutate published epoch %d, want >= 1", mr.Epoch)
	}

	// Demanding an epoch nobody will publish must expire with the request
	// deadline (503 + Retry-After), not hang and not degrade to stale data.
	resp, err := http.Get(c.BaseURL + "/v1/query?graph=g&mu=2&eps=0.5&min_epoch=999&timeout_ms=150")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("future min_epoch answered %d (%s), want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Anyscan-Stale") != "" {
		t.Fatal("min_epoch wait degraded to a stale answer")
	}
	if !strings.Contains(string(body), "epoch 999 not published") {
		t.Fatalf("error body %q does not explain the unpublished epoch", body)
	}

	// The published epoch itself is immediately satisfiable.
	qr, err := c.QueryEpoch(tctx, "g", 2, 0.5, mr.Epoch, false)
	if err != nil {
		t.Fatal(err)
	}
	if qr.Epoch < mr.Epoch {
		t.Fatalf("read-your-writes query answered from epoch %d < %d", qr.Epoch, mr.Epoch)
	}
}

// TestGraphStatePinnedIndexesStay runs the memory-budget probe on live
// graphs: under a 1 B index budget, three graphs are each queried and then
// mutated once. A live graph's epochs alias its index, so evicting that
// index would free nothing: the budget evicts none of the three, and the
// memory gauge counts every one.
func TestGraphStatePinnedIndexesStay(t *testing.T) {
	g, err := datasets.Load("GR01L", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	perIndex := index.Build(g, 1).Bytes()
	_, _, c := newOverloadServer(t, server.OverloadConfig{IndexMemoryBudget: 1})
	for _, name := range []string{"a", "b", "c"} {
		src := server.GraphSource{Dataset: "GR01L", Scale: 0.05}
		if _, err := c.LoadGraph(tctx, server.LoadGraphRequest{Name: name, GraphSource: src}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Query(tctx, name, 3, 0.4, false); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Mutate(tctx, name, []server.MutationSpec{{Op: "add", U: 0, V: 1, W: 0.5}}); err != nil {
			t.Fatal(err)
		}
	}
	text, err := c.MetricsText(tctx)
	if err != nil {
		t.Fatal(err)
	}
	if v := metricValue(t, text, "anyscand_index_evicted_total "); v != 0 {
		t.Errorf("anyscand_index_evicted_total = %g; indexes pinned by live graphs must not be evicted", v)
	}
	if v := metricValue(t, text, "anyscand_index_memory_bytes "); v < float64(3*perIndex) {
		t.Errorf("anyscand_index_memory_bytes = %g, want at least the three pinned indexes' %d", v, 3*perIndex)
	}
}
