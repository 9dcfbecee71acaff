package server_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"anyscan/internal/cluster"
	"anyscan/internal/eval"
	"anyscan/internal/gen"
	"anyscan/internal/server"
)

// TestE2EApproxQueryDial exercises the accuracy dial end to end on an
// unweighted graph: an ?approx= query is answered from a sketch-based index
// (echoed in the response, cached under its own key, counted in metrics) and
// its clustering is near-identical to the exact answer. /v1/local has no
// dial: an approx local read is a 400 naming the removal, and a plain one on
// the same graph returns the exact clustering's community.
func TestE2EApproxQueryDial(t *testing.T) {
	g, _, err := gen.LFR(gen.DefaultLFR(2000, 9, 13))
	if err != nil {
		t.Fatal(err)
	}
	path := writeGraphFile(t, g, t.TempDir())
	srv, c := newTestServer(t, server.ManagerConfig{Workers: 1, Logger: quietLogger()})
	if _, err := c.LoadGraph(tctx, server.LoadGraphRequest{
		Name: "g", GraphSource: server.GraphSource{Path: path},
	}); err != nil {
		t.Fatal(err)
	}

	const mu, eps, delta = 3, 0.5, 0.05
	exact, err := c.Query(tctx, "g", mu, eps, true)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Approx != 0 {
		t.Fatalf("exact query echoed approx=%g, want 0", exact.Approx)
	}

	ap, err := c.QueryApprox(tctx, "g", mu, eps, delta, true)
	if err != nil {
		t.Fatal(err)
	}
	if ap.Approx != delta {
		t.Fatalf("approx query echoed approx=%g, want %g", ap.Approx, delta)
	}
	if ap.CacheHit {
		t.Fatal("first approx query reported a cache hit; the approx index must not share the exact entry")
	}
	ari, nmi := eval.AgreementLabels(exact.Assignments.Labels, ap.Assignments.Labels)
	if ari < 0.99 {
		t.Fatalf("approx clustering at delta=%g diverges: ARI %.4f (NMI %.4f)", delta, ari, nmi)
	}

	// Same dial again: served from the cached approximate index.
	ap2, err := c.QueryApprox(tctx, "g", mu, eps, delta, false)
	if err != nil {
		t.Fatal(err)
	}
	if !ap2.CacheHit {
		t.Fatal("second approx query at the same delta missed the cache")
	}
	if ap2.Clusters != ap.Clusters {
		t.Fatalf("cached approx answer changed: %d clusters vs %d", ap2.Clusters, ap.Clusters)
	}

	var seed int32 = -1
	for v, l := range exact.Assignments.Labels {
		if l != cluster.NoLabel {
			seed = int32(v)
			break
		}
	}
	if seed < 0 {
		t.Fatal("exact clustering assigned no communities")
	}
	wantDialRemovedFromLocal(t, srv, fmt.Sprintf("graph=g&seed=%d&mu=%d&eps=%g&approx=%g", seed, mu, eps, delta))
	lr, err := c.Local(tctx, "g", seed, mu, eps, true)
	if err != nil {
		t.Fatal(err)
	}
	wantRole, wantMembers, wantRoles := expectedLocal(exact.Assignments, seed)
	if lr.Role != wantRole || !reflect.DeepEqual(lr.Members, wantMembers) || !reflect.DeepEqual(lr.Roles, wantRoles) {
		t.Fatalf("local(seed=%d) diverges from the exact query (role %q vs %q, %d vs %d members)",
			seed, lr.Role, wantRole, len(lr.Members), len(wantMembers))
	}

	text, err := c.MetricsText(tctx)
	if err != nil {
		t.Fatal(err)
	}
	if v := metricValue(t, text, "anyscand_approx_queries_total "); v < 2 {
		t.Fatalf("anyscand_approx_queries_total = %g, want >= 2", v)
	}
	if v := metricValue(t, text, "anyscand_approx_index_builds_total "); v < 1 {
		t.Fatalf("anyscand_approx_index_builds_total = %g, want >= 1", v)
	}
}

// TestE2EApproxWeightedFallsBackExact loads a weighted graph: the build has
// no sketchable σ form, so an approx request is answered exactly and the
// response says so by omitting the dial.
func TestE2EApproxWeightedFallsBackExact(t *testing.T) {
	cfg := gen.DefaultLFR(900, 8, 29)
	cfg.Weights = gen.WeightConfig{Mode: gen.WeightUniform, Min: 0.5, Max: 2}
	g, _, err := gen.LFR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := writeGraphFile(t, g, t.TempDir())
	_, c := newTestServer(t, server.ManagerConfig{Workers: 1, Logger: quietLogger()})
	if _, err := c.LoadGraph(tctx, server.LoadGraphRequest{
		Name: "w", GraphSource: server.GraphSource{Path: path},
	}); err != nil {
		t.Fatal(err)
	}

	const mu, eps = 3, 0.4
	exact, err := c.Query(tctx, "w", mu, eps, true)
	if err != nil {
		t.Fatal(err)
	}
	ap, err := c.QueryApprox(tctx, "w", mu, eps, 0.05, true)
	if err != nil {
		t.Fatal(err)
	}
	if ap.Approx != 0 {
		t.Fatalf("weighted-graph approx query echoed approx=%g, want 0 (exact fallback)", ap.Approx)
	}
	if !reflect.DeepEqual(ap.Assignments, exact.Assignments) {
		t.Fatal("weighted-graph approx answer differs from exact")
	}
}

// TestE2EApproxOnLiveGraphServedExactly mutates a graph and then asks for an
// approx clustering: live epochs carry exact σ, so the answer must come from
// the epoch chain (epoch echoed, approx omitted) and the fallback counter
// must tick. An approx local read is a 400 on a live graph too.
func TestE2EApproxOnLiveGraphServedExactly(t *testing.T) {
	g, _, err := gen.LFR(gen.DefaultLFR(800, 8, 41))
	if err != nil {
		t.Fatal(err)
	}
	path := writeGraphFile(t, g, t.TempDir())
	srv, c := newTestServer(t, server.ManagerConfig{Workers: 1, Logger: quietLogger()})
	if _, err := c.LoadGraph(tctx, server.LoadGraphRequest{
		Name: "g", GraphSource: server.GraphSource{Path: path},
	}); err != nil {
		t.Fatal(err)
	}
	mr, err := c.Mutate(tctx, "g", []server.MutationSpec{{Op: "add", U: 0, V: 500, W: 1}})
	if err != nil {
		t.Fatal(err)
	}

	ap, err := c.QueryApproxEpoch(tctx, "g", 3, 0.4, 0.05, mr.Epoch, false)
	if err != nil {
		t.Fatal(err)
	}
	if ap.Approx != 0 {
		t.Fatalf("live-graph approx query echoed approx=%g, want 0 (exact serving)", ap.Approx)
	}
	if ap.Epoch < mr.Epoch {
		t.Fatalf("live-graph approx answer at epoch %d, want >= %d", ap.Epoch, mr.Epoch)
	}
	wantDialRemovedFromLocal(t, srv, "graph=g&seed=0&mu=3&eps=0.4&approx=0.05&members=0")

	text, err := c.MetricsText(tctx)
	if err != nil {
		t.Fatal(err)
	}
	if v := metricValue(t, text, "anyscand_approx_live_exact_total "); v < 1 {
		t.Fatalf("anyscand_approx_live_exact_total = %g, want >= 1", v)
	}
}

// wantDialRemovedFromLocal asserts that GET /v1/local?query, which carries a
// positive approx, is a structured 400 naming the removed dial.
func wantDialRemovedFromLocal(t *testing.T, h http.Handler, query string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/local?"+query, nil))
	var e server.ErrorResponse
	if rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &e) != nil ||
		!strings.Contains(e.Error, "approx was removed from /v1/local") {
		t.Fatalf("GET /v1/local?%s: %d %s, want a 400 naming the removed dial", query, rec.Code, rec.Body)
	}
}
