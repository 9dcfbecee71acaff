package server_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"

	"anyscan/internal/cluster"
	"anyscan/internal/gen"
	"anyscan/internal/server"
)

// expectedLocal derives the ground-truth /v1/local answer for one seed from
// a full /v1/query assignment vector: the seed's role plus — when the seed
// belongs to a community — the ascending member list with per-member roles.
func expectedLocal(a *server.Assignments, seed int32) (role string, members server.Ints[int32], roles server.Ints[int8]) {
	role = cluster.Role(a.Roles[seed]).String()
	label := a.Labels[seed]
	if label == cluster.NoLabel {
		return role, nil, nil
	}
	for v := range a.Labels {
		if a.Labels[v] == label {
			members = append(members, int32(v))
			roles = append(roles, a.Roles[v])
		}
	}
	return role, members, roles
}

// seedGrid picks a deterministic but varied seed set for one (μ, ε) cell:
// a few random vertices plus the first vertex of every role present, so
// core, border, hub, and outlier paths are all exercised.
func seedGrid(rng *rand.Rand, a *server.Assignments, sample int) []int32 {
	n := len(a.Labels)
	picked := map[int32]bool{}
	var seeds []int32
	add := func(v int32) {
		if !picked[v] {
			picked[v] = true
			seeds = append(seeds, v)
		}
	}
	for i := 0; i < sample; i++ {
		add(int32(rng.Intn(n)))
	}
	for _, want := range []int8{int8(cluster.Core), int8(cluster.Border), int8(cluster.Hub), int8(cluster.Outlier)} {
		for v := range a.Roles {
			if a.Roles[v] == want {
				add(int32(v))
				break
			}
		}
	}
	return seeds
}

// TestE2ELocalMinEpochAfterMutations interleaves edge mutations with local
// queries carrying the returned epoch token: each local answer must reflect
// the write (read-your-writes) and match the global clustering at the same
// epoch exactly.
func TestE2ELocalMinEpochAfterMutations(t *testing.T) {
	g, _, err := gen.LFR(gen.DefaultLFR(1500, 8, 5))
	if err != nil {
		t.Fatal(err)
	}
	path := writeGraphFile(t, g, t.TempDir())
	_, c := newTestServer(t, server.ManagerConfig{Workers: 1, Logger: quietLogger()})
	if _, err := c.LoadGraph(tctx, server.LoadGraphRequest{
		Name: "g", GraphSource: server.GraphSource{Path: path},
	}); err != nil {
		t.Fatal(err)
	}

	const mu, eps = 3, 0.4
	rng := rand.New(rand.NewSource(11))
	n := int32(g.NumVertices())
	for batch := 0; batch < 3; batch++ {
		muts := make([]server.MutationSpec, 0, 8)
		for i := 0; i < 8; i++ {
			u, v := rng.Int31n(n), rng.Int31n(n)
			if u == v {
				continue
			}
			op := "add"
			if i%3 == 2 {
				op = "delete"
			}
			m := server.MutationSpec{Op: op, U: u, V: v}
			if op == "add" {
				m.W = 0.5 + rng.Float32()
			}
			muts = append(muts, m)
		}
		mr, err := c.Mutate(tctx, "g", muts)
		if err != nil {
			t.Fatal(err)
		}
		global, err := c.QueryEpoch(tctx, "g", mu, eps, mr.Epoch, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range seedGrid(rng, global.Assignments, 4) {
			lr, err := c.LocalEpoch(tctx, "g", seed, mu, eps, mr.Epoch, true)
			if err != nil {
				t.Fatalf("batch %d: local at epoch %d: %v", batch, mr.Epoch, err)
			}
			if lr.Epoch < mr.Epoch {
				t.Fatalf("batch %d: asked for epoch ≥ %d, got %d", batch, mr.Epoch, lr.Epoch)
			}
			if lr.Stale {
				t.Fatalf("batch %d: read-your-writes answer marked stale", batch)
			}
			wantRole, wantMembers, _ := expectedLocal(global.Assignments, seed)
			if lr.Role != wantRole || !reflect.DeepEqual(lr.Members, wantMembers) {
				t.Fatalf("batch %d: seed %d local answer diverges from epoch-%d global",
					batch, seed, mr.Epoch)
			}
		}
	}
}

// TestE2ELocalConcurrentWithMutations races local queries against a mutation
// stream under the race detector: every local answer must be internally
// consistent (a valid role, members sorted ascending) even while epochs
// advance underneath it. Overload shedding (503) is acceptable; any other
// failure is not.
func TestE2ELocalConcurrentWithMutations(t *testing.T) {
	g, _, err := gen.LFR(gen.DefaultLFR(1200, 8, 23))
	if err != nil {
		t.Fatal(err)
	}
	path := writeGraphFile(t, g, t.TempDir())
	_, c := newTestServer(t, server.ManagerConfig{Workers: 2, Logger: quietLogger()})
	if _, err := c.LoadGraph(tctx, server.LoadGraphRequest{
		Name: "g", GraphSource: server.GraphSource{Path: path},
	}); err != nil {
		t.Fatal(err)
	}

	n := int32(g.NumVertices())
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	wg.Add(1)
	go func() { // writer: small add/delete batches
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 10; i++ {
			u, v := rng.Int31n(n), rng.Int31n(n)
			if u == v {
				continue
			}
			if _, err := c.Mutate(tctx, "g", []server.MutationSpec{
				{Op: "add", U: u, V: v, W: 1},
			}); err != nil {
				var apiErr *server.APIError
				if errors.As(err, &apiErr) && apiErr.Status == http.StatusServiceUnavailable {
					continue // writer shed under load: acceptable
				}
				errc <- fmt.Errorf("mutate: %w", err)
				return
			}
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < 12; i++ {
				seed := rng.Int31n(n)
				lr, err := c.Local(tctx, "g", seed, 3, 0.4, true)
				if err != nil {
					var apiErr *server.APIError
					if errors.As(err, &apiErr) && apiErr.Status == http.StatusServiceUnavailable {
						continue // overload shedding is a legitimate answer
					}
					errc <- fmt.Errorf("local(seed=%d): %w", seed, err)
					return
				}
				for j := 1; j < len(lr.Members); j++ {
					if lr.Members[j-1] >= lr.Members[j] {
						errc <- fmt.Errorf("seed %d: members not strictly ascending", seed)
						return
					}
				}
				if len(lr.Roles) != len(lr.Members) {
					errc <- fmt.Errorf("seed %d: %d roles for %d members", seed, len(lr.Roles), len(lr.Members))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestE2ELocalMinEpochOnStaticGraph asserts the contract that min_epoch on a
// never-mutated graph is a 409: there is no live epoch to wait for, and
// silently serving the static index would fake a guarantee.
func TestE2ELocalMinEpochOnStaticGraph(t *testing.T) {
	g, _, err := gen.LFR(gen.DefaultLFR(800, 8, 31))
	if err != nil {
		t.Fatal(err)
	}
	path := writeGraphFile(t, g, t.TempDir())
	_, c := newTestServer(t, server.ManagerConfig{Workers: 1, Logger: quietLogger()})
	if _, err := c.LoadGraph(tctx, server.LoadGraphRequest{
		Name: "g", GraphSource: server.GraphSource{Path: path},
	}); err != nil {
		t.Fatal(err)
	}
	_, err = c.LocalEpoch(tctx, "g", 0, 3, 0.4, 5, true)
	var apiErr *server.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusConflict {
		t.Fatalf("min_epoch on unmutated graph: got %v, want 409", err)
	}
}

// TestHandlerValidation is the table-driven audit of /v1/* parameter
// validation: malformed or out-of-range input must yield a structured 4xx
// ErrorResponse — never a 500, never a panic closing the connection.
func TestHandlerValidation(t *testing.T) {
	g, _, err := gen.LFR(gen.DefaultLFR(600, 8, 47))
	if err != nil {
		t.Fatal(err)
	}
	path := writeGraphFile(t, g, t.TempDir())
	_, c := newTestServer(t, server.ManagerConfig{Workers: 1, Logger: quietLogger()})
	if _, err := c.LoadGraph(tctx, server.LoadGraphRequest{
		Name: "g", GraphSource: server.GraphSource{Path: path},
	}); err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()

	cases := []struct {
		name string
		url  string
		want int
	}{
		{"local: no params", "/v1/local", http.StatusBadRequest},
		{"local: missing seed", "/v1/local?graph=g&mu=3&eps=0.4", http.StatusBadRequest},
		{"local: non-numeric seed", "/v1/local?graph=g&seed=abc&mu=3&eps=0.4", http.StatusBadRequest},
		{"local: non-numeric mu", "/v1/local?graph=g&seed=0&mu=x&eps=0.4", http.StatusBadRequest},
		{"local: non-numeric eps", "/v1/local?graph=g&seed=0&mu=3&eps=x", http.StatusBadRequest},
		{"local: negative seed", "/v1/local?graph=g&seed=-1&mu=3&eps=0.4", http.StatusBadRequest},
		{"local: seed beyond range", fmt.Sprintf("/v1/local?graph=g&seed=%d&mu=3&eps=0.4", n), http.StatusBadRequest},
		{"local: eps above 1", "/v1/local?graph=g&seed=0&mu=3&eps=1.5", http.StatusBadRequest},
		{"local: mu below 1", "/v1/local?graph=g&seed=0&mu=0&eps=0.4", http.StatusBadRequest},
		{"local: unknown graph", "/v1/local?graph=nope&seed=0&mu=3&eps=0.4", http.StatusNotFound},
		{"local: bad min_epoch", "/v1/local?graph=g&seed=0&mu=3&eps=0.4&min_epoch=x", http.StatusBadRequest},
		{"local: non-numeric approx", "/v1/local?graph=g&seed=0&mu=3&eps=0.4&approx=x", http.StatusBadRequest},
		{"local: negative approx", "/v1/local?graph=g&seed=0&mu=3&eps=0.4&approx=-0.1", http.StatusBadRequest},
		{"local: approx at 1", "/v1/local?graph=g&seed=0&mu=3&eps=0.4&approx=1", http.StatusBadRequest},
		{"query: no params", "/v1/query", http.StatusBadRequest},
		{"query: missing mu", "/v1/query?graph=g&eps=0.4", http.StatusBadRequest},
		{"query: non-numeric mu", "/v1/query?graph=g&mu=x&eps=0.4", http.StatusBadRequest},
		{"query: mu below 1", "/v1/query?graph=g&mu=0&eps=0.4", http.StatusBadRequest},
		{"query: non-numeric eps", "/v1/query?graph=g&mu=3&eps=x", http.StatusBadRequest},
		{"query: eps above 1", "/v1/query?graph=g&mu=3&eps=1.5", http.StatusBadRequest},
		{"query: eps at 0", "/v1/query?graph=g&mu=3&eps=0", http.StatusBadRequest},
		{"query: NaN eps", "/v1/query?graph=g&mu=3&eps=NaN", http.StatusBadRequest},
		{"query: unknown graph", "/v1/query?graph=nope&mu=3&eps=0.4", http.StatusNotFound},
		{"query: non-numeric approx", "/v1/query?graph=g&mu=3&eps=0.4&approx=x", http.StatusBadRequest},
		{"query: negative approx", "/v1/query?graph=g&mu=3&eps=0.4&approx=-0.05", http.StatusBadRequest},
		{"query: approx at 1", "/v1/query?graph=g&mu=3&eps=0.4&approx=1", http.StatusBadRequest},
		{"query: approx above 1", "/v1/query?graph=g&mu=3&eps=0.4&approx=1.5", http.StatusBadRequest},
		{"query: NaN approx", "/v1/query?graph=g&mu=3&eps=0.4&approx=NaN", http.StatusBadRequest},
		{"query: approx with eps list", "/v1/query?graph=g&mu=3&eps=0.3,0.5&approx=0.05", http.StatusBadRequest},
		{"query: approx with probed profile", "/v1/query?graph=g&mu=3&approx=0.05", http.StatusBadRequest},
		{"query: bad eps in list", "/v1/query?graph=g&mu=3&eps=0.3,zap", http.StatusBadRequest},
		// ?timeout_ms= is parsed on every route with a deadline, never
		// silently dropped in favor of the route default.
		{"query: non-numeric timeout_ms", "/v1/query?graph=g&mu=3&eps=0.4&timeout_ms=abc", http.StatusBadRequest},
		{"query: zero timeout_ms", "/v1/query?graph=g&mu=3&eps=0.4&timeout_ms=0", http.StatusBadRequest},
		{"query: negative timeout_ms", "/v1/query?graph=g&mu=3&eps=0.4&timeout_ms=-5", http.StatusBadRequest},
		{"local: non-numeric timeout_ms", "/v1/local?graph=g&seed=0&mu=3&eps=0.4&timeout_ms=abc", http.StatusBadRequest},
		{"graphs: zero timeout_ms", "/v1/graphs?timeout_ms=0", http.StatusBadRequest},
		{"jobs: negative timeout_ms", "/v1/jobs?timeout_ms=-5", http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Get(c.BaseURL + tc.url)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("GET %s: status %d, want %d", tc.url, resp.StatusCode, tc.want)
			}
			var e server.ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
				t.Fatalf("GET %s: body is not a structured ErrorResponse (decode err %v)", tc.url, err)
			}
		})
	}

	// Mutation endpoints must reject out-of-range endpoints up front with a
	// structured 400 — before any live-graph state is built for the request.
	t.Run("mutate: out-of-range vertex", func(t *testing.T) {
		_, err := c.Mutate(tctx, "g", []server.MutationSpec{
			{Op: "add", U: 0, V: int32(n), W: 1},
		})
		var apiErr *server.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
			t.Fatalf("out-of-range mutation: got %v, want 400", err)
		}
		if !strings.Contains(apiErr.Message, "out of range") {
			t.Fatalf("error does not name the range violation: %q", apiErr.Message)
		}
	})
	t.Run("mutate: negative vertex", func(t *testing.T) {
		_, err := c.Mutate(tctx, "g", []server.MutationSpec{
			{Op: "delete", U: -3, V: 1},
		})
		var apiErr *server.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
			t.Fatalf("negative-vertex mutation: got %v, want 400", err)
		}
	})
}
