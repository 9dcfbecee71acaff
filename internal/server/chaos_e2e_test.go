package server_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"anyscan/internal/faultinject"
	"anyscan/internal/gen"
	"anyscan/internal/graph"
	"anyscan/internal/server"
)

// This file is the HTTP-layer chaos and overload suite: it drives a real
// server over real sockets through storms, injected build failures, connection
// resets, and slow-loris bodies, and asserts the overload contract — bounded
// latency, fast 429/503 + Retry-After instead of unbounded queueing,
// stale-marked degraded answers, full recovery once faults clear, and no
// goroutine leaks.

// newOverloadServer builds a server with the given overload config behind an
// httptest listener, plus a client whose HTTP transport is private to the
// test (so the goroutine-leak check is not confused by shared idle
// connections).
func newOverloadServer(t *testing.T, ocfg server.OverloadConfig) (*server.Server, *httptest.Server, *server.Client) {
	t.Helper()
	srv, err := server.New(server.Config{
		Manager:  server.ManagerConfig{Workers: 1},
		Overload: ocfg,
		Logger:   quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	tr := &http.Transport{}
	c := server.NewClient(ts.URL)
	c.HTTP = &http.Client{Transport: tr}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Drain(ctx)
		ts.Close()
		tr.CloseIdleConnections()
	})
	return srv, ts, c
}

func genGraphFile(t *testing.T, n int, seed int64) (string, *graph.CSR) {
	t.Helper()
	g, _, err := gen.LFR(gen.DefaultLFR(n, 10, seed))
	if err != nil {
		t.Fatal(err)
	}
	return writeGraphFile(t, g, t.TempDir()), g
}

// TestE2ETimeoutParamDoesNotStickToRoute pins the per-request scope of
// ?timeout_ms=: one caller shortening its own deadline must not shorten the
// route's default for every request after it (a captured-variable bug in the
// deadline middleware did exactly that — the first timeout_ms=1 request
// permanently reduced the route deadline to 1ms).
func TestE2ETimeoutParamDoesNotStickToRoute(t *testing.T) {
	// The graph must be big enough that its index build cannot finish inside
	// one scheduling quantum on a single-core runner: the 1ms waiter has to
	// observe its expired deadline before the build's ready channel closes,
	// or the select between them becomes a coin flip.
	path, _ := genGraphFile(t, 15000, 17)
	_, ts, c := newOverloadServer(t, server.OverloadConfig{QueryTimeout: 60 * time.Second})
	if _, err := c.LoadGraph(tctx, server.LoadGraphRequest{Name: "g", GraphSource: server.GraphSource{Path: path}}); err != nil {
		t.Fatal(err)
	}

	raw := &http.Client{Timeout: 90 * time.Second}
	defer raw.CloseIdleConnections()
	resp, err := raw.Get(ts.URL + "/v1/query?graph=g&mu=4&eps=0.4&timeout_ms=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("1ms budget answered %d, want 503", resp.StatusCode)
	}

	// The next request uses the route default and must get a fresh answer.
	resp, err = raw.Get(ts.URL + "/v1/query?graph=g&mu=4&eps=0.4")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after a timeout_ms=1 caller got %d (%s); the shortened deadline stuck to the route", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Anyscan-Stale"); got != "" {
		t.Fatalf("recovered answer marked stale (%q); it should be a fresh build", got)
	}
}

// TestE2ETimeoutParamCannotLiftDeadline pins the other side of "shorten,
// never extend": a ?timeout_ms= too large for a time.Duration must leave the
// route's own deadline in force instead of wrapping negative and switching
// the deadline off.
func TestE2ETimeoutParamCannotLiftDeadline(t *testing.T) {
	path, _ := genGraphFile(t, 400, 23)
	_, ts, c := newOverloadServer(t, server.OverloadConfig{QueryTimeout: 300 * time.Millisecond})
	if _, err := c.LoadGraph(tctx, server.LoadGraphRequest{Name: "g", GraphSource: server.GraphSource{Path: path}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Mutate(tctx, "g", []server.MutationSpec{{Op: "add", U: 0, V: 399, W: 0.75}}); err != nil {
		t.Fatal(err)
	}

	// Nobody publishes epoch 999, so only the route deadline ends the wait.
	raw := &http.Client{Timeout: 10 * time.Second}
	defer raw.CloseIdleConnections()
	resp, err := raw.Get(ts.URL + "/v1/query?graph=g&mu=3&eps=0.4&min_epoch=999&timeout_ms=10000000000000")
	if err != nil {
		t.Fatalf("request outlived the route deadline: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("answered %d, want 503 once the 300ms route deadline expires", resp.StatusCode)
	}
}

// TestE2ETimeoutParamStopsProfile pins that a profile read honours its
// deadline between points: neither the ε list nor the probe's limit is
// bounded, so on a resident index a long profile must stop at ?timeout_ms=
// with a 503 + Retry-After, counted as deadline-exceeded, instead of
// computing every point and answering 200 long after the caller gave up.
func TestE2ETimeoutParamStopsProfile(t *testing.T) {
	path, _ := genGraphFile(t, 3000, 29)
	_, ts, c := newOverloadServer(t, server.OverloadConfig{QueryTimeout: 60 * time.Second})
	if _, err := c.LoadGraph(tctx, server.LoadGraphRequest{Name: "g", GraphSource: server.GraphSource{Path: path}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(tctx, "g", 2, 0.5, false); err != nil { // make the index resident
		t.Fatal(err)
	}

	eps := make([]string, 4000)
	for i := range eps {
		eps[i] = strconv.FormatFloat(float64(i+1)/float64(len(eps)+1), 'g', 6, 64)
	}
	raw := &http.Client{Timeout: 60 * time.Second}
	defer raw.CloseIdleConnections()
	for _, form := range []string{
		"eps=" + strings.Join(eps, ","),
		"limit=1000000",
	} {
		start := time.Now()
		resp, err := raw.Get(ts.URL + "/v1/query?graph=g&mu=2&timeout_ms=20&" + form)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%.20s… profile with a 20ms budget answered %d (Retry-After %q) after %v, want 503 with Retry-After",
				form, resp.StatusCode, resp.Header.Get("Retry-After"), time.Since(start))
		}
		t.Logf("%.20s… profile stopped at its deadline after %v", form, time.Since(start))
	}
	text, err := c.MetricsText(tctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, text, "anyscand_deadline_exceeded_total "); got != 2 {
		t.Fatalf("anyscand_deadline_exceeded_total = %v, want 2", got)
	}
}

// TestE2EOverloadShedding storms a tightly-provisioned server with
// simultaneous first queries for many distinct graphs — each needing its own
// Θ(|E|) index build — and asserts the admission layer's contract: every
// response is either a fresh 200 or a fast 503 carrying Retry-After, shed
// responses come back quickly instead of queueing behind every build, and
// once the storm passes every graph becomes queryable (full recovery).
func TestE2EOverloadShedding(t *testing.T) {
	path, _ := genGraphFile(t, 15000, 11)
	_, ts, c := newOverloadServer(t, server.OverloadConfig{
		BuildSlots:   1,
		QueueDepth:   1,
		QueueWait:    50 * time.Millisecond,
		QueryTimeout: 30 * time.Second,
	})

	const graphs = 8
	for i := 0; i < graphs; i++ {
		name := fmt.Sprintf("g%d", i)
		if _, err := c.LoadGraph(tctx, server.LoadGraphRequest{Name: name, GraphSource: server.GraphSource{Path: path}}); err != nil {
			t.Fatal(err)
		}
	}

	// Raw requests without client-side retries, so shed responses are
	// observable instead of papered over.
	raw := &http.Client{Timeout: 40 * time.Second}
	defer raw.CloseIdleConnections()
	type outcome struct {
		status     int
		retryAfter string
		elapsed    time.Duration
	}
	results := make([]outcome, graphs)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < graphs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			began := time.Now()
			resp, err := raw.Get(fmt.Sprintf("%s/v1/query?graph=g%d&mu=4&eps=0.4", ts.URL, i))
			if err != nil {
				t.Errorf("storm request %d: %v", i, err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			results[i] = outcome{resp.StatusCode, resp.Header.Get("Retry-After"), time.Since(began)}
		}(i)
	}
	close(start)
	wg.Wait()

	var shed int
	for i, r := range results {
		switch r.status {
		case http.StatusOK:
		case http.StatusServiceUnavailable:
			shed++
			if r.retryAfter == "" {
				t.Errorf("storm request %d shed without a Retry-After header", i)
			}
			if r.elapsed > 20*time.Second {
				t.Errorf("storm request %d shed only after %v; shedding must be fast", i, r.elapsed)
			}
		default:
			t.Errorf("storm request %d: status %d, want 200 or 503", i, r.status)
		}
	}
	if shed == 0 {
		t.Error("a 1-build-slot server absorbed 8 simultaneous builds without shedding")
	}

	// Recovery: with the storm gone, every graph answers fresh queries.
	for i := 0; i < graphs; i++ {
		resp, err := c.Query(tctx, fmt.Sprintf("g%d", i), 4, 0.4, false)
		if err != nil {
			t.Fatalf("post-storm query for g%d: %v", i, err)
		}
		if resp.Stale {
			t.Fatalf("post-storm query for g%d answered stale", i)
		}
	}

	text, err := c.MetricsText(tctx)
	if err != nil {
		t.Fatal(err)
	}
	if v := metricValue(t, text, "anyscand_admission_shed_total "); v == 0 {
		t.Error("admission_shed_total is 0 after an observed shed")
	}
}

// TestE2EStaleServing drives the degraded-mode path end to end: after a graph
// is evicted and reloaded with new content, a sustained build outage (the
// armed "index.build" fault) must yield 200s served from the last good index
// — marked by both the JSON stale flag and the X-Anyscan-Stale header — and
// clearing the fault must restore fresh serving.
func TestE2EStaleServing(t *testing.T) {
	defer faultinject.Reset()
	path1, _ := genGraphFile(t, 2000, 21)
	path2, _ := genGraphFile(t, 2000, 22)
	_, ts, c := newOverloadServer(t, server.OverloadConfig{})

	if _, err := c.LoadGraph(tctx, server.LoadGraphRequest{Name: "s", GraphSource: server.GraphSource{Path: path1}}); err != nil {
		t.Fatal(err)
	}
	fresh, err := c.Query(tctx, "s", 4, 0.4, false)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Stale {
		t.Fatal("healthy first query answered stale")
	}

	// Replace the graph's content, then keep every rebuild failing.
	if err := c.EvictGraph(tctx, "s"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.LoadGraph(tctx, server.LoadGraphRequest{Name: "s", GraphSource: server.GraphSource{Path: path2}}); err != nil {
		t.Fatal(err)
	}
	faultinject.ArmAlways("index.build", nil)

	degraded, err := c.Query(tctx, "s", 4, 0.4, false)
	if err != nil {
		t.Fatalf("query during the build outage: %v (want a stale-marked 200)", err)
	}
	if !degraded.Stale {
		t.Fatal("degraded answer not marked stale in the payload")
	}
	if degraded.Clusters != fresh.Clusters {
		t.Fatalf("stale answer has %d clusters; the last good index found %d", degraded.Clusters, fresh.Clusters)
	}

	// The wire marker: clients that only look at headers see the degradation.
	raw := &http.Client{Timeout: 30 * time.Second}
	defer raw.CloseIdleConnections()
	resp, err := raw.Get(ts.URL + "/v1/query?graph=s&mu=4&eps=0.4")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Anyscan-Stale") != "1" {
		t.Fatalf("degraded response: status=%d stale-header=%q", resp.StatusCode, resp.Header.Get("X-Anyscan-Stale"))
	}

	text, err := c.MetricsText(tctx)
	if err != nil {
		t.Fatal(err)
	}
	if v := metricValue(t, text, "anyscand_stale_served_total "); v < 2 {
		t.Errorf("stale_served_total = %g after two degraded answers", v)
	}

	// Outage over: the rebuild succeeds and serving returns to fresh.
	faultinject.Reset()
	recovered, err := c.Query(tctx, "s", 4, 0.4, false)
	if err != nil {
		t.Fatal(err)
	}
	if recovered.Stale || recovered.CacheHit {
		t.Fatalf("post-outage query: stale=%v hit=%v, want a fresh build", recovered.Stale, recovered.CacheHit)
	}
}

// TestE2EClientRetriesThroughChaos puts the chaos middleware between the
// client and a healthy server and checks the hardened client rides out
// deterministic 503 bursts and connection resets without surfacing them.
func TestE2EClientRetriesThroughChaos(t *testing.T) {
	path, _ := genGraphFile(t, 2000, 31)
	srv, err := server.New(server.Config{Manager: server.ManagerConfig{Workers: 1}, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	var chaos faultinject.HTTPChaos
	ts := httptest.NewServer(chaos.Middleware(srv))
	tr := &http.Transport{}
	c := server.NewClient(ts.URL)
	c.HTTP = &http.Client{Transport: tr}
	c.Retry = server.RetryPolicy{MaxAttempts: 5, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Drain(ctx)
		ts.Close()
		tr.CloseIdleConnections()
	})

	if _, err := c.LoadGraph(tctx, server.LoadGraphRequest{Name: "g", GraphSource: server.GraphSource{Path: path}}); err != nil {
		t.Fatal(err)
	}

	// Every 3rd response is a synthetic 503: retries must absorb them all.
	chaos.InjectErrors(http.StatusServiceUnavailable, 3)
	for i := 0; i < 9; i++ {
		if _, err := c.Query(tctx, "g", 4, 0.4, false); err != nil {
			t.Fatalf("query %d through 503 chaos: %v", i, err)
		}
	}
	if chaos.Injected.Load() == 0 {
		t.Fatal("chaos injected nothing; the test proved nothing")
	}
	chaos.Clear()

	// Every 3rd connection dies with a reset: idempotent GETs must retry.
	chaos.InjectResets(3)
	for i := 0; i < 9; i++ {
		if _, err := c.Query(tctx, "g", 4, 0.4, false); err != nil {
			t.Fatalf("query %d through reset chaos: %v", i, err)
		}
	}
	chaos.Clear()

	// Faults cleared: plain queries flow with no retries needed.
	if _, err := c.Query(tctx, "g", 4, 0.4, false); err != nil {
		t.Fatal(err)
	}
}

// TestE2ECircuitBreakerTrips points a no-retry client at a server that only
// answers 503 and checks the breaker opens after the failure threshold,
// failing fast without touching the network.
func TestE2ECircuitBreakerTrips(t *testing.T) {
	var served int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served++
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	c := server.NewClient(ts.URL)
	c.Retry = server.RetryPolicy{MaxAttempts: 1, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond}

	var sawOpen bool
	for i := 0; i < 20; i++ {
		err := c.Healthz(tctx)
		if err == nil {
			t.Fatal("healthz against a dead server succeeded")
		}
		if errors.Is(err, server.ErrCircuitOpen) {
			sawOpen = true
			break
		}
	}
	if !sawOpen {
		t.Fatal("20 consecutive 503s never tripped the circuit breaker")
	}
	if served >= 20 {
		t.Fatalf("breaker open but all %d calls hit the network", served)
	}
}

// TestE2ENoGoroutineLeaks runs a condensed chaos scenario — deadline-abandoned
// builds, a slow-loris body, shed requests — then drains and closes the
// server and asserts the process returns to its goroutine baseline: nothing
// stays parked on a semaphore, a build, or a body read.
func TestE2ENoGoroutineLeaks(t *testing.T) {
	defer faultinject.Reset()
	runtime.GC()
	time.Sleep(100 * time.Millisecond)
	baseline := runtime.NumGoroutine()

	func() {
		path, _ := genGraphFile(t, 15000, 41)
		// Explicit teardown (not t.Cleanup): the leak check below must run
		// after the server is fully gone.
		srv, err := server.New(server.Config{
			Manager: server.ManagerConfig{Workers: 1},
			Overload: server.OverloadConfig{
				BuildSlots: 1,
				QueueDepth: 1,
				QueueWait:  50 * time.Millisecond,
			},
			Logger: quietLogger(),
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		tr := &http.Transport{}
		c := server.NewClient(ts.URL)
		c.HTTP = &http.Client{Transport: tr}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			srv.Drain(ctx)
			ts.Close()
			tr.CloseIdleConnections()
		}()
		for _, name := range []string{"a", "b", "c"} {
			if _, err := c.LoadGraph(tctx, server.LoadGraphRequest{Name: name, GraphSource: server.GraphSource{Path: path}}); err != nil {
				t.Fatal(err)
			}
		}

		raw := &http.Client{Timeout: 30 * time.Second}
		defer raw.CloseIdleConnections()

		// Abandoned waiter: a 1ms deadline expires mid-build; the build must
		// be cancelled (no waiters left), not leak.
		resp, err := raw.Get(ts.URL + "/v1/query?graph=a&mu=4&eps=0.4&timeout_ms=1")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}

		// Concurrent storm across the remaining graphs: a mix of fresh
		// answers and sheds, plus parked admission waiters that must drain.
		var wg sync.WaitGroup
		for i := 0; i < 6; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				name := []string{"a", "b", "c"}[i%3]
				resp, err := raw.Get(ts.URL + "/v1/query?graph=" + name + "&mu=4&eps=0.4")
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}(i)
		}
		wg.Wait()

		// Slow-loris body: the client gives up after 300ms; the handler must
		// unblock via the request context instead of waiting on reads forever.
		var chaos faultinject.HTTPChaos
		loris := httptest.NewServer(chaos.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			w.WriteHeader(http.StatusOK)
		})))
		defer loris.Close()
		// 512 bytes at 30ms per throttled 16-byte read ≈ 1s server-side; the
		// client bails at 300ms, and teardown below proves the handler
		// finishes promptly instead of wedging the connection.
		chaos.InjectSlowBody(30 * time.Millisecond)
		lorisClient := &http.Client{Timeout: 300 * time.Millisecond}
		body := strings.NewReader(strings.Repeat(" ", 512))
		if _, err := lorisClient.Post(loris.URL, "text/plain", body); err == nil {
			t.Error("slow-loris request finished inside the client timeout")
		}
		lorisClient.CloseIdleConnections()
	}()
	// Everything is drained and closed; in-flight builds and handler
	// teardown may need a moment, so poll back down to the baseline.
	deadline := time.Now().Add(15 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+3 {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	n := runtime.NumGoroutine()
	pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
	t.Fatalf("goroutines: baseline %d, now %d — see stack dump above", baseline, n)
}

// TestE2EMutateUnderLoadStorm storms a tightly-provisioned server with
// concurrent batch mutations, read-your-writes queries chasing the newest
// epoch, and deliberately abandoned ?min_epoch= waiters whose deadlines
// expire before the epoch they demand could ever exist. The contract under
// test: mutations serialize through admission control without wedging it
// (the queue drains to zero), abandoned waiters release promptly and hold no
// admission slot while parked, every successfully-published epoch stays
// readable, and the process returns to its goroutine baseline on teardown.
func TestE2EMutateUnderLoadStorm(t *testing.T) {
	runtime.GC()
	time.Sleep(100 * time.Millisecond)
	baseline := runtime.NumGoroutine()

	func() {
		path, g := genGraphFile(t, 8000, 23)
		n := int32(g.NumVertices())
		srv, err := server.New(server.Config{
			Manager: server.ManagerConfig{Workers: 1},
			Overload: server.OverloadConfig{
				BuildSlots: 1,
				QueueDepth: 8,
				QueueWait:  2 * time.Second,
			},
			Logger: quietLogger(),
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		tr := &http.Transport{}
		c := server.NewClient(ts.URL)
		c.HTTP = &http.Client{Transport: tr}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			srv.Drain(ctx)
			ts.Close()
			tr.CloseIdleConnections()
		}()
		if _, err := c.LoadGraph(tctx, server.LoadGraphRequest{Name: "g", GraphSource: server.GraphSource{Path: path}}); err != nil {
			t.Fatal(err)
		}

		// maxEpoch tracks the newest epoch any mutator saw published; readers
		// chase it with min_epoch so every observation is read-your-writes.
		var maxEpoch atomic.Int64
		var mutated, shed atomic.Int64
		var wg sync.WaitGroup
		for m := 0; m < 3; m++ {
			wg.Add(1)
			go func(m int) {
				defer wg.Done()
				for b := 0; b < 5; b++ {
					// Deterministic per-goroutine batches: adds (upserts) and
					// idempotent deletes only, so a retried or reordered batch
					// can never fail validation.
					muts := make([]server.MutationSpec, 0, 8)
					for i := 0; i < 8; i++ {
						u := int32((m*2617 + b*911 + i*389) % int(n))
						v := int32((m*1201 + b*577 + i*97 + 1) % int(n))
						if u == v {
							v = (v + 1) % n
						}
						if i%3 == 0 {
							muts = append(muts, server.MutationSpec{Op: "delete", U: u, V: v})
						} else {
							muts = append(muts, server.MutationSpec{Op: "add", U: u, V: v, W: 0.5 + float32(i)*0.1})
						}
					}
					mr, err := c.Mutate(tctx, "g", muts)
					if err != nil {
						// Admission may shed under the storm; that is the
						// overload contract working, not a failure.
						shed.Add(1)
						continue
					}
					mutated.Add(1)
					for {
						cur := maxEpoch.Load()
						if mr.Epoch <= cur || maxEpoch.CompareAndSwap(cur, mr.Epoch) {
							break
						}
					}
				}
			}(m)
		}
		// Readers chase the published frontier with read-your-writes bounds.
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					min := maxEpoch.Load()
					qr, err := c.QueryEpoch(tctx, "g", 4, 0.4, min, false)
					if err != nil {
						continue // shed under load; retried next round
					}
					if min > 0 && qr.Epoch < min {
						t.Errorf("read-your-writes violated: answered epoch %d < demanded %d", qr.Epoch, min)
						return
					}
				}
			}()
		}
		// Abandoned waiters: each demands an epoch nobody will publish with a
		// 50ms budget. They must come back 503 promptly (WaitEpoch parks
		// without holding admission resources) and leave nothing behind.
		raw := &http.Client{Timeout: 10 * time.Second}
		defer raw.CloseIdleConnections()
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Wait until the graph is live (first epoch published);
				// before that, min_epoch is a 409, not a parked waiter.
				for deadline := time.Now().Add(10 * time.Second); maxEpoch.Load() == 0; {
					if time.Now().After(deadline) {
						return // every batch shed; the mutated==0 check below reports it
					}
					time.Sleep(5 * time.Millisecond)
				}
				resp, err := raw.Get(ts.URL + "/v1/query?graph=g&mu=4&eps=0.4&min_epoch=100000&timeout_ms=50")
				if err != nil {
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusServiceUnavailable {
					t.Errorf("abandoned min_epoch waiter got %d, want 503", resp.StatusCode)
				}
			}()
		}
		wg.Wait()

		if mutated.Load() == 0 {
			t.Fatalf("every mutation batch was shed (%d attempts); storm proved nothing", shed.Load())
		}
		// The frontier epoch stays readable after the storm.
		final := maxEpoch.Load()
		qr, err := c.QueryEpoch(tctx, "g", 4, 0.4, final, false)
		if err != nil {
			t.Fatalf("frontier epoch %d unreadable after the storm: %v", final, err)
		}
		if qr.Epoch < final {
			t.Fatalf("final answer from epoch %d < frontier %d", qr.Epoch, final)
		}
		// Admission drains: nothing stays parked in the queue once the storm
		// has passed.
		deadline := time.Now().Add(5 * time.Second)
		for {
			txt, err := c.MetricsText(tctx)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(txt, "anyscand_admission_queue_depth 0") {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("admission queue did not drain to 0 after the storm")
			}
			time.Sleep(50 * time.Millisecond)
		}
	}()

	// Teardown done; poll back to the goroutine baseline — abandoned epoch
	// waiters and shed mutators must all have unwound.
	deadline := time.Now().Add(15 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+3 {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	n := runtime.NumGoroutine()
	pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
	t.Fatalf("goroutines: baseline %d, now %d — see stack dump above", baseline, n)
}
