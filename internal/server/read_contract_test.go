package server_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"anyscan/internal/faultinject"
	"anyscan/internal/server"
)

// Read sources of the contract table.
const (
	srcFresh = "fresh" // never mutated, index builds succeed
	srcLive  = "live"  // mutated once: epoch 1 is published
	srcStale = "stale" // evicted, reloaded, and every index build fails
)

// min_epoch forms of the contract table. A never-mutated graph has no epoch
// chain, so any bound is a 409 there; "satisfied" and "unsatisfiable" only
// differ on the live source.
const (
	epochNone  = ""                              // no min_epoch parameter
	epochSat   = "&min_epoch=1"                  // the epoch the live setup published
	epochUnsat = "&min_epoch=999&timeout_ms=150" // never published
)

// Routes and the accuracy dial of the contract table.
const (
	routeQuery  = "/v1/query?graph=g&mu=3&eps=0.4"     // single-ε clustering
	routeProf   = "/v1/query?graph=g&mu=3&eps=0.3,0.4" // explicit-list profile
	routeLocal  = "/v1/local?graph=g&seed=0&mu=3&eps=0.4"
	contractDlt = 0.01
)

// readCell is one cell of the read contract: where the read is served from,
// its min_epoch form, its accuracy dial and route, and what the answer must
// be. The payload fields are checked on 200s; msg is a substring of the
// error body on every other status.
type readCell struct {
	source, epoch string
	delta         float64
	route         string

	status   int
	stale    bool // X-Anyscan-Stale: 1 and "stale": true
	gotEpoch int64
	approx   float64
	hit      bool
	msg      string
}

// readContract is the whole table: (fresh | live | stale) × (min_epoch none
// | satisfied | unsatisfiable) × (δ = 0 | 0.01) × (query | profile | local).
// Profiles never take an accuracy dial and local reads no longer do, so
// every δ > 0 profile or local is a 400.
var readContract = []readCell{
	{srcFresh, epochNone, 0, routeQuery, 200, false, 0, 0, false, ""},
	{srcFresh, epochNone, 0, routeProf, 200, false, 0, 0, false, ""},
	{srcFresh, epochNone, 0, routeLocal, 200, false, 0, 0, false, ""},
	{srcFresh, epochNone, contractDlt, routeQuery, 200, false, 0, contractDlt, false, ""},
	{srcFresh, epochNone, contractDlt, routeProf, 400, false, 0, 0, false, "profile queries are always exact"},
	{srcFresh, epochNone, contractDlt, routeLocal, 400, false, 0, 0, false, "approx was removed from /v1/local"},
	{srcFresh, epochSat, 0, routeQuery, 409, false, 0, 0, false, "no live epochs"},
	{srcFresh, epochSat, 0, routeProf, 409, false, 0, 0, false, "no live epochs"},
	{srcFresh, epochSat, 0, routeLocal, 409, false, 0, 0, false, "no live epochs"},
	{srcFresh, epochSat, contractDlt, routeQuery, 409, false, 0, 0, false, "no live epochs"},
	{srcFresh, epochSat, contractDlt, routeProf, 400, false, 0, 0, false, "profile queries are always exact"},
	{srcFresh, epochSat, contractDlt, routeLocal, 400, false, 0, 0, false, "approx was removed from /v1/local"},
	{srcFresh, epochUnsat, 0, routeQuery, 409, false, 0, 0, false, "no live epochs"},
	{srcFresh, epochUnsat, 0, routeProf, 409, false, 0, 0, false, "no live epochs"},
	{srcFresh, epochUnsat, 0, routeLocal, 409, false, 0, 0, false, "no live epochs"},
	{srcFresh, epochUnsat, contractDlt, routeQuery, 409, false, 0, 0, false, "no live epochs"},
	{srcFresh, epochUnsat, contractDlt, routeProf, 400, false, 0, 0, false, "profile queries are always exact"},
	{srcFresh, epochUnsat, contractDlt, routeLocal, 400, false, 0, 0, false, "approx was removed from /v1/local"},

	// Live epochs carry exact σ: an accuracy dial on a query is served
	// exactly, so the approx field stays 0.
	{srcLive, epochNone, 0, routeQuery, 200, false, 1, 0, true, ""},
	{srcLive, epochNone, 0, routeProf, 200, false, 1, 0, true, ""},
	{srcLive, epochNone, 0, routeLocal, 200, false, 1, 0, true, ""},
	{srcLive, epochNone, contractDlt, routeQuery, 200, false, 1, 0, true, ""},
	{srcLive, epochNone, contractDlt, routeProf, 400, false, 0, 0, false, "profile queries are always exact"},
	{srcLive, epochNone, contractDlt, routeLocal, 400, false, 0, 0, false, "approx was removed from /v1/local"},
	{srcLive, epochSat, 0, routeQuery, 200, false, 1, 0, true, ""},
	{srcLive, epochSat, 0, routeProf, 200, false, 1, 0, true, ""},
	{srcLive, epochSat, 0, routeLocal, 200, false, 1, 0, true, ""},
	{srcLive, epochSat, contractDlt, routeQuery, 200, false, 1, 0, true, ""},
	{srcLive, epochSat, contractDlt, routeProf, 400, false, 0, 0, false, "profile queries are always exact"},
	{srcLive, epochSat, contractDlt, routeLocal, 400, false, 0, 0, false, "approx was removed from /v1/local"},
	// An epoch nobody publishes expires with the request deadline — never a
	// hang, never a stale answer.
	{srcLive, epochUnsat, 0, routeQuery, 503, false, 0, 0, false, "epoch 999 not published"},
	{srcLive, epochUnsat, 0, routeProf, 503, false, 0, 0, false, "epoch 999 not published"},
	{srcLive, epochUnsat, 0, routeLocal, 503, false, 0, 0, false, "epoch 999 not published"},
	{srcLive, epochUnsat, contractDlt, routeQuery, 503, false, 0, 0, false, "epoch 999 not published"},
	{srcLive, epochUnsat, contractDlt, routeProf, 400, false, 0, 0, false, "profile queries are always exact"},
	{srcLive, epochUnsat, contractDlt, routeLocal, 400, false, 0, 0, false, "approx was removed from /v1/local"},

	// A build outage degrades to the last good index at the same δ, marked
	// stale; a read-your-writes bound never degrades.
	{srcStale, epochNone, 0, routeQuery, 200, true, 0, 0, true, ""},
	{srcStale, epochNone, 0, routeProf, 200, true, 0, 0, true, ""},
	{srcStale, epochNone, 0, routeLocal, 200, true, 0, 0, true, ""},
	{srcStale, epochNone, contractDlt, routeQuery, 200, true, 0, contractDlt, true, ""},
	{srcStale, epochNone, contractDlt, routeProf, 400, false, 0, 0, false, "profile queries are always exact"},
	{srcStale, epochNone, contractDlt, routeLocal, 400, false, 0, 0, false, "approx was removed from /v1/local"},
	{srcStale, epochSat, 0, routeQuery, 409, false, 0, 0, false, "no live epochs"},
	{srcStale, epochSat, 0, routeProf, 409, false, 0, 0, false, "no live epochs"},
	{srcStale, epochSat, 0, routeLocal, 409, false, 0, 0, false, "no live epochs"},
	{srcStale, epochSat, contractDlt, routeQuery, 409, false, 0, 0, false, "no live epochs"},
	{srcStale, epochSat, contractDlt, routeProf, 400, false, 0, 0, false, "profile queries are always exact"},
	{srcStale, epochSat, contractDlt, routeLocal, 400, false, 0, 0, false, "approx was removed from /v1/local"},
	{srcStale, epochUnsat, 0, routeQuery, 409, false, 0, 0, false, "no live epochs"},
	{srcStale, epochUnsat, 0, routeProf, 409, false, 0, 0, false, "no live epochs"},
	{srcStale, epochUnsat, 0, routeLocal, 409, false, 0, 0, false, "no live epochs"},
	{srcStale, epochUnsat, contractDlt, routeQuery, 409, false, 0, 0, false, "no live epochs"},
	{srcStale, epochUnsat, contractDlt, routeProf, 400, false, 0, 0, false, "profile queries are always exact"},
	{srcStale, epochUnsat, contractDlt, routeLocal, 400, false, 0, 0, false, "approx was removed from /v1/local"},
}

// TestReadContract pins the read pipeline's contract cell by cell: the
// status, the X-Anyscan-Stale header, and the stale, epoch, approx and
// cache_hit fields of every (source × min_epoch × δ × route) combination.
// Each cell gets its own server so no cell's cache state leaks into another.
func TestReadContract(t *testing.T) {
	defer faultinject.Reset()
	if len(readContract) != 54 {
		t.Fatalf("contract table has %d cells, want 3×3×2×3 = 54", len(readContract))
	}
	path1, _ := genGraphFile(t, 400, 21)
	path2, _ := genGraphFile(t, 400, 22)

	for _, cell := range readContract {
		route := cell.route[len("/v1/"):strings.Index(cell.route, "?")]
		if cell.route == routeProf {
			route = "profile"
		}
		name := fmt.Sprintf("%s/min_epoch=%s/delta=%g/%s", cell.source, epochName(cell.epoch), cell.delta, route)
		t.Run(name, func(t *testing.T) {
			defer faultinject.Reset()
			_, ts, c := newOverloadServer(t, server.OverloadConfig{})
			load := func(path string) {
				t.Helper()
				if _, err := c.LoadGraph(tctx, server.LoadGraphRequest{Name: "g", GraphSource: server.GraphSource{Path: path}}); err != nil {
					t.Fatal(err)
				}
			}
			load(path1)
			switch cell.source {
			case srcLive:
				mr, err := c.Mutate(tctx, "g", []server.MutationSpec{{Op: "add", U: 0, V: 399, W: 0.75}})
				if err != nil || mr.Epoch != 1 {
					t.Fatalf("live setup: mutate published epoch %d (%v), want 1", mr.Epoch, err)
				}
			case srcStale:
				// The last good index at this δ, then a reload whose every
				// rebuild fails.
				if _, err := c.QueryApprox(tctx, "g", 3, 0.4, cell.delta, false); err != nil {
					t.Fatal(err)
				}
				if err := c.EvictGraph(tctx, "g"); err != nil {
					t.Fatal(err)
				}
				load(path2)
				faultinject.ArmAlways("index.build", nil)
			}

			url := ts.URL + cell.route + cell.epoch
			if cell.delta > 0 {
				url += fmt.Sprintf("&approx=%g", cell.delta)
			}
			resp, err := http.Get(url)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != cell.status {
				t.Fatalf("status %d (%s), want %d", resp.StatusCode, body, cell.status)
			}
			wantHeader := ""
			if cell.stale {
				wantHeader = "1"
			}
			if got := resp.Header.Get("X-Anyscan-Stale"); got != wantHeader {
				t.Fatalf("X-Anyscan-Stale = %q, want %q", got, wantHeader)
			}
			if cell.status != http.StatusOK {
				var e server.ErrorResponse
				if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, cell.msg) {
					t.Fatalf("error body %s does not mention %q", body, cell.msg)
				}
				return
			}
			var got struct {
				Stale    bool    `json:"stale"`
				Epoch    int64   `json:"epoch"`
				Approx   float64 `json:"approx"`
				CacheHit bool    `json:"cache_hit"`
			}
			if err := json.Unmarshal(body, &got); err != nil {
				t.Fatal(err)
			}
			if got.Stale != cell.stale || got.Epoch != cell.gotEpoch || got.Approx != cell.approx || got.CacheHit != cell.hit {
				t.Fatalf("stale=%v epoch=%d approx=%g cache_hit=%v, want %v/%d/%g/%v",
					got.Stale, got.Epoch, got.Approx, got.CacheHit, cell.stale, cell.gotEpoch, cell.approx, cell.hit)
			}
		})
	}
}

func epochName(form string) string {
	switch form {
	case epochSat:
		return "satisfied"
	case epochUnsat:
		return "unsatisfiable"
	}
	return "none"
}
