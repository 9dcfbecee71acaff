package server

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"anyscan/internal/local"
)

// This file implements GET /v1/local, the seed-centered community query:
// given graph, seed, μ, and ε, expand only the seed's community (plus its
// border fringe) from the graph's query index or its current live epoch,
// with byte-identical membership to what full /v1/query would assign that
// component. The endpoint composes with the rest of the serving machinery:
// deadlines propagate, the work is admission-metered at query weight,
// ?min_epoch= gives read-your-writes on mutated graphs, and capacity
// failures degrade to the last good index with the stale marker.

// handleLocal answers GET /v1/local?graph=&seed=&mu=&eps=[&approx=].
func (s *Server) handleLocal(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	name := q.Get("graph")
	if name == "" {
		writeError(w, http.StatusBadRequest,
			errors.New("need graph=<name>&seed=<vertex>&mu=<int>&eps=<float>[&approx=<delta>]"))
		return
	}
	mu, err := parseMuParam(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	eps, err := parseEpsParam(q.Get("eps"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	seed, err := parseSeedParam(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	approx, err := parseApproxParam(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ge, err := s.reg.Get(name)
	if err != nil {
		writeError(w, errorCode(err), err)
		return
	}
	minEpoch, err := parseMinEpochParam(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := vertexInRange(seed, ge.G.NumVertices()); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.serveLocal(w, r, ge, seed, mu, eps, approx, minEpoch)
}

// vertexInRange validates a request-supplied vertex id against the graph's
// vertex count. Every handler that accepts a vertex id must call it (or an
// equivalent domain validation) before doing any work, so malformed input
// is a structured 400, never a panic.
func vertexInRange(v int32, n int) error {
	if v < 0 || int(v) >= n {
		return fmt.Errorf("vertex %d out of range [0, %d)", v, n)
	}
	return nil
}

// wantMembers reports whether the response should carry the full member
// list (the default; ?members=0 suppresses it for summary-only callers).
func wantMembers(r *http.Request) bool {
	v := r.URL.Query().Get("members")
	return v != "0" && v != "false"
}

// serveLocal answers one local query. The expansion is cheap relative to an
// index build but still serializes O(community) state, so every local is
// metered through admission.
func (s *Server) serveLocal(w http.ResponseWriter, r *http.Request, ge *GraphEntry, seed int32, mu int, eps, approx float64, minEpoch int64) {
	rv, code, err := s.resolveView(r.Context(), ge, approx, minEpoch, true)
	if err != nil {
		s.fail(w, code, err)
		return
	}
	if rv.stale != nil && vertexInRange(seed, rv.view.NumVertices()) != nil {
		// The last good index describes an older, smaller generation of the
		// graph: it cannot answer for this seed.
		rv.release()
		s.fail(w, http.StatusBadRequest, rv.stale)
		return
	}
	res, queryUS, err := s.runLocal(rv.view.LocalView(eps), seed, mu, eps)
	rv.release()
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	s.respond(w, ge, rv, LocalResponse{
		Graph:    ge.Name,
		Seed:     res.Seed,
		Mu:       res.Mu,
		Eps:      res.Eps,
		Role:     res.Role.String(),
		Approx:   rv.approx,
		CacheHit: rv.hit,
		Stale:    rv.stale != nil,
		Epoch:    rv.epoch,
		BuildMS:  rv.buildMS,
		QueryMS:  float64(queryUS) / 1000,
		Size:     len(res.Members),
		Touched:  res.Touched,
	}, localMembers(res, wantMembers(r)))
}

// runLocal executes one expansion against any local.View and records the
// anyscand_local_* metrics.
func (s *Server) runLocal(v local.View, seed int32, mu int, eps float64) (*local.Result, int64, error) {
	start := time.Now()
	res, err := local.Query(v, seed, mu, eps)
	if err != nil {
		return nil, 0, err
	}
	queryUS := time.Since(start).Microseconds()
	s.met.LocalQueries.Add(1)
	s.met.LocalFrontier.Add(int64(res.Touched))
	s.met.LocalQueryUS.Add(queryUS)
	return res, queryUS, nil
}
