package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"anyscan/internal/cluster"
	"anyscan/internal/faultinject"
	"anyscan/internal/index"
	"anyscan/internal/local"
	"anyscan/internal/sweep"
)

// This file is the read pipeline shared by GET /v1/query (clusterings and
// profiles) and GET /v1/local: every read is parse → resolveView → compute →
// encode, and resolveView is the one place that decides where the answer
// comes from.

// view is what a read computes on: a fresh or stale *index.Index, or a
// *live.Epoch. Both answer full clusterings and seed-centered locals.
type view interface {
	NumVertices() int
	Query(mu int, eps float64) (*cluster.Result, error)
	LocalView(eps float64) local.View
}

// readView is a resolved read source plus what the response reports about
// it.
type readView struct {
	view view
	// epoch is the live epoch the view is (0 for index views).
	epoch int64
	// stale is the capacity failure that made the read fall back to the last
	// good index (nil for fresh and live views).
	stale   error
	hit     bool
	buildMS float64
	// approx is the accuracy dial the view answers at (see effectiveApprox).
	approx float64
	// release frees the read's admission slot and books the approx counters;
	// call it once the answer is computed.
	release func()
}

// resolveView decides where a read is answered from, and is the only code
// that does:
//
//   - a graph that has been mutated is served from its live epoch, exactly
//     even when the request carries an accuracy dial (live epochs keep exact
//     σ, a strictly stronger guarantee than the client asked for);
//   - a min_epoch bound is waited for before any admission slot is taken —
//     the wait holds no resources, so an abandoned waiter pins no capacity —
//     and is a 409 on a graph that has never been mutated, since no epoch
//     chain exists that could satisfy it;
//   - any other graph is served from the fresh index at the request's δ;
//   - with admit, the read holds a query-weight admission slot until release;
//   - when the fresh index or the slot fails for a capacity reason (shed
//     build or admission, expired deadline, failed rebuild) and the read
//     carries no min_epoch bound, the last good index at that δ answers,
//     marked stale; it may describe an older generation of the graph. A
//     read-your-writes request never degrades: a stale answer would
//     silently break the guarantee the client asked for.
//
// On failure the returned code is the status to answer with (writeError
// overrides it for overload and deadline errors).
func (s *Server) resolveView(ctx context.Context, ge *GraphEntry, approx float64, minEpoch int64, admit bool) (readView, int, error) {
	rv := readView{release: func() {}}
	var idx *index.Index
	var code int
	var err error
	if lg := s.reg.liveOf(ge); lg != nil {
		if approx > 0 {
			s.met.ApproxLiveExact.Add(1)
			s.log.Warn("approx read on live graph served exactly", "graph", ge.Name, "approx", approx)
		}
		ep, err := lg.WaitEpoch(ctx, minEpoch)
		if err != nil {
			return readView{}, http.StatusServiceUnavailable, err
		}
		rv.view, rv.epoch, rv.hit = ep, ep.Seq(), true
	} else if minEpoch > 0 {
		return readView{}, http.StatusConflict,
			fmt.Errorf("graph %q has no live epochs; min_epoch requires a mutated graph", ge.Name)
	} else if idx, rv.hit, rv.buildMS, err = s.reg.index(ctx, ge, approx); err == nil {
		rv.view, rv.approx = idx, effectiveApprox(idx)
	} else {
		code = http.StatusBadRequest
	}
	if err == nil && admit && s.admit != nil {
		if rv.release, err = s.admit.acquireQuery(ctx); err != nil {
			code = http.StatusServiceUnavailable
		}
	}
	if err != nil {
		if minEpoch == 0 && degradable(err) {
			if st := s.reg.lastGood(ge.Name, approx); st != nil {
				return readView{view: st, stale: err, hit: true, approx: effectiveApprox(st), release: func() {}}, 0, nil
			}
		}
		return readView{}, code, err
	}
	if rv.approx > 0 {
		// Attribute the near-threshold arcs this read resolves exactly.
		before, release := idx.Approx().Resolved, rv.release
		rv.release = func() {
			release()
			s.met.ApproxQueries.Add(1)
			s.met.ApproxResolvedArcs.Add(idx.Approx().Resolved - before)
		}
	}
	return rv, 0, nil
}

// effectiveApprox is the accuracy dial an answer from idx was actually
// computed at: the index's delta when the sketch path is in effect, 0 when
// the index is exact — including approximate builds that fell back to the
// exact similarity pass (non-unit edge weights).
func effectiveApprox(idx *index.Index) float64 {
	if a := idx.Approx(); a.Delta > 0 && !a.ExactFallback {
		return a.Delta
	}
	return 0
}

// degradable reports whether an error is a capacity condition that stale
// serving may paper over, as opposed to a caller mistake.
func degradable(err error) bool {
	var oe *OverloadError
	return errors.As(err, &oe) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, faultinject.ErrInjected)
}

// respond writes a read's answer, body with its array members (nil for
// none; see writeBody), marking a degraded one on the wire (the
// X-Anyscan-Stale header; the payload carries its own stale flag) and in the
// counters.
func (s *Server) respond(w http.ResponseWriter, ge *GraphEntry, rv readView, body any, members func([]byte) []byte) {
	if rv.stale != nil {
		s.met.StaleServed.Add(1)
		s.log.Warn("serving stale index", "graph", ge.Name, "cause", rv.stale.Error())
		w.Header().Set("X-Anyscan-Stale", "1")
	}
	writeBody(w, body, members)
}

// fail answers a request that could not be served, counting the ones their
// deadline cut short.
func (s *Server) fail(w http.ResponseWriter, code int, err error) {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		s.met.DeadlineExceeded.Add(1)
	}
	writeError(w, code, err)
}

// handleQuery answers GET /v1/query, the unified interactive endpoint: both
// μ and ε are request parameters served from the per-graph query index (one
// σ pass per graph, ever). With a single eps value the response carries the
// exact clustering at (μ, ε); with a comma-separated eps list, or none (the
// server then probes up to limit= interesting thresholds), it carries a
// profile of summary points per ε.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	name := q.Get("graph")
	if name == "" {
		writeError(w, http.StatusBadRequest,
			errors.New("need graph=<name>&mu=<int>[&eps=<float>[,<float>...]][&approx=<delta>]"))
		return
	}
	mu, err := parseMuParam(q)
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

	raw := q.Get("eps")
	if raw != "" && !strings.Contains(raw, ",") {
		eps, err := parseEpsParam(raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		s.serveClustering(w, r, ge, mu, eps, approx, minEpoch)
		return
	}

	// Profile form (eps list or probed thresholds). An accuracy dial would
	// silently change what every point means, so the combination is
	// rejected outright.
	if approx > 0 {
		writeError(w, http.StatusBadRequest,
			errors.New("approx is only supported with a single eps (profile queries are always exact)"))
		return
	}
	epsValues, err := parseEpsList(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	limit := 16
	if rawLimit := q.Get("limit"); rawLimit != "" {
		if limit, err = strconv.Atoi(rawLimit); err != nil || limit <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", rawLimit))
			return
		}
	}
	s.serveProfile(w, r, ge, mu, epsValues, limit, minEpoch)
}

// serveClustering answers one (μ, ε) clustering. Assignment-carrying answers
// serialize O(|V|) state, so they are metered through admission.
func (s *Server) serveClustering(w http.ResponseWriter, r *http.Request, ge *GraphEntry, mu int, eps, approx float64, minEpoch int64) {
	withAssignments := wantAssignments(r)
	rv, code, err := s.resolveView(r.Context(), ge, approx, minEpoch, withAssignments)
	if err != nil {
		s.fail(w, code, err)
		return
	}
	start := time.Now()
	res, err := rv.view.Query(mu, eps)
	rv.release()
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	queryUS := s.countQuery(start)
	s.respond(w, ge, rv, QueryResponse{
		Graph:             ge.Name,
		Mu:                mu,
		Eps:               eps,
		Approx:            rv.approx,
		CacheHit:          rv.hit,
		Stale:             rv.stale != nil,
		Epoch:             rv.epoch,
		BuildMS:           rv.buildMS,
		QueryMS:           float64(queryUS) / 1000,
		ClusteringPayload: clusteringPayload(res),
	}, assignmentMembers(res, withAssignments))
}

// serveProfile answers the profile form: one clustering summary per ε, each a
// plain view query. An empty epsValues list probes up to limit interesting
// thresholds, which only an index can supply (its μ-fixed merge structure
// is derived per request); on a live graph the list must be explicit.
//
// Neither the list nor limit is bounded, so the request's deadline is what
// bounds the work: it is checked before every point.
func (s *Server) serveProfile(w http.ResponseWriter, r *http.Request, ge *GraphEntry, mu int, epsValues []float64, limit int, minEpoch int64) {
	ctx := r.Context()
	rv, code, err := s.resolveView(ctx, ge, 0, minEpoch, false)
	if err != nil {
		s.fail(w, code, err)
		return
	}
	defer rv.release()
	start := time.Now()
	if len(epsValues) == 0 {
		idx, ok := rv.view.(*index.Index)
		if !ok {
			s.fail(w, http.StatusBadRequest,
				fmt.Errorf("graph %q is live (mutated); profile queries need an explicit eps list", ge.Name))
			return
		}
		ex, err := sweep.FromIndex(idx, mu)
		if err != nil {
			s.fail(w, http.StatusBadRequest, err)
			return
		}
		epsValues = ex.InterestingThresholds(limit)
	}
	points := make([]SweepPoint, len(epsValues))
	for i, eps := range epsValues {
		if err := ctx.Err(); err != nil {
			s.fail(w, http.StatusServiceUnavailable, err)
			return
		}
		res, err := rv.view.Query(mu, eps)
		if err != nil {
			s.fail(w, http.StatusBadRequest, err)
			return
		}
		points[i] = SweepPoint{Eps: eps, Clusters: res.NumClusters, Counts: roleCounts(res.RoleCounts())}
	}
	queryUS := s.countQuery(start)
	s.respond(w, ge, rv, QueryResponse{
		Graph:    ge.Name,
		Mu:       mu,
		CacheHit: rv.hit,
		Stale:    rv.stale != nil,
		Epoch:    rv.epoch,
		BuildMS:  rv.buildMS,
		QueryMS:  float64(queryUS) / 1000,
		Points:   points,
	}, nil)
}

// countQuery books one answered /v1/query read that started at start and
// returns its compute time in µs.
func (s *Server) countQuery(start time.Time) int64 {
	us := time.Since(start).Microseconds()
	s.met.QueryUS.Add(us)
	s.met.QueriesServed.Add(1)
	return us
}
