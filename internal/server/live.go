package server

import (
	"errors"
	"fmt"
	"net/http"

	"anyscan/internal/live"
)

// This file is the live-graph write route, POST /v1/graphs/{name}/edges.
// A generation's live graph is promoted by its first mutation
// (Registry.promote); reads find its epochs through resolveView.

// parseOp maps the wire op string to a live.Op.
func parseOp(op string) (live.Op, error) {
	switch op {
	case "add":
		return live.OpAdd, nil
	case "delete":
		return live.OpDelete, nil
	case "reweight":
		return live.OpReweight, nil
	}
	return 0, fmt.Errorf("unknown op %q (want add, delete, or reweight)", op)
}

// handleMutate answers POST /v1/graphs/{name}/edges: apply one batch of edge
// mutations atomically and publish the result as a new epoch. The response
// carries the epoch token; passing it back as ?min_epoch= on GET /v1/query
// guarantees the query observes the write. Applying a batch recomputes σ for
// every arc incident to a touched vertex, so the work is metered through the
// admission semaphore at build weight.
func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	var req MutateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Mutations) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("mutations list is empty"))
		return
	}
	ge, err := s.reg.Get(r.PathValue("name"))
	if err != nil {
		writeError(w, errorCode(err), err)
		return
	}
	muts := make([]live.Mutation, len(req.Mutations))
	for i, m := range req.Mutations {
		op, err := parseOp(m.Op)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("mutation %d: %w", i, err))
			return
		}
		// Validate endpoint ranges before materializing the live graph:
		// live.Apply re-validates the whole batch, but a bad vertex id must
		// not first trigger the (expensive) epoch-0 index build.
		if err := vertexInRange(m.U, ge.G.NumVertices()); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("mutation %d: %w", i, err))
			return
		}
		if err := vertexInRange(m.V, ge.G.NumVertices()); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("mutation %d: %w", i, err))
			return
		}
		muts[i] = live.Mutation{Op: op, U: m.U, V: m.V, W: m.W}
	}

	lg, err := s.reg.promote(r.Context(), ge)
	if err != nil {
		s.fail(w, http.StatusServiceUnavailable, err)
		return
	}
	if s.admit != nil {
		release, err := s.admit.acquireBuild(r.Context())
		if err != nil {
			s.fail(w, http.StatusServiceUnavailable, err)
			return
		}
		defer release()
	}
	ep, st, err := lg.Apply(muts)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.met.MutationsTotal.Add(int64(len(muts)))
	if st.Applied > 0 {
		s.met.EpochsPublished.Add(1)
		s.met.EpochPublishUS.Add(st.Publish.Microseconds())
	}
	writeJSON(w, http.StatusOK, MutateResponse{
		Graph:           ge.Name,
		Epoch:           ep.Seq(),
		Applied:         st.Applied,
		NoOps:           st.NoOps,
		Vertices:        ep.NumVertices(),
		Edges:           ep.NumEdges(),
		PublishMS:       float64(st.Publish.Microseconds()) / 1000,
		SigmaRecomputed: st.SigmaRecomputed,
	})
}
