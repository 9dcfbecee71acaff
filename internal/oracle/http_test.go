package oracle

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"anyscan/internal/cluster"
	"anyscan/internal/graph"
	"anyscan/internal/live"
	"anyscan/internal/server"
)

// A service is the HTTP adapter: one anyscand server, reached through
// ServeHTTP, serving an input graph loaded from a .bin file, from the same
// file compressed in memory, and from a .csrz file (mmap-backed). epoch is
// the live epoch of the last acknowledged edits (0 before any).
type service struct {
	srv   *server.Server
	epoch int64
}

var backends = []string{"bin", "packed", "csrz"}

func newService(t *testing.T, g *graph.CSR) *service {
	srv, err := server.New(server.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Drain(context.Background()) }) // no job runs, so no drain can time out
	bin, csrz := filepath.Join(t.TempDir(), "g.bin"), filepath.Join(t.TempDir(), "g.csrz")
	f, err := os.Create(bin)
	if err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(g.WriteBinary(f), f.Close(), graph.Compress(g).WriteCompressedFile(csrz)); err != nil {
		t.Fatal(err)
	}
	s := &service{srv: srv}
	for i, src := range []server.GraphSource{{Path: bin}, {Path: bin, Format: server.FormatCompressed}, {Path: csrz}} {
		if err := s.do(http.MethodPost, "/v1/graphs", server.LoadGraphRequest{Name: backends[i], GraphSource: src}, &server.GraphInfo{}); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// do serves one request and decodes a 200 answer into out.
func (s *service) do(method, url string, body, out any) error {
	var rd io.Reader = http.NoBody
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	rec := httptest.NewRecorder()
	s.srv.ServeHTTP(rec, httptest.NewRequest(method, url, rd))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("%s %s: %d %s", method, url, rec.Code, rec.Body)
	}
	return json.Unmarshal(rec.Body.Bytes(), out)
}

// adapters returns, per backend, GET /v1/query?assignments=1 and GET
// /v1/local for every seed, at min_epoch once there are acknowledged edits;
// every answer must be fresh and at that epoch.
func (s *service) adapters() []adapter {
	var as []adapter
	for _, name := range backends {
		as = append(as, adapter{name: "http/" + name, check: func(c *cell) error {
			url := fmt.Sprintf("?graph=%s&mu=%d&eps=%s", name, c.mu, strconv.FormatFloat(c.eps, 'g', -1, 64))
			if s.epoch > 0 {
				url += fmt.Sprintf("&min_epoch=%d", s.epoch)
			}
			var qr server.QueryResponse
			if err := s.do(http.MethodGet, "/v1/query"+url+"&assignments=1", nil, &qr); err != nil {
				return err
			}
			if qr.Stale || qr.Epoch != s.epoch || qr.Assignments == nil {
				return fmt.Errorf("query: stale %v at epoch %d (want %d), assignments %v", qr.Stale, qr.Epoch, s.epoch, qr.Assignments != nil)
			}
			if err := c.same(&cluster.Result{Labels: qr.Assignments.Labels, Roles: roles(qr.Assignments.Roles), NumClusters: qr.Clusters}); err != nil {
				return fmt.Errorf("query: %v", err)
			}
			for _, seed := range c.seeds {
				var lr server.LocalResponse
				if err := s.do(http.MethodGet, fmt.Sprintf("/v1/local%s&seed=%d", url, seed), nil, &lr); err != nil {
					return err
				}
				if lr.Stale || lr.Epoch != s.epoch || lr.Size != len(lr.Members) {
					return fmt.Errorf("local: seed %d: stale %v at epoch %d (want %d), size %d of %d members", seed, lr.Stale, lr.Epoch, s.epoch, lr.Size, len(lr.Members))
				}
				if err := c.community(seed, lr.Role, lr.Members, roles(lr.Roles), lr.Touched); err != nil {
					return fmt.Errorf("local: %v", err)
				}
			}
			return nil
		}})
	}
	return as
}

// mutate posts one batch of edits to every backend; each must acknowledge
// it at the same epoch.
func (s *service) mutate(t *testing.T, muts []live.Mutation) {
	var req server.MutateRequest
	for _, m := range muts {
		req.Mutations = append(req.Mutations, server.MutationSpec{Op: m.Op.String(), U: m.U, V: m.V, W: m.W})
	}
	for i, name := range backends {
		var mr server.MutateResponse
		if err := s.do(http.MethodPost, "/v1/graphs/"+name+"/edges", req, &mr); err != nil {
			t.Fatal(err)
		}
		if i > 0 && mr.Epoch != s.epoch {
			t.Fatalf("%s acknowledged the batch at epoch %d, %s at %d", name, mr.Epoch, backends[0], s.epoch)
		}
		s.epoch = mr.Epoch
	}
}

// roles converts wire roles.
func roles(rs []int8) []cluster.Role {
	out := make([]cluster.Role, len(rs))
	for i, r := range rs {
		out[i] = cluster.Role(r)
	}
	return out
}
