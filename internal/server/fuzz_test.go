package server_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"anyscan/internal/gen"
	"anyscan/internal/server"
)

// newFuzzServer builds an in-process server holding graph "g" (about 200
// vertices), called through ServeHTTP with no listener. Every new approx
// value builds and caches another index, so the server carries a memory
// budget, and a short query deadline bounds any one input's work.
func newFuzzServer(f *testing.F) *server.Server {
	f.Helper()
	srv, err := server.New(server.Config{
		Manager: server.ManagerConfig{Workers: 1},
		Overload: server.OverloadConfig{
			QueryTimeout:      2 * time.Second,
			IndexMemoryBudget: 4 << 20,
		},
		Logger: quietLogger(),
	})
	if err != nil {
		f.Fatal(err)
	}
	g := gen.ErdosRenyi(200, 900, gen.WeightConfig{}, 7)
	path := writeGraphFile(f, g, f.TempDir())
	if _, err := srv.Registry().Load("g", server.GraphSource{Path: path}); err != nil {
		f.Fatal(err)
	}
	return srv
}

// serveRaw sends one request with the given raw (unparsed) query string
// straight through ServeHTTP.
func serveRaw(srv *server.Server, method, path, rawQuery, body string) *httptest.ResponseRecorder {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	req.URL.RawQuery = rawQuery
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

// checkAnswer fails on any 500 and on a 4xx whose body is not a structured
// ErrorResponse.
func checkAnswer(t *testing.T, what string, rec *httptest.ResponseRecorder) {
	t.Helper()
	if rec.Code == http.StatusInternalServerError {
		t.Fatalf("%s: 500: %s", what, rec.Body)
	}
	if rec.Code >= 400 && rec.Code < 500 {
		var e server.ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Fatalf("%s: %d body %q is not a structured ErrorResponse (%v)", what, rec.Code, rec.Body, err)
		}
	}
}

// FuzzReadParams sends arbitrary raw query strings to both read routes:
// whatever the parameters, the answer is a result, a structured 4xx, or a
// 503 — never a panic or a 500.
func FuzzReadParams(f *testing.F) {
	for _, seed := range []string{
		"graph=g&mu=3&eps=0.4",
		"graph=g&mu=3&eps=0.3,0.5,0.9",
		"graph=g&mu=2&limit=4",
		"graph=g&mu=3&eps=0.4&approx=0.01&assignments=1",
		"graph=g&seed=5&mu=3&eps=0.4&members=0",
		"graph=g&seed=199&mu=1&eps=1&min_epoch=1",
		"graph=g&seed=-1&mu=0&eps=NaN&approx=1&timeout_ms=-5",
		"graph=g&mu=3&eps=0.3,zap&limit=0&timeout_ms=abc",
		"graph=nope&mu=99999999999&eps=1e-300&min_epoch=x",
		"%zz&graph=g;mu=3&&eps=",
	} {
		f.Add(seed)
	}
	srv := newFuzzServer(f)
	f.Fuzz(func(t *testing.T, raw string) {
		for _, path := range []string{"/v1/query", "/v1/local"} {
			checkAnswer(t, path+"?"+raw, serveRaw(srv, http.MethodGet, path, raw, ""))
		}
	})
}

// FuzzMutateBody sends arbitrary bodies to the mutation endpoint: never a
// panic or a 500, a structured ErrorResponse on every 4xx, and a rejected
// batch leaves the graph's epoch where it was.
func FuzzMutateBody(f *testing.F) {
	for _, seed := range []string{
		`{"mutations":[{"op":"add","u":1,"v":2,"w":0.8}]}`,
		`{"mutations":[{"op":"delete","u":3,"v":4},{"op":"reweight","u":1,"v":2,"w":1.5}]}`,
		`{"mutations":[{"op":"add","u":0,"v":2,"w":1},{"op":"reweight","u":40,"v":41,"w":1}]}`,
		`{"mutations":[{"op":"add","u":3,"v":3,"w":1}]}`,
		`{"mutations":[{"op":"add","u":0,"v":200,"w":1}]}`,
		`{"mutations":[{"op":"add","u":-1,"v":5,"w":-2}]}`,
		`{"mutations":[{"op":"frobnicate","u":0,"v":1}]}`,
		`{"mutations":[]}`,
		`{"mutations":[{"op":"add","u":1,"v":2,"w":1e39}]}`,
		`{"mutations":`,
		``,
	} {
		f.Add(seed)
	}
	srv := newFuzzServer(f)
	epoch := func(t *testing.T) int64 {
		t.Helper()
		rec := serveRaw(srv, http.MethodGet, "/v1/query", "graph=g&mu=2&eps=0.5", "")
		if rec.Code != http.StatusOK {
			t.Fatalf("epoch probe: %d %s", rec.Code, rec.Body)
		}
		var qr server.QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
			t.Fatal(err)
		}
		return qr.Epoch
	}
	f.Fuzz(func(t *testing.T, body string) {
		before := epoch(t)
		rec := serveRaw(srv, http.MethodPost, "/v1/graphs/g/edges", "", body)
		checkAnswer(t, "mutate "+body, rec)
		if rec.Code >= 400 && rec.Code < 500 {
			if after := epoch(t); after != before {
				t.Fatalf("rejected batch %q moved the epoch %d → %d", body, before, after)
			}
		}
	})
}
