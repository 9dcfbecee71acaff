package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"anyscan/internal/cluster"
	"anyscan/internal/gen"
	"anyscan/internal/index"
	"anyscan/internal/local"
)

// raceEnabled is set by race_test.go: the race detector's instrumentation
// allocates, so allocation counts are only meaningful without it.
var raceEnabled bool

// wireCase is one payload shape: full is the wire struct the client decodes,
// env the same struct with its array fields left empty, and members the
// writer that appends them.
type wireCase struct {
	name    string
	full    any
	env     any
	members func([]byte) []byte
}

func roles8(rs []cluster.Role) Ints[int8] {
	if rs == nil {
		return nil
	}
	out := make(Ints[int8], len(rs))
	for i, r := range rs {
		out[i] = int8(r)
	}
	return out
}

func withAssignments(p ClusteringPayload, r *cluster.Result) ClusteringPayload {
	p.Assignments = &Assignments{Labels: r.Labels, Roles: roles8(r.Roles)}
	return p
}

func queryCase(name string, q QueryResponse, r *cluster.Result) wireCase {
	q.ClusteringPayload = clusteringPayload(r)
	full := q
	full.ClusteringPayload = withAssignments(q.ClusteringPayload, r)
	return wireCase{name, full, q, assignmentMembers(r, true)}
}

func snapshotCase(name string, s SnapshotResponse, r *cluster.Result) wireCase {
	s.ClusteringPayload = clusteringPayload(r)
	full := s
	full.ClusteringPayload = withAssignments(s.ClusteringPayload, r)
	return wireCase{name, full, s, assignmentMembers(r, true)}
}

func localCase(name string, l LocalResponse, r *local.Result) wireCase {
	l.Seed, l.Mu, l.Eps, l.Role, l.Size, l.Touched = r.Seed, r.Mu, r.Eps, r.Role.String(), len(r.Members), r.Touched
	full := l
	full.Members, full.Roles = r.Members, roles8(r.Roles)
	return wireCase{name, full, l, localMembers(r, true)}
}

func wireCases() []wireCase {
	mixed := &cluster.Result{
		Labels:      []int32{-1, 0, 0, 1, 1, -1, 2, 0},
		Roles:       []cluster.Role{cluster.Outlier, cluster.Core, cluster.Border, cluster.Core, cluster.Core, cluster.Hub, cluster.Core, cluster.Border},
		NumClusters: 3,
	}
	limits := &cluster.Result{
		Labels:      []int32{math.MinInt32, -1, 0, math.MaxInt32},
		Roles:       []cluster.Role{math.MinInt8, cluster.Unclassified, cluster.Core, math.MaxInt8},
		NumClusters: 2,
	}
	one, empty := cluster.NewResult(1), cluster.NewResult(0)
	community := &local.Result{
		Seed: 5, Mu: 4, Eps: 0.5, Role: cluster.Core, Touched: 9,
		Members: []int32{0, 5, math.MaxInt32},
		Roles:   []cluster.Role{cluster.Core, cluster.Border, cluster.Core},
	}
	single := &local.Result{Seed: 0, Mu: 1, Eps: 1, Role: cluster.Core, Touched: 1,
		Members: []int32{0}, Roles: []cluster.Role{cluster.Core}}
	noise := &local.Result{Seed: 3, Mu: 4, Eps: 0.9, Role: cluster.Outlier, Touched: 1}
	progress := ProgressInfo{Phase: "step2", Iterations: 12, ElapsedMS: 3.25, SuperNodes: 4, Vertices: 8, Touched: 6, Sims: 99}

	q := QueryResponse{Graph: "g", Mu: 4, Eps: 0.5, CacheHit: true, QueryMS: 0.125}
	all := q
	all.Approx, all.Stale, all.Epoch, all.BuildMS, all.CacheHit = 0.01, true, 3, 12.5, false
	cases := []wireCase{
		queryCase("query", q, mixed),
		queryCase("query epoch stale approx build_ms", all, mixed),
		queryCase("query html graph name", QueryResponse{Graph: "a<b>&c", Mu: 2, Eps: 0.2}, mixed),
		queryCase("query non-ascii graph name", QueryResponse{Graph: "gräph→ü\u2028", Mu: 2, Eps: 0.2}, mixed),
		queryCase("query invalid utf-8 graph name", QueryResponse{Graph: "bad\xff\xfeutf8", Mu: 2, Eps: 0.2}, mixed),
		queryCase("query int32 and int8 limits", q, limits),
		queryCase("query one vertex", q, one),
		queryCase("query no vertices", q, empty),
		{"query summary only", func() any { s := q; s.ClusteringPayload = clusteringPayload(mixed); return s }(), nil, nil},
		{"profile", QueryResponse{Graph: "g", Mu: 3, QueryMS: 1, Points: []SweepPoint{{Eps: 0.3, Clusters: 2}, {Eps: 0.5}}}, nil, nil},
		snapshotCase("snapshot", SnapshotResponse{ID: "j1", State: JobRunning, Progress: progress}, mixed),
		snapshotCase("result", SnapshotResponse{ID: "j<2>", State: JobDone, Progress: ProgressInfo{Phase: "done", Done: true}}, limits),
		localCase("local", LocalResponse{Graph: "g&h", CacheHit: true, QueryMS: 0.05}, community),
		localCase("local epoch stale approx build_ms", LocalResponse{Graph: "g", Approx: 0.05, Stale: true, Epoch: 7, BuildMS: 2}, community),
		localCase("local one member", LocalResponse{Graph: "ü\xff"}, single),
		{"local without members", LocalResponse{Graph: "g", Seed: 5, Mu: 4, Eps: 0.5, Role: "core", Size: 3, Touched: 9}, nil, nil},
		{"local noise seed", LocalResponse{Graph: "g", Seed: noise.Seed, Mu: 4, Eps: 0.9, Role: "outlier", Touched: 1}, nil, nil},
	}
	for i := range cases {
		if cases[i].env == nil {
			cases[i].env = cases[i].full
		}
	}
	return cases
}

// TestWireMatchesEncoder pins the read payloads' bytes: for every shape the
// writer emits, appendBody equals json.NewEncoder(w).Encode of the wire
// struct, byte for byte, and the client decodes those bytes back.
func TestWireMatchesEncoder(t *testing.T) {
	for _, c := range wireCases() {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(c.full); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got, err := appendBody(nil, c.env, c.members)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s:\n got %s\nwant %s", c.name, got, want.Bytes())
			continue
		}
		back := reflect.New(reflect.TypeOf(c.full))
		if err := json.NewDecoder(bytes.NewReader(got)).Decode(back.Interface()); err != nil {
			t.Fatalf("%s: decoding: %v", c.name, err)
		}
		// Invalid UTF-8 went out as \ufffd escapes and cannot come back.
		if !bytes.Contains(got, []byte(`\ufffd`)) && !reflect.DeepEqual(back.Elem().Interface(), c.full) {
			t.Errorf("%s: decoded %+v, want %+v", c.name, back.Elem().Interface(), c.full)
		}
	}
}

// TestServedBodiesMatchEncoder checks the handlers' wiring end to end: every
// read form's body, decoded into its wire type and encoded again by
// encoding/json, is the body the server sent.
func TestServedBodiesMatchEncoder(t *testing.T) {
	srv, err := New(Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain(context.Background())
	path := filepath.Join(t.TempDir(), "g.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := gen.ErdosRenyi(300, 1500, gen.WeightConfig{}, 7).WriteBinary(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := srv.Registry().Load("g<&>", GraphSource{Path: path}); err != nil {
		t.Fatal(err)
	}
	// A triangle with a pendant vertex: edges whose σ is exactly 1, which the
	// probe-form profile must still answer at ε = 1.
	pendant := filepath.Join(t.TempDir(), "pendant.txt")
	if err := os.WriteFile(pendant, []byte("0 1\n0 2\n1 2\n2 3\n"), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Registry().Load("pendant", GraphSource{Path: pendant}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		query string
		into  any
	}{
		{"/v1/query?graph=g%3C%26%3E&mu=3&eps=0.3&assignments=1", &QueryResponse{}},
		{"/v1/query?graph=g%3C%26%3E&mu=3&eps=0.3", &QueryResponse{}},
		{"/v1/query?graph=g%3C%26%3E&mu=3&eps=0.2,0.4", &QueryResponse{}},
		{"/v1/query?graph=pendant&mu=2", &QueryResponse{}},
		{"/v1/local?graph=g%3C%26%3E&mu=3&eps=0.3&seed=1", &LocalResponse{}},
		{"/v1/local?graph=g%3C%26%3E&mu=3&eps=0.3&seed=1&members=0", &LocalResponse{}},
	} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, c.query, nil))
		if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("%s: %d %q: %s", c.query, rec.Code, rec.Header().Get("Content-Type"), rec.Body)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), c.into); err != nil {
			t.Fatalf("%s: %v", c.query, err)
		}
		var again bytes.Buffer
		json.NewEncoder(&again).Encode(c.into)
		if !bytes.Equal(again.Bytes(), rec.Body.Bytes()) {
			t.Errorf("%s:\n served %s\nencoder %s", c.query, rec.Body, again.Bytes())
		}
	}
}

// prefilled returns the values a decode starts from: nil, a full slice, and
// a one-element slice whose spare capacity holds stale values (encoding/json
// decodes into that storage).
func prefilled[T int8 | int32]() [][]T {
	spare := []T{7, 8, 9, 10}
	return [][]T{nil, {7, 8, 9}, spare[:1]}
}

// checkInts decodes data into Ints[T] and into a plain []T from each start
// value, requiring the same error and the same resulting slice, then calls
// UnmarshalJSON directly on the raw bytes.
func checkInts[T int8 | int32](t *testing.T, data []byte) {
	for i := range prefilled[T]() {
		got, want := Ints[T](prefilled[T]()[i]), prefilled[T]()[i]
		gerr, werr := json.Unmarshal(data, &got), json.Unmarshal(data, &want)
		if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
			t.Fatalf("%T from start %d on %q: error %v, encoding/json %v", got, i, data, gerr, werr)
		}
		if (got == nil) != (want == nil) || !slices.Equal(got, want) {
			t.Fatalf("%T from start %d on %q: %v, encoding/json %v", got, i, data, got, want)
		}
	}
	var direct Ints[T]
	var plain []T
	derr, perr := direct.UnmarshalJSON(data), json.Unmarshal(data, &plain)
	if (derr == nil) != (perr == nil) || (derr == nil && !slices.Equal(direct, plain)) {
		t.Fatalf("%T.UnmarshalJSON(%q) = %v (%v), encoding/json %v (%v)", direct, data, direct, derr, plain, perr)
	}
}

// FuzzWireInts decodes arbitrary bytes into Ints[int32] and Ints[int8] and
// into plain []int32 and []int8: the outcome, error and values, must be
// encoding/json's, and UnmarshalJSON called on the raw bytes never panics.
func FuzzWireInts(f *testing.F) {
	for _, s := range []string{
		`[]`, ` [ ] `, `[0]`, `[1,2,3]`, "\t[-1 , 0,\r\n7 ]\n", `[-0]`, `[-0,-9,9,0,12,-1]`, `[4,`, `[4,]`,
		`[2147483647,-2147483648]`, `[2147483648]`, `[-2147483649]`, `[127,-128]`, `[128]`, `[-129]`,
		`[99999999999999999999]`, `null`, ` null `, `[null]`, `[1,null,3]`, `[null,null,null,null,null]`,
		`[1.5]`, `[1.0]`, `[1e3]`, `[1E0]`, `[-1e-2]`, `["1"]`, `[true]`, `[[1]]`, `[{}]`, `[1,"a,b",2]`,
		`"abc"`, `5`, `{}`, `true`, `[01]`, `[-]`, `[1,]`, `[,1]`, `[1 2]`, `[`, ``, `[1]x`, `[1]]`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkInts[int32](t, data)
		checkInts[int8](t, data)
	})
}

// discardWriter is a ResponseWriter that keeps nothing.
type discardWriter struct{ h http.Header }

func (w discardWriter) Header() http.Header         { return w.h }
func (w discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w discardWriter) WriteHeader(int)             {}

// TestClusteringEncodeAllocs pins the server-side encode of one clustering
// with its assignments at a small constant number of allocations, the same
// at 1,024 and 8,192 vertices: none is per element.
func TestClusteringEncodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	const maxAllocs = 4
	var counts []float64
	for _, n := range []int{1024, 8192} {
		res := cluster.NewResult(n)
		for v := range n {
			if v%3 != 0 {
				res.Labels[v], res.Roles[v] = int32(v%97), cluster.Core
			}
		}
		w := discardWriter{http.Header{}}
		allocs := testing.AllocsPerRun(20, func() {
			writeBody(w, QueryResponse{Graph: "g", Mu: 4, Eps: 0.5, QueryMS: 0.1, ClusteringPayload: clusteringPayload(res)}, assignmentMembers(res, true))
		})
		t.Logf("encode of a %d-vertex clustering: %v allocations", n, allocs)
		if allocs > maxAllocs {
			t.Errorf("encode of a %d-vertex clustering: %v allocations, want at most %d", n, allocs, maxAllocs)
		}
		counts = append(counts, allocs)
	}
	if counts[0] != counts[1] {
		t.Errorf("allocations grow with the clustering: %v", counts)
	}
}

// plainAssignments and plainQuery are the wire types with plain slices, so
// encoding/json reflects over every element: the codec before Ints and
// appendBody.
type plainAssignments struct {
	Labels []int32 `json:"labels"`
	Roles  []int8  `json:"roles"`
}

type plainQuery struct {
	QueryResponse
	Assignments *plainAssignments `json:"assignments,omitempty"`
}

// BenchmarkResponseCodec times both ends of an explore-shaped read, one op
// per response: perfbench explore's R-MAT (8,192 vertices), one clustering
// with its assignments per cell of its 4×5 (μ, ε) grid. encode is the
// server's writeBody, decode the client's json.Decoder into QueryResponse;
// the reflect variants are the same ends with encoding/json walking every
// element. Reports µs and allocated bytes per response.
func BenchmarkResponseCodec(b *testing.B) {
	g := gen.RMAT(13, 8192*43, 0.45, 0.22, 0.22, gen.WeightConfig{}, 1)
	x := index.Build(g, runtime.GOMAXPROCS(0))
	var results []*cluster.Result
	for _, mu := range []int{2, 4, 8, 16} {
		for _, eps := range []float64{0.2, 0.35, 0.5, 0.65, 0.8} {
			res, err := x.Query(mu, eps)
			if err != nil {
				b.Fatal(err)
			}
			results = append(results, res)
		}
	}
	env := func(r *cluster.Result) QueryResponse {
		return QueryResponse{Graph: "explore", Mu: 4, Eps: 0.5, CacheHit: true, QueryMS: 0.1, ClusteringPayload: clusteringPayload(r)}
	}
	var bodies [][]byte
	var size int
	for _, r := range results {
		body, err := appendBody(nil, env(r), assignmentMembers(r, true))
		if err != nil {
			b.Fatal(err)
		}
		bodies, size = append(bodies, body), size+len(body)
	}
	b.Logf("%.2f KiB per response", float64(size)/float64(len(bodies))/1024)
	w := discardWriter{http.Header{}}
	for _, c := range []struct {
		name string
		op   func(i int)
	}{
		{"encode", func(i int) {
			r := results[i%len(results)]
			writeBody(w, env(r), assignmentMembers(r, true))
		}},
		{"encode/reflect", func(i int) {
			r := results[i%len(results)]
			json.NewEncoder(w).Encode(plainQuery{env(r), &plainAssignments{r.Labels, roles8(r.Roles)}})
		}},
		{"decode", func(i int) {
			var q QueryResponse
			if err := json.NewDecoder(bytes.NewReader(bodies[i%len(bodies)])).Decode(&q); err != nil {
				b.Fatal(err)
			}
		}},
		{"decode/reflect", func(i int) {
			var q plainQuery
			if err := json.NewDecoder(bytes.NewReader(bodies[i%len(bodies)])).Decode(&q); err != nil {
				b.Fatal(err)
			}
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.op(i)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N), "us/response")
		})
	}
}
