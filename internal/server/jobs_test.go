package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"anyscan/internal/core"
	"anyscan/internal/testutil"
)

// TestTotalSimsDoesNotWaitForARunningBlock holds a job's runMu, as runJob
// does across each block and each checkpoint write, and asks for the σ
// total that GET /v1/metrics reports: it must answer within 2 s, with the
// job's count.
func TestTotalSimsDoesNotWaitForARunningBlock(t *testing.T) {
	o := core.DefaultOptions()
	o.Mu, o.Eps, o.Threads = 3, 0.5, 1
	c, err := core.New(testutil.Karate(), o)
	if err != nil {
		t.Fatal(err)
	}
	c.Step()
	want := c.Metrics().Sim.Sims
	j := &Job{ID: "j1", c: c}
	m := &Manager{jobs: map[string]*Job{j.ID: j}, order: []string{j.ID}}
	j.runMu.Lock()
	defer j.runMu.Unlock()
	got := make(chan int64, 1)
	go func() { got <- m.TotalSims() }()
	select {
	case sims := <-got:
		if sims != want || sims == 0 {
			t.Fatalf("TotalSims = %d, want the job's %d", sims, want)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("TotalSims still waiting for a job's runMu after 2 s")
	}
}

// TestSubmitRejectsThreadsOutsideRange posts jobs whose thread count lies
// beyond core.MaxThreads or below zero. Each is a 400 naming the range,
// answered before a run sizes any per-worker state, and leaves no job and
// no manifest behind.
func TestSubmitRejectsThreadsOutsideRange(t *testing.T) {
	dir := t.TempDir()
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	s, err := New(Config{Manager: ManagerConfig{Workers: 1, CheckpointDir: dir}, IndexThreads: 1, Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	if _, err := s.reg.Load("g", GraphSource{Dataset: "GR01L", Scale: 0.03}); err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int64{1 << 40, -1} {
		body := fmt.Sprintf(`{"graph":"g","mu":3,"eps":0.5,"threads":%d}`, threads)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
		var e ErrorResponse
		if rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &e) != nil ||
			!strings.Contains(e.Error, fmt.Sprintf("[0, %d]", core.MaxThreads)) {
			t.Fatalf("threads=%d: %d %s, want a 400 naming [0, %d]", threads, rec.Code, rec.Body, core.MaxThreads)
		}
	}
	if jobs := s.jobs.List(); len(jobs) != 0 {
		t.Fatalf("%d jobs listed after rejected submissions", len(jobs))
	}
	if files, err := os.ReadDir(dir); err != nil || len(files) != 0 {
		t.Fatalf("checkpoint dir holds %d files after rejected submissions (%v)", len(files), err)
	}
}
