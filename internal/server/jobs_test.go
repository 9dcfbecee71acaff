package server

import (
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
