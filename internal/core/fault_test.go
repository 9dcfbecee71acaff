package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"anyscan/internal/faultinject"
	"anyscan/internal/graph"
	"anyscan/internal/testutil"
)

// checkpointBytes runs a few steps on g and returns a valid checkpoint.
func checkpointBytes(t *testing.T, g *graph.CSR, o Options, steps int) []byte {
	t.Helper()
	c, err := New(g, o)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < steps && c.Step(); i++ {
	}
	var buf bytes.Buffer
	if err := c.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCheckpointCorruptionTable proves that byte-level damage anywhere in a
// checkpoint — truncation, header bit flips, payload bit flips — yields a
// returned error from LoadCheckpoint: never a panic, never a silently
// corrupted resumed run.
func TestCheckpointCorruptionTable(t *testing.T) {
	g := testutil.Karate()
	o := opts(3, 0.5, 1, 8, 8)
	valid := checkpointBytes(t, g, o, 2)
	if _, err := LoadCheckpoint(g, bytes.NewReader(valid)); err != nil {
		t.Fatalf("pristine checkpoint rejected: %v", err)
	}

	t.Run("truncation", func(t *testing.T) {
		cuts := []int{0, 1, 4, 8, 16, 19, 20, 21, len(valid) / 2, len(valid) - 1}
		for _, cut := range cuts {
			r := &faultinject.TruncatingReader{R: bytes.NewReader(valid), Limit: int64(cut)}
			if _, err := LoadCheckpoint(g, r); err == nil {
				t.Errorf("checkpoint truncated to %d/%d bytes was accepted", cut, len(valid))
			}
		}
	})

	t.Run("header-bit-flips", func(t *testing.T) {
		for off := 0; off < 20; off++ {
			for _, mask := range []byte{0x01, 0x80} {
				r := &faultinject.BitFlipReader{R: bytes.NewReader(valid), Offset: int64(off), Mask: mask}
				if _, err := LoadCheckpoint(g, r); err == nil {
					t.Errorf("bit flip at header offset %d (mask %#x) was accepted", off, mask)
				}
			}
		}
	})

	t.Run("payload-bit-flips", func(t *testing.T) {
		for off := 20; off < len(valid); off += 37 {
			r := &faultinject.BitFlipReader{R: bytes.NewReader(valid), Offset: int64(off), Mask: 0x10}
			if _, err := LoadCheckpoint(g, r); err == nil {
				t.Errorf("bit flip at payload offset %d was accepted", off)
			}
		}
	})

	t.Run("empty", func(t *testing.T) {
		if _, err := LoadCheckpoint(g, bytes.NewReader(nil)); err == nil {
			t.Error("empty checkpoint accepted")
		}
	})
}

// reframe gob-encodes st into a correctly framed (checksum-valid)
// checkpoint, bypassing SaveCheckpoint — the tool for forging semantically
// invalid but bytewise intact checkpoints.
func reframe(t *testing.T, st checkpointState) []byte {
	t.Helper()
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&st); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := checkpointKind.Write(&out, payload.Bytes()); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestCheckpointRejectsSemanticCorruption forges checkpoints whose frame and
// checksum are valid but whose payload carries out-of-range indices or an
// inconsistent forest — the kind a buggy or malicious writer could produce.
// Every one must be rejected by the validation; without it, each would
// panic the resumed run with an index error, hang it on a parent cycle, or
// silently poison the clustering.
func TestCheckpointRejectsSemanticCorruption(t *testing.T) {
	g := testutil.Karate()
	n := int32(g.NumVertices())

	cases := []struct {
		name string
		opt  func(*Options)
		mut  func(*checkpointState)
	}{
		{name: "payload-version", mut: func(st *checkpointState) { st.Version = 1 }},
		{name: "phase-out-of-range", mut: func(st *checkpointState) { st.Phase = 99 }},
		{name: "state-array-short", mut: func(st *checkpointState) { st.State = st.State[:1] }},
		{name: "state-value-invalid", mut: func(st *checkpointState) { st.State[3] = 42 }},
		{name: "nei-negative", mut: func(st *checkpointState) { st.Nei[0] = -7 }},
		{name: "nei-oversized", mut: func(st *checkpointState) { st.Nei[0] = n + 1 }},
		{name: "snrep-out-of-range", mut: func(st *checkpointState) { st.SnRep = append(st.SnRep, n+5) }},
		{name: "snrep-parent-mismatch", mut: func(st *checkpointState) { st.DSParent = st.DSParent[:0] }},
		// Two steps leave 8 super-nodes, so the forest rows index in range.
		{name: "ds-parent-out-of-range", mut: func(st *checkpointState) {
			st.DSParent[0] = int32(len(st.DSParent)) + 3
		}},
		{name: "ds-sets-implausible", mut: func(st *checkpointState) { st.DSSets = len(st.DSParent) + 1 }},
		{name: "ds-parent-cycle", mut: func(st *checkpointState) {
			st.DSParent[0], st.DSParent[1], st.DSParent[2] = 1, 2, 0
		}},
		{name: "ds-sets-miscounted", mut: func(st *checkpointState) { st.DSSets-- }},
		{name: "snof-out-of-range", mut: func(st *checkpointState) {
			st.SnOf[0] = append(st.SnOf[0], int32(len(st.SnRep))+2)
		}},
		{name: "borderof-out-of-range", mut: func(st *checkpointState) { st.BorderOf[2] = int32(len(st.SnRep)) + 9 }},
		{name: "borderof-below-minus-one", mut: func(st *checkpointState) { st.BorderOf[2] = -2 }},
		{name: "noise-out-of-range", mut: func(st *checkpointState) { st.Noise = append(st.Noise, n) }},
		{name: "epscache-out-of-range", mut: func(st *checkpointState) {
			st.EpsCache[1] = []int32{n + 3}
		}},
		{name: "order-duplicate", mut: func(st *checkpointState) { st.Order[1] = st.Order[0] }},
		{name: "order-out-of-range", mut: func(st *checkpointState) { st.Order[0] = -1 }},
		{name: "cursor-out-of-range", mut: func(st *checkpointState) { st.Cursor = len(st.Order) + 1 }},
		{name: "cursor-negative", mut: func(st *checkpointState) { st.Cursor = -1 }},
		{name: "works-out-of-range", mut: func(st *checkpointState) {
			st.Phase = PhaseStrong
			st.WorkS = []int32{n + 1}
			st.WorkPos = 0
		}},
		{name: "workpos-beyond-worklist", mut: func(st *checkpointState) {
			st.Phase = PhaseStrong
			st.WorkS = st.WorkS[:0]
			st.WorkPos = 5
		}},
		{name: "workt-out-of-range", mut: func(st *checkpointState) {
			st.Phase = PhaseWeak
			st.WorkT = []int32{-3}
			st.WorkPos = 0
		}},
		{name: "memo-wrong-length", opt: func(o *Options) { o.EdgeMemo = true },
			mut: func(st *checkpointState) { st.Memo = st.Memo[:len(st.Memo)-1] }},
		{name: "memo-bad-value", opt: func(o *Options) { o.EdgeMemo = true },
			mut: func(st *checkpointState) { st.Memo[0] = 7 }},
		{name: "memo-without-option", mut: func(st *checkpointState) { st.Memo = make([]int32, 4) }},
		{name: "options-invalid", mut: func(st *checkpointState) { st.Opt.Eps = 2.5 }},
		{name: "iterations-negative", mut: func(st *checkpointState) { st.Iterations = -1 }},
		{name: "phasetime-overlong", mut: func(st *checkpointState) {
			st.PhaseTime = append(st.PhaseTime, st.PhaseTime...)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := opts(3, 0.5, 1, 8, 8)
			if tc.opt != nil {
				tc.opt(&o)
			}
			c, err := New(g, o)
			if err != nil {
				t.Fatal(err)
			}
			c.Step()
			c.Step()
			st := c.checkpointSnapshot()
			tc.mut(&st)
			forged := reframe(t, st)
			loaded, err := LoadCheckpoint(g, bytes.NewReader(forged))
			if err == nil {
				// Not just an error: make sure acceptance would have been
				// exploitable before failing, for a readable message.
				t.Fatalf("semantically corrupt checkpoint accepted (phase %v)", loaded.Phase())
			}
		})
	}
}

// TestCheckpointSemanticValidationEnablesSafeResume is the positive control
// for the table above: an unmutated reframed snapshot loads and finishes
// identically to the original run.
func TestCheckpointSemanticValidationEnablesSafeResume(t *testing.T) {
	g := testutil.Karate()
	o := opts(3, 0.5, 1, 8, 8)
	c, err := New(g, o)
	if err != nil {
		t.Fatal(err)
	}
	c.Step()
	c.Step()
	forged := reframe(t, c.checkpointSnapshot())
	resumed, err := LoadCheckpoint(g, bytes.NewReader(forged))
	if err != nil {
		t.Fatal(err)
	}
	for c.Step() {
	}
	for resumed.Step() {
	}
	want, got := c.Snapshot(), resumed.Snapshot()
	for v := 0; v < got.N(); v++ {
		if got.Labels[v] != want.Labels[v] || got.Roles[v] != want.Roles[v] {
			t.Fatalf("vertex %d differs after reframed resume", v)
		}
	}
}

// TestSaveCheckpointWriterFaults drives SaveCheckpoint into writers that
// fail or short-write at every interesting byte budget; each must surface as
// a returned error.
func TestSaveCheckpointWriterFaults(t *testing.T) {
	g := testutil.Karate()
	c, err := New(g, opts(3, 0.5, 1, 8, 8))
	if err != nil {
		t.Fatal(err)
	}
	c.Step()
	var full bytes.Buffer
	if err := c.SaveCheckpoint(&full); err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{0, 1, 19, 20, 21, int64(full.Len()) / 2, int64(full.Len()) - 1} {
		fw := &faultinject.FailingWriter{W: io.Discard, FailAfter: budget}
		if err := c.SaveCheckpoint(fw); err == nil {
			t.Errorf("write failure after %d bytes not reported", budget)
		}
		sw := &faultinject.ShortWriter{W: io.Discard, Budget: budget}
		if err := c.SaveCheckpoint(sw); err == nil {
			t.Errorf("short write after %d bytes not reported", budget)
		}
	}
}

// TestSaveCheckpointFileAtomic proves the crash-safety contract of
// SaveCheckpointFile: a fault injected at any stage of the save — payload
// write, fsync, or the instant before the rename — fails the save with a
// clean error, leaves no temp litter, and leaves the previous checkpoint
// byte-for-byte loadable.
func TestSaveCheckpointFileAtomic(t *testing.T) {
	defer faultinject.Reset()
	g := testutil.Karate()
	c, err := New(g, opts(3, 0.5, 1, 8, 8))
	if err != nil {
		t.Fatal(err)
	}
	c.Step()

	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	if err := c.SaveCheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	c.Step() // advance so a successful overwrite would change the file

	for _, point := range []string{"checkpoint.write", "checkpoint.sync", "checkpoint.rename"} {
		faultinject.Arm(point, 1, nil)
		err := c.SaveCheckpointFile(path)
		if !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("%s: err = %v, want injected fault", point, err)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: previous checkpoint destroyed: %v", point, err)
		}
		if !bytes.Equal(before, after) {
			t.Fatalf("%s: previous checkpoint modified by failed save", point)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 {
			names := make([]string, len(entries))
			for i, e := range entries {
				names[i] = e.Name()
			}
			t.Fatalf("%s: temp litter left behind: %v", point, names)
		}
		if _, err := LoadCheckpointFile(g, path); err != nil {
			t.Fatalf("%s: previous checkpoint no longer loads: %v", point, err)
		}
	}

	// With faults disarmed the save succeeds and the new state loads.
	if err := c.SaveCheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	resumed, err := LoadCheckpointFile(g, path)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Metrics().Iterations != c.Metrics().Iterations {
		t.Fatal("overwritten checkpoint does not carry the new state")
	}
}

// TestCheckpointFileResumeEquivalence round-trips through the atomic file
// helpers at every phase of a run and asserts the resumed clustering is
// identical to the uninterrupted one.
func TestCheckpointFileResumeEquivalence(t *testing.T) {
	tc := testutil.RandomCases(1)[3] // planted partition
	o := opts(tc.Mu, tc.Eps, 2, 32, 32)
	want, _ := mustCluster(t, tc.G, o)
	dir := t.TempDir()

	for _, stopAfter := range []int{1, 4, 9, 30} {
		c, err := New(tc.G, o)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < stopAfter && c.Step(); i++ {
		}
		path := filepath.Join(dir, fmt.Sprintf("stop%d.ckpt", stopAfter))
		if err := c.SaveCheckpointFile(path); err != nil {
			t.Fatal(err)
		}
		resumed, err := LoadCheckpointFile(tc.G, path)
		if err != nil {
			t.Fatal(err)
		}
		for resumed.Step() {
		}
		got := resumed.Snapshot()
		for v := 0; v < got.N(); v++ {
			if got.Labels[v] != want.Labels[v] || got.Roles[v] != want.Roles[v] {
				t.Fatalf("stop=%d: vertex %d differs after file resume", stopAfter, v)
			}
		}
	}
}
