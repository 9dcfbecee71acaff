package index_test

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"anyscan/internal/graph"
	"anyscan/internal/index"
	"anyscan/internal/testutil"
)

// TestConcurrentQueriesCompressedBackend exercises the compressed backend's
// shared decode paths under the race detector: many goroutines querying one
// index built over a compressed graph.
func TestConcurrentQueriesCompressedBackend(t *testing.T) {
	g := graph.Compress(testutil.Karate())
	x := index.Build(g, 2)
	want, err := x.Query(2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				got, err := x.Query(2, 0.5)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got.Labels, want.Labels) {
					t.Error("concurrent Query result differs")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestLoadCompressedBackend round-trips a persisted index through Save/Load
// with the compressed graph as the fingerprint-verified host graph.
func TestLoadCompressedBackend(t *testing.T) {
	flat := testutil.Karate()
	comp := graph.Compress(flat)
	x := index.Build(flat, 2)
	var buf bytes.Buffer
	if err := x.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// An index built on the flat graph must load over the compressed backend:
	// the content fingerprint is backend-independent.
	y, err := index.Load(comp, bytes.NewReader(buf.Bytes()), 2)
	if err != nil {
		t.Fatalf("Load over compressed backend: %v", err)
	}
	want, err := x.Query(3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := y.Query(3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Labels, want.Labels) || !reflect.DeepEqual(got.Roles, want.Roles) {
		t.Fatal("loaded-over-compressed Query differs from the building index")
	}
}
