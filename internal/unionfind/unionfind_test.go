package unionfind

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// model is the naive label model a forest is checked against: every element
// carries its set's label, and a merge relabels every member of the smaller
// set.
type model struct {
	of      []int32   // label of each element's set
	members [][]int32 // members of each label's set
}

// newModel returns the model of the partition that puts element i in set
// of[i]; labels lie in [0, len(of)).
func newModel(of []int32) *model {
	m := &model{of: of, members: make([][]int32, len(of))}
	for i, l := range of {
		m.members[l] = append(m.members[l], int32(i))
	}
	return m
}

// singletons returns the model of n singleton sets.
func singletons(n int) *model {
	of := make([]int32, n)
	for i := range of {
		of[i] = int32(i)
	}
	return newModel(of)
}

// union merges the sets of x and y and reports whether they were apart.
func (m *model) union(x, y int32) bool {
	a, b := m.of[x], m.of[y]
	if a == b {
		return false
	}
	if len(m.members[a]) < len(m.members[b]) {
		a, b = b, a
	}
	for _, v := range m.members[b] {
		m.of[v] = a
	}
	m.members[a] = append(m.members[a], m.members[b]...)
	m.members[b] = nil
	return true
}

func (m *model) same(x, y int32) bool { return m.of[x] == m.of[y] }

// sets returns the number of sets.
func (m *model) sets() int {
	n := 0
	for _, ms := range m.members {
		if len(ms) > 0 {
			n++
		}
	}
	return n
}

// labels numbers the sets as Concurrent.Labels does: densely, in order of
// first appearance.
func (m *model) labels() []int32 {
	dense := make(map[int32]int32)
	out := make([]int32, len(m.of))
	for i, l := range m.of {
		d, ok := dense[l]
		if !ok {
			d = int32(len(dense))
			dense[l] = d
		}
		out[i] = d
	}
	return out
}

func TestBasics(t *testing.T) {
	ds := NewConcurrent(5)
	if ds.Len() != 5 || ds.Sets() != 5 {
		t.Fatalf("fresh set: len=%d sets=%d", ds.Len(), ds.Sets())
	}
	if ds.Connected(0, 1) {
		t.Fatal("fresh elements connected")
	}
	merges := 0
	if ds.Union(0, 1) {
		merges++
	} else {
		t.Fatal("first union should merge")
	}
	if ds.Union(1, 0) {
		t.Fatal("repeat union should not merge")
	}
	if !ds.Connected(0, 1) {
		t.Fatal("0 and 1 should be connected")
	}
	if ds.Sets() != 4 {
		t.Fatalf("sets = %d, want 4", ds.Sets())
	}
	if merges != 1 {
		t.Fatalf("unions = %d, want 1", merges)
	}
}

func TestAdd(t *testing.T) {
	ds := NewConcurrent(2)
	id := ds.Add()
	if id != 2 {
		t.Fatalf("Add returned %d, want 2", id)
	}
	if ds.Len() != 3 || ds.Sets() != 3 {
		t.Fatalf("after Add: len=%d sets=%d", ds.Len(), ds.Sets())
	}
	ds.Union(0, id)
	if !ds.Connected(0, 2) {
		t.Fatal("added element should union normally")
	}
}

func TestChainMerging(t *testing.T) {
	n := 100
	ds := NewConcurrent(n)
	for i := 0; i < n-1; i++ {
		ds.Union(int32(i), int32(i+1))
	}
	if ds.Sets() != 1 {
		t.Fatalf("chain should collapse to 1 set, got %d", ds.Sets())
	}
	root := ds.Find(0)
	for i := 1; i < n; i++ {
		if ds.Find(int32(i)) != root {
			t.Fatalf("element %d has different root", i)
		}
	}
}

func TestFindNoCompressAgreesWithFind(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ds := NewConcurrent(200)
	for i := 0; i < 300; i++ {
		ds.Union(int32(rng.Intn(200)), int32(rng.Intn(200)))
	}
	for v := int32(0); v < 200; v++ {
		if ds.FindNoCompress(v) != ds.Find(v) {
			t.Fatalf("FindNoCompress(%d) != Find(%d)", v, v)
		}
	}
}

func TestLabels(t *testing.T) {
	ds := NewConcurrent(6)
	ds.Union(0, 3)
	ds.Union(4, 5)
	labels := ds.Labels()
	if labels[0] != labels[3] {
		t.Errorf("0 and 3 should share a label")
	}
	if labels[4] != labels[5] {
		t.Errorf("4 and 5 should share a label")
	}
	if labels[1] == labels[2] || labels[1] == labels[0] {
		t.Errorf("singletons should be distinct: %v", labels)
	}
	// Dense: labels must cover 0..Sets()-1.
	seen := map[int32]bool{}
	for _, l := range labels {
		seen[l] = true
	}
	for l := int32(0); l < int32(ds.Sets()); l++ {
		if !seen[l] {
			t.Errorf("label %d missing (labels %v)", l, labels)
		}
	}
}

// Property: union-find implements an equivalence relation matching the
// naive label model.
func TestEquivalenceRelationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50
		ds := NewConcurrent(n)
		naive := singletons(n)
		for k := 0; k < 80; k++ {
			a, b := int32(rng.Intn(n)), int32(rng.Intn(n))
			ds.Union(a, b)
			naive.union(a, b)
		}
		for i := int32(0); i < int32(n); i++ {
			for j := i + 1; j < int32(n); j++ {
				if ds.Connected(i, j) != naive.same(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: the number of sets always equals n minus successful unions.
func TestSetCountProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 64
		ds := NewConcurrent(n)
		merges := 0
		for k := 0; k < 200; k++ {
			if ds.Union(int32(rng.Intn(n)), int32(rng.Intn(n))) {
				merges++
			}
		}
		return ds.Sets() == n-merges
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkUnionFind(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 100000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds := NewConcurrent(n)
		for k := 0; k < n; k++ {
			ds.Union(int32(rng.Intn(n)), int32(rng.Intn(n)))
		}
	}
}

func TestSnapshotRestore(t *testing.T) {
	ds := NewConcurrent(10)
	ds.Union(0, 1)
	ds.Union(2, 3)
	ds.Union(1, 3)
	parent, rank, sets := ds.Snapshot()
	restored, err := RestoreConcurrent(parent, rank, sets)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Sets() != ds.Sets() || restored.Len() != ds.Len() {
		t.Fatalf("shape mismatch after restore")
	}
	for i := int32(0); i < 10; i++ {
		for j := i + 1; j < 10; j++ {
			if ds.Connected(i, j) != restored.Connected(i, j) {
				t.Fatalf("connectivity differs at (%d,%d)", i, j)
			}
		}
	}
	// Snapshot must be a copy: mutating the restored set must not affect
	// the original.
	restored.Union(5, 6)
	if ds.Connected(5, 6) {
		t.Fatal("restore aliased the original forest")
	}
}

func TestRestoreRejectsCorruptState(t *testing.T) {
	if _, err := RestoreConcurrent([]int32{0, 1}, []uint8{0}, 2); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := RestoreConcurrent([]int32{0, 5}, []uint8{0, 0}, 2); err == nil {
		t.Error("out-of-range parent accepted")
	}
	if _, err := RestoreConcurrent([]int32{0, 1}, []uint8{0, 0}, 99); err == nil {
		t.Error("implausible set count accepted")
	}
	if _, err := RestoreConcurrent([]int32{0, 1}, []uint8{0, 0}, -1); err == nil {
		t.Error("negative set count accepted")
	}
}
