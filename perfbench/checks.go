package main

import (
	"context"
	"errors"
	"math/rand/v2"
	"slices"

	"anyscan/internal/cluster"
	"anyscan/internal/graph"
	"anyscan/internal/index"
	"anyscan/internal/server"
	"anyscan/internal/sweep"
)

// summary is what the checks keep of one served clustering.
type summary struct {
	cell     int
	clusters int
	counts   server.RoleCounts
}

type profileReply struct {
	mu     int
	points []server.SweepPoint
}

// summarize checks that a served clustering carries the whole assignment
// and keeps its summary.
func summarize(cell int, q *server.QueryResponse, n int) (summary, error) {
	if a := q.Assignments; a == nil || len(a.Labels) != n || len(a.Roles) != n {
		return summary{}, errors.New("clustering answer without the full assignment")
	}
	return summary{cell, q.Clusters, q.Counts}, nil
}

// countWrong counts the summaries that differ from the in-process answer at
// their cell.
func countWrong(got []summary, want []*cluster.Result) int64 {
	var wrong int64
	for _, s := range got {
		w := want[s.cell]
		if s.clusters != w.NumClusters || s.counts != roleCounts(w.RoleCounts()) {
			wrong++
		}
	}
	return wrong
}

func queryGrid(idx *index.Index, cells []cell) ([]*cluster.Result, error) {
	out := make([]*cluster.Result, len(cells))
	for i, c := range cells {
		res, err := idx.Query(c.mu, c.eps)
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}

// checkServed asks the server for the full clustering at every cell and
// compares it with want, label for label and role for role.
func (b *bench) checkServed(ctx context.Context, name string, cells []cell, want []*cluster.Result, minEpoch int64) (requests, wrong int64) {
	for i, c := range cells {
		requests++
		got, err := b.client.QueryEpoch(ctx, name, c.mu, c.eps, minEpoch, true)
		if err != nil || !sameAssignment(&got, want[i]) {
			wrong++
		}
	}
	return requests, wrong
}

func sameAssignment(q *server.QueryResponse, want *cluster.Result) bool {
	a := q.Assignments
	if a == nil || q.Clusters != want.NumClusters || len(a.Labels) != len(want.Labels) || len(a.Roles) != len(want.Roles) {
		return false
	}
	for v := range want.Labels {
		if a.Labels[v] != want.Labels[v] || cluster.Role(a.Roles[v]) != want.Roles[v] {
			return false
		}
	}
	return true
}

func sameResult(a, b *cluster.Result) bool {
	return a.NumClusters == b.NumClusters && slices.Equal(a.Labels, b.Labels) && slices.Equal(a.Roles, b.Roles)
}

func sameProfile(got []server.SweepPoint, want []sweep.Profile) bool {
	if len(got) != len(want) {
		return false
	}
	for i, p := range want {
		if got[i].Eps != p.Eps || got[i].Clusters != p.Clusters || got[i].Counts != roleCounts(p.Counts) {
			return false
		}
	}
	return true
}

func roleCounts(c cluster.Counts) server.RoleCounts {
	return server.RoleCounts{Cores: c.Cores, Borders: c.Borders, Hubs: c.Hubs, Outliers: c.Outliers, Unclassified: c.Unclassified}
}

// Community checksums: FNV-1a over (member, role) in ascending member
// order, the order /v1/local lists members in.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func mix(h, x uint64) uint64 { return (h ^ x) * fnvPrime }

type community struct {
	size int
	sum  uint64
}

// communitiesOf returns every cluster's size and member checksum.
func communitiesOf(res *cluster.Result) []community {
	c := make([]community, res.NumClusters)
	for i := range c {
		c[i].sum = fnvOffset
	}
	for v, l := range res.Labels {
		if l == cluster.NoLabel {
			continue
		}
		c[l].size++
		c[l].sum = mix(mix(c[l].sum, uint64(v)), uint64(res.Roles[v]))
	}
	return c
}

func communitiesOfGrid(res []*cluster.Result) [][]community {
	out := make([][]community, len(res))
	for i, r := range res {
		out[i] = communitiesOf(r)
	}
	return out
}

// localAnswer is what the checks keep of one served local answer.
type localAnswer struct {
	cell int
	seed int32
	role string
	size int
	sum  uint64
}

func answerOf(o *op, l *server.LocalResponse) (localAnswer, error) {
	if len(l.Members) != l.Size || len(l.Roles) != l.Size {
		return localAnswer{}, errors.New("local answer without its members")
	}
	h := fnvOffset
	for i, v := range l.Members {
		h = mix(mix(h, uint64(v)), uint64(l.Roles[i]))
	}
	return localAnswer{o.cell, o.seed, l.Role, l.Size, h}, nil
}

// matches reports whether a local answer is the seed's cluster in the full
// answer res, whose communities are comms.
func (a localAnswer) matches(res *cluster.Result, comms []community) bool {
	if a.role != res.Roles[a.seed].String() {
		return false
	}
	l := res.Labels[a.seed]
	if l == cluster.NoLabel {
		return a.size == 0
	}
	return a.size == comms[l].size && a.sum == comms[l].sum
}

// edgeTracker mirrors the edge set of a graph under mutation, so batches
// delete edges that exist and add edges that do not, and the final graph
// can be rebuilt for the checks.
type edgeTracker struct {
	n    int32
	list []uint64
	pos  map[uint64]int
}

func edgeKey(u, v int32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

func newEdgeTracker(g *graph.CSR) *edgeTracker {
	t := &edgeTracker{n: int32(g.NumVertices()), pos: make(map[uint64]int, g.NumEdges())}
	for v := int32(0); v < t.n; v++ {
		adj, _ := g.Neighbors(v)
		for _, q := range adj {
			if v < q {
				t.add(edgeKey(v, q))
			}
		}
	}
	return t
}

func (t *edgeTracker) add(e uint64) {
	t.pos[e] = len(t.list)
	t.list = append(t.list, e)
}

func (t *edgeTracker) remove(e uint64) {
	i, last := t.pos[e], t.list[len(t.list)-1]
	t.list[i], t.pos[last] = last, i
	t.list = t.list[:len(t.list)-1]
	delete(t.pos, e)
}

func (t *edgeTracker) len() int { return len(t.list) }

// single is a one-mutation batch: the delete of a random existing edge, or
// the add of a random absent one, so every mutation takes effect.
func (t *edgeTracker) single(rng *rand.Rand, del bool) []server.MutationSpec {
	if del {
		e := t.list[rng.IntN(len(t.list))]
		t.remove(e)
		return []server.MutationSpec{{Op: "delete", U: int32(e >> 32), V: int32(uint32(e))}}
	}
	for {
		u, v := int32(rng.IntN(int(t.n))), int32(rng.IntN(int(t.n)))
		if _, ok := t.pos[edgeKey(u, v)]; ok || u == v {
			continue
		}
		t.add(edgeKey(u, v))
		return []server.MutationSpec{{Op: "add", U: u, V: v, W: 1}}
	}
}

// csr rebuilds the tracked graph (unit weights, as generated).
func (t *edgeTracker) csr() *graph.CSR {
	var bl graph.Builder
	bl.SetNumVertices(int(t.n))
	for _, e := range t.list {
		bl.AddEdge(int32(e>>32), int32(uint32(e)), 1)
	}
	return bl.MustBuild()
}
