// Package linkspace implements overlapping community detection through the
// link-space transformation of LinkSCAN (Lim et al., ICDE 2014), the
// remaining member of the SCAN family surveyed in the paper's related work:
// instead of clustering vertices, cluster the *edges* of the graph. Each
// edge belongs to exactly one link community, so a vertex naturally belongs
// to every community its incident edges were assigned to — overlapping
// membership, which vertex-partitioning SCAN cannot express (a vertex in
// two communities is at best a hub there).
//
// Construction: the link graph L(G) has one node per edge of G; two link
// nodes are adjacent when their edges share an endpoint, and the connection
// is weighted by the structural similarity of the two non-shared endpoints
// (two links hanging off one vertex belong together when their far ends
// move in the same circles). Any clustering algorithm from this repository
// then runs on L(G); anySCAN is used so even the link-space clustering is
// anytime-capable.
package linkspace

import (
	"fmt"
	"sort"

	"anyscan/internal/cluster"
	"anyscan/internal/core"
	"anyscan/internal/graph"
	"anyscan/internal/simeval"
)

// Options configures the link-space clustering.
type Options struct {
	// Mu and Eps are SCAN parameters applied in the link space.
	Mu  int
	Eps float64
	// Threads for the anySCAN run over the link graph (0 = GOMAXPROCS).
	Threads int
	// MaxLinkDegree caps the links considered per shared endpoint; vertices
	// of degree d contribute d·(d-1)/2 link-graph edges, so hubs explode
	// the transformation. Links through a vertex with degree above the cap
	// connect only to their cap nearest link neighbors. 0 = 64.
	MaxLinkDegree int
}

// Overlap is the result: per-vertex overlapping community memberships.
type Overlap struct {
	// Memberships[v] lists the (sorted, distinct) communities of v — all
	// communities of its incident edges. Empty for vertices whose edges are
	// all link-space noise.
	Memberships [][]int32
	// NumCommunities is the number of distinct link communities.
	NumCommunities int
	// EdgeCommunity[i] is the community of the i-th edge (in the order of
	// Edges), or cluster.NoLabel.
	EdgeCommunity []int32
	// Edges lists the endpoints of each link-graph node.
	Edges [][2]int32
	// LinkGraph is the transformed graph the clustering ran on.
	LinkGraph *graph.CSR
}

// OverlapDegree returns how many communities v belongs to.
func (o *Overlap) OverlapDegree(v int32) int { return len(o.Memberships[v]) }

// Communities runs the link-space transformation and clustering.
func Communities(g *graph.CSR, opt Options) (*Overlap, error) {
	if opt.Mu < 1 {
		return nil, fmt.Errorf("linkspace: Mu must be >= 1, got %d", opt.Mu)
	}
	if !(opt.Eps > 0 && opt.Eps <= 1) {
		return nil, fmt.Errorf("linkspace: Eps must be in (0,1], got %v", opt.Eps)
	}
	if opt.MaxLinkDegree <= 0 {
		opt.MaxLinkDegree = 64
	}

	// Enumerate edges (u < v) and index arcs → link ids.
	n := g.NumVertices()
	var edges [][2]int32
	linkOf := make([]int32, g.NumArcs()) // arc → link id
	rev := g.ReverseEdgeIndex()
	for u := int32(0); u < int32(n); u++ {
		lo, hi := g.NeighborRange(u)
		for e := lo; e < hi; e++ {
			v, _ := g.Arc(e)
			if u < v {
				id := int32(len(edges))
				edges = append(edges, [2]int32{u, v})
				linkOf[e] = id
				linkOf[rev[e]] = id
			}
		}
	}

	// Weight for two links (x,v),(v,y) sharing v: σ(x,y) of the far
	// endpoints, floored to keep weights positive.
	eng := simeval.New(g, 0, simeval.Options{})
	farSim := func(x, y int32) float32 {
		s := eng.Sigma(x, y)
		if s < 0.05 {
			s = 0.05
		}
		return float32(s)
	}

	var b graph.Builder
	b.SetNumVertices(len(edges))
	for v := int32(0); v < int32(n); v++ {
		lo, hi := g.NeighborRange(v)
		d := int(hi - lo)
		if d < 2 {
			continue
		}
		cap := d
		if cap > opt.MaxLinkDegree {
			cap = opt.MaxLinkDegree
		}
		// Pair the (possibly capped) incident links through v.
		for i := 0; i < cap; i++ {
			xi, _ := g.Arc(lo + int64(i))
			for j := i + 1; j < cap; j++ {
				yj, _ := g.Arc(lo + int64(j))
				b.AddEdge(linkOf[lo+int64(i)], linkOf[lo+int64(j)], farSim(xi, yj))
			}
		}
	}
	lg, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("linkspace: building link graph: %w", err)
	}

	// Cluster the link space with anySCAN.
	o := core.DefaultOptions()
	o.Mu, o.Eps, o.Threads = opt.Mu, opt.Eps, opt.Threads
	blk := core.AutoBlock(lg.NumVertices())
	o.Alpha, o.Beta = blk, blk
	res, _, err := core.Cluster(lg, o)
	if err != nil {
		return nil, err
	}

	// Map link communities back to overlapping vertex memberships.
	memberships := make([][]int32, n)
	for id, e := range edges {
		l := res.Labels[id]
		if l == cluster.NoLabel {
			continue
		}
		memberships[e[0]] = append(memberships[e[0]], l)
		memberships[e[1]] = append(memberships[e[1]], l)
	}
	for v := range memberships {
		m := memberships[v]
		sort.Slice(m, func(i, j int) bool { return m[i] < m[j] })
		dedup := m[:0]
		for i, l := range m {
			if i == 0 || l != m[i-1] {
				dedup = append(dedup, l)
			}
		}
		memberships[v] = dedup
	}

	return &Overlap{
		Memberships:    memberships,
		NumCommunities: res.NumClusters,
		EdgeCommunity:  res.Labels,
		Edges:          edges,
		LinkGraph:      lg,
	}, nil
}
