// Streaming: maintain a SCAN clustering while the graph changes — the
// dynamic social network scenario. New friendships arrive, old ones decay
// and disappear, and after every batch the exact clustering at any (μ, ε)
// is available without re-running a batch algorithm: a batch recomputes
// only the similarities around its endpoints and publishes a new epoch of
// the query index.
//
//	go run ./examples/streaming
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"anyscan"
)

func main() {
	// Start from a community graph...
	cfg := anyscan.DefaultLFR(8000, 16, 99)
	g, _, err := anyscan.GenerateLFR(cfg)
	if err != nil {
		log.Fatal(err)
	}
	const mu, eps = 4, 0.4
	lg := anyscan.NewLiveGraph(anyscan.NewIndex(g, 0))
	ep := lg.Epoch()
	res, err := ep.Query(mu, eps)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("t=0: %d vertices, %d edges, %d communities\n",
		ep.NumVertices(), ep.NumEdges(), res.NumClusters)

	// ...then stream batches of churn: 70% new ties (biased to close
	// triangles, as real social ties are), 30% dropped ties.
	rng := rand.New(rand.NewSource(7))
	n := int32(ep.NumVertices())
	for batch := 1; batch <= 5; batch++ {
		const batchSize = 2000
		muts := make([]anyscan.Mutation, 0, batchSize)
		for len(muts) < batchSize {
			u := rng.Int31n(n)
			m := anyscan.Mutation{Op: anyscan.OpAdd, U: u, W: 1}
			if rng.Float64() < 0.7 {
				m.V = closure(ep, u, rng)
			} else {
				m.Op, m.V = anyscan.OpDelete, walk(ep, u, rng)
			}
			if m.U == m.V {
				continue // a self loop would reject the whole batch
			}
			muts = append(muts, m)
		}

		start := time.Now()
		var st anyscan.ApplyStats
		ep, st, err = lg.Apply(muts)
		if err != nil {
			log.Fatal(err)
		}
		apply := time.Since(start)

		qStart := time.Now()
		res, err = ep.Query(mu, eps)
		if err != nil {
			log.Fatal(err)
		}
		q := time.Since(qStart)
		c := res.RoleCounts()
		fmt.Printf("t=%d: %7d edges | %4d communities, %5d cores, %5d noise | "+
			"%d σ re-evals, apply %v + query %v\n",
			batch, ep.NumEdges(), res.NumClusters, c.Cores, c.Noise(),
			st.SigmaRecomputed, apply.Round(time.Millisecond), q.Round(time.Millisecond))
	}

	// Compare against clustering the final graph from scratch.
	final, err := ep.ToCSR()
	if err != nil {
		log.Fatal(err)
	}
	opts := anyscan.DefaultOptions()
	opts.Mu, opts.Eps = mu, eps
	opts.Alpha, opts.Beta = 512, 512
	start := time.Now()
	batchRes, _, err := anyscan.Cluster(final, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfrom-scratch anySCAN on the final graph: %v (NMI vs maintained: %.4f)\n",
		time.Since(start).Round(time.Millisecond), anyscan.NMI(batchRes, res))
}

// closure picks a triadic-closure target for u: a random two-hop neighbor,
// or a random vertex when the walk returns to u (or u is isolated).
func closure(ep *anyscan.LiveEpoch, u int32, rng *rand.Rand) int32 {
	if w := walk(ep, walk(ep, u, rng), rng); w != u {
		return w
	}
	return rng.Int31n(int32(ep.NumVertices()))
}

// walk returns a uniformly random neighbor of u (or u itself if isolated).
func walk(ep *anyscan.LiveEpoch, u int32, rng *rand.Rand) int32 {
	ids, _ := ep.NeighborOrder(u)
	if len(ids) == 0 {
		return u
	}
	return ids[rng.Intn(len(ids))]
}
