// Package datasets is the registry of synthetic stand-ins for the paper's
// evaluation datasets (Tables I and II). The original experiments use SNAP /
// UF Sparse / LAW graphs with 10⁵–5·10⁶ vertices; this repository cannot
// ship those, so each dataset is replaced by a seeded generator tuned to the
// same *shape* — average degree and clustering coefficient profile — at a
// reduced scale (see DESIGN.md §3). All loads are deterministic.
//
// Real-graph stand-ins (Table I):
//
//	GR01L  ego-Gplus-like         dense ego circles, d̄≈120, c≈0.45
//	GR02L  soc-LiveJournal1-like  sparse power-law, d̄≈14, c≈0.27
//	GR03L  soc-Pokect-like        sparse power-law, d̄≈19, c≈0.11
//	GR04L  com-Orkut-like         medium power-law, d̄≈38, c≈0.17
//	GR05L  kron_g500-like         R-MAT, d̄≈87, skewed degrees
//
// LFR stand-ins (Table II): LFR01L..LFR05L sweep the average degree at fixed
// mixing; LFR11L..LFR15L sweep the clustering coefficient at fixed degree.
package datasets

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"anyscan/internal/gen"
	"anyscan/internal/graph"
)

// Info describes a registered dataset.
type Info struct {
	Name    string
	Paper   string // the dataset it stands in for
	Profile string // one-line shape description
}

// generatorFn builds the dataset at the given scale factor (1.0 = default).
// Generation failures are returned, not panicked, so a missing or
// misconfigured dataset fails a benchmark run cleanly.
type generatorFn func(scale float64) (*graph.CSR, error)

type entry struct {
	info Info
	gen  generatorFn
}

var registry = map[string]entry{}
var order []string

func register(name, paper, profile string, g generatorFn) {
	registry[name] = entry{Info{name, paper, profile}, g}
	order = append(order, name)
}

func scaled(n int, scale float64) int {
	v := int(float64(n) * scale)
	if v < 64 {
		v = 64
	}
	return v
}

func init() {
	// --- Table I stand-ins ---
	register("GR01L", "ego-Gplus (108k V, 13.7M E, d̄=127.1, c=0.490)",
		"dense overlapping ego circles", func(s float64) (*graph.CSR, error) {
			n := scaled(4096, s)
			regions := n / 400
			if regions < 2 {
				regions = 2
			}
			return gen.SocialCircles(gen.SocialCirclesConfig{
				N:             n,
				Regions:       regions,
				CrossP:        0.06,
				CirclesPerV:   4.2,
				CircleSize:    48,
				CircleSizeJit: 24,
				IntraP:        0.76,
				Seed:          101,
			}), nil
		})
	register("GR02L", "soc-LiveJournal1 (4.85M V, 69.0M E, d̄=14.2, c=0.274)",
		"sparse, small dense communities, mild mixing", func(s float64) (*graph.CSR, error) {
			cfg := gen.DefaultLFR(scaled(32768, s), 14.2, 102)
			cfg.MaxDegree = 120
			cfg.Mixing = 0.25
			cfg.MinCommunity, cfg.MaxCommunity = 12, 40
			g, _, err := gen.LFR(cfg)
			if err != nil {
				return nil, fmt.Errorf("datasets: GR02L: %w", err)
			}
			return g, nil
		})
	register("GR03L", "soc-Pokec (1.63M V, 30.6M E, d̄=18.8, c=0.109)",
		"sparse communities diluted by heavy mixing", func(s float64) (*graph.CSR, error) {
			cfg := gen.DefaultLFR(scaled(20480, s), 18.8, 103)
			cfg.MaxDegree = 140
			cfg.Mixing = 0.55
			cfg.MixingJitter = 0.45
			cfg.MinCommunity, cfg.MaxCommunity = 14, 44
			g, _, err := gen.LFR(cfg)
			if err != nil {
				return nil, fmt.Errorf("datasets: GR03L: %w", err)
			}
			return g, nil
		})
	register("GR04L", "com-Orkut (3.07M V, 117.2M E, d̄=38.1, c=0.167)",
		"medium-density communities, moderate mixing", func(s float64) (*graph.CSR, error) {
			cfg := gen.DefaultLFR(scaled(10240, s), 38.1, 104)
			cfg.MaxDegree = 200
			cfg.Mixing = 0.45
			cfg.MixingJitter = 0.42
			cfg.MinCommunity, cfg.MaxCommunity = 30, 90
			g, _, err := gen.LFR(cfg)
			if err != nil {
				return nil, fmt.Errorf("datasets: GR04L: %w", err)
			}
			return g, nil
		})
	register("GR05L", "kron_g500-logn21 (2.10M V, 182.1M E, d̄=86.8, c=0.165)",
		"R-MAT/Kronecker, heavily skewed degrees", func(s float64) (*graph.CSR, error) {
			n := scaled(8192, s)
			scale := 0
			for 1<<scale < n {
				scale++
			}
			m := int64(n) * 43 // d̄ ≈ 86
			return gen.RMAT(scale, m, 0.45, 0.22, 0.22, gen.WeightConfig{}, 105), nil
		})

	// --- Approximate-σ stress dataset (not in the paper's tables, hence no
	// GR prefix: it must stay out of RealNames). Planted partition with
	// 640-vertex communities at pIn=0.85, so every vertex's degree (~543)
	// clears the σ kernel's hub threshold and the MinHash sketch path carries
	// essentially the whole σ pass. Scale multiplies the community COUNT, not
	// the community size, so the hub property holds at any scale. ---
	register("HUB01", "synthetic hub stress (planted partition, d̄≈548)",
		"uniformly hub-degree planted communities", func(s float64) (*graph.CSR, error) {
			k := int(math.Round(4 * s))
			if k < 1 {
				k = 1
			}
			pOut := 0.0
			if k > 1 {
				pOut = 0.0025 // a few cross-community edges per vertex
			}
			return gen.PlantedPartition(k*640, k, 0.85, pOut, gen.WeightConfig{}, 106), nil
		})

	// --- Table II stand-ins: degree sweep (cc held near the LFR default) ---
	lfrDeg := func(id int, avg float64) {
		name := fmt.Sprintf("LFR0%dL", id)
		register(name, fmt.Sprintf("LFR0%d (1M V, d̄=%.1f, c≈0.40)", id, avg),
			"LFR benchmark, degree sweep", func(s float64) (*graph.CSR, error) {
				cfg := gen.DefaultLFR(scaled(20000, s), avg, int64(200+id))
				g, _, err := gen.LFR(cfg)
				if err != nil {
					return nil, fmt.Errorf("datasets: %s: %w", name, err)
				}
				return g, nil
			})
	}
	lfrDeg(1, 44.567)
	lfrDeg(2, 50.129)
	lfrDeg(3, 55.199)
	lfrDeg(4, 59.874)
	lfrDeg(5, 65.055)

	// --- Table II stand-ins: clustering-coefficient sweep at d̄≈50 ---
	lfrCC := func(id int, target float64) {
		name := fmt.Sprintf("LFR1%dL", id)
		register(name, fmt.Sprintf("LFR1%d (1M V, d̄=50.1, c≈%.1f)", id, target),
			"LFR benchmark, clustering-coefficient sweep", func(s float64) (*graph.CSR, error) {
				cfg := gen.DefaultLFR(scaled(12000, s), 50.129, int64(300+id))
				g, _, err := gen.LFR(cfg)
				if err != nil {
					return nil, fmt.Errorf("datasets: %s: %w", name, err)
				}
				adj, _ := gen.AdjustCC(g, target, 0.02, 6_000_000, gen.WeightConfig{}, int64(400+id))
				return adj, nil
			})
	}
	lfrCC(1, 0.20)
	lfrCC(2, 0.30)
	lfrCC(3, 0.42)
	lfrCC(4, 0.50)
	lfrCC(5, 0.60)
}

// Names returns all dataset names in registration order.
func Names() []string {
	out := make([]string, len(order))
	copy(out, order)
	return out
}

// RealNames returns the Table I stand-ins (GR01L..GR05L).
func RealNames() []string { return filter("GR") }

// LFRDegreeNames returns the Table II degree-sweep stand-ins.
func LFRDegreeNames() []string { return filter("LFR0") }

// LFRCCNames returns the Table II cc-sweep stand-ins.
func LFRCCNames() []string { return filter("LFR1") }

func filter(prefix string) []string {
	var out []string
	for _, n := range order {
		if len(n) >= len(prefix) && n[:len(prefix)] == prefix {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// Describe returns the registry info for a dataset name.
func Describe(name string) (Info, error) {
	e, ok := registry[name]
	if !ok {
		return Info{}, fmt.Errorf("datasets: unknown dataset %q (known: %v)", name, Names())
	}
	return e.info, nil
}

var (
	cacheMu sync.Mutex
	cache   = map[string]*graph.CSR{}
)

// Load builds (or returns the cached) dataset at the given scale factor
// (1.0 = the default reduced scale; smaller values shrink further for quick
// tests). Loads are memoized per (name, scale) for the process lifetime,
// for the harness and the CLIs, which reuse graphs.
func Load(name string, scale float64) (*graph.CSR, error) {
	if scale <= 0 {
		scale = 1
	}
	key := fmt.Sprintf("%s@%g", name, scale)
	cacheMu.Lock()
	g, hit := cache[key]
	cacheMu.Unlock()
	if hit {
		return g, nil
	}
	g, err := Generate(name, scale)
	if err != nil {
		return nil, err
	}
	cacheMu.Lock()
	cache[key] = g
	cacheMu.Unlock()
	return g, nil
}

// Generate builds the dataset at the given scale factor as Load does, but
// keeps no memo: the graph belongs to the caller and is collectable once the
// caller drops it. A long-lived owner that evicts its graphs, such as
// anyscand's registry, generates through it.
func Generate(name string, scale float64) (*graph.CSR, error) {
	e, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("datasets: unknown dataset %q (known: %v)", name, Names())
	}
	if scale <= 0 {
		scale = 1
	}
	return e.gen(scale)
}

// MustLoad is Load or panic; for benchmarks and examples.
func MustLoad(name string, scale float64) *graph.CSR {
	g, err := Load(name, scale)
	if err != nil {
		panic(err)
	}
	return g
}
