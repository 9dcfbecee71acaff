package server

import (
	"fmt"
	"math"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// This file centralizes query-parameter parsing: the read parameters of GET
// /v1/query and GET /v1/local, and ?timeout_ms= on every route with a
// deadline. Every malformed value must become a structured 400 with a
// message naming the parameter and the accepted form — never a silent
// default and never a panic further down.

// parseMuParam extracts the required mu parameter: a base-10 integer >= 1.
func parseMuParam(q url.Values) (int, error) {
	raw := q.Get("mu")
	if raw == "" {
		return 0, fmt.Errorf("missing mu (want mu=<int> >= 1)")
	}
	mu, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("bad mu %q (want an integer >= 1)", raw)
	}
	if mu < 1 {
		return 0, fmt.Errorf("mu must be >= 1, got %d", mu)
	}
	return mu, nil
}

// parseEpsParam parses one eps value: a finite float in (0, 1].
func parseEpsParam(raw string) (float64, error) {
	eps, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, fmt.Errorf("bad eps %q (want a float in (0,1])", raw)
	}
	if math.IsNaN(eps) || math.IsInf(eps, 0) || !(eps > 0 && eps <= 1) {
		return 0, fmt.Errorf("eps must be in (0,1], got %v", eps)
	}
	return eps, nil
}

// parseEpsList parses a comma-separated eps list (empty parts skipped); an
// empty raw string yields a nil list (the profile form then probes its own
// thresholds).
func parseEpsList(raw string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(raw, ",") {
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		v, err := parseEpsParam(part)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// parseApproxParam extracts the optional approx accuracy dial: a finite
// float in [0, 1), where 0 (or absence) means exact. The upper bound is
// exclusive — delta is a failure probability, and 1 would promise nothing.
func parseApproxParam(q url.Values) (float64, error) {
	raw := q.Get("approx")
	if raw == "" {
		return 0, nil
	}
	a, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, fmt.Errorf("bad approx %q (want a float in [0,1))", raw)
	}
	if math.IsNaN(a) || a < 0 || a >= 1 {
		return 0, fmt.Errorf("approx must be in [0,1), got %v", a)
	}
	return a, nil
}

// parseSeedParam extracts the required seed vertex for /v1/local: a base-10
// integer that fits int32 (range vs the graph is checked by the caller,
// which knows the vertex count).
func parseSeedParam(q url.Values) (int32, error) {
	raw := q.Get("seed")
	if raw == "" {
		return 0, fmt.Errorf("missing seed (want seed=<vertex>)")
	}
	v, err := strconv.ParseInt(raw, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad seed %q (want a vertex id)", raw)
	}
	return int32(v), nil
}

// parseMinEpochParam extracts the optional ?min_epoch= read-your-writes bound:
// a base-10 integer >= 0 (0 when absent, meaning no bound).
func parseMinEpochParam(q url.Values) (int64, error) {
	raw := q.Get("min_epoch")
	if raw == "" {
		return 0, nil
	}
	v, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad min_epoch %q (want an integer >= 0)", raw)
	}
	return v, nil
}

// parseTimeoutParam extracts the optional ?timeout_ms= deadline: a base-10
// integer >= 1 of milliseconds (0 when absent). Values beyond the largest
// time.Duration saturate rather than wrap negative.
func parseTimeoutParam(q url.Values) (time.Duration, error) {
	raw := q.Get("timeout_ms")
	if raw == "" {
		return 0, nil
	}
	ms, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || ms < 1 {
		return 0, fmt.Errorf("bad timeout_ms %q (want an integer >= 1)", raw)
	}
	if ms > int64(math.MaxInt64/time.Millisecond) {
		return math.MaxInt64, nil
	}
	return time.Duration(ms) * time.Millisecond, nil
}
