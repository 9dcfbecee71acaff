package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Client is a typed HTTP client for the anyscand API, used by the CLI verbs
// and by tests. Every call takes a context that bounds the whole exchange,
// including retries; transient failures (429/503, transport errors) are
// retried with exponential backoff and jitter, honoring the server's
// Retry-After hint, behind a circuit breaker that stops hammering a server
// that keeps failing.
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:8080".
	BaseURL string
	// HTTP is the underlying client (nil → http.DefaultClient).
	HTTP *http.Client
	// Retry configures transient-failure retries (zero fields → defaults).
	Retry RetryPolicy

	breaker circuitBreaker
}

// RetryPolicy bounds the client's transient-failure retries.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per call (0 → 4, 1 → no
	// retries).
	MaxAttempts int
	// BaseDelay is the first backoff step (0 → 50ms); each retry doubles it.
	BaseDelay time.Duration
	// MaxDelay caps the backoff (0 → 2s). A larger server Retry-After hint
	// overrides the cap — the server knows its own load better.
	MaxDelay time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay == 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay == 0 {
		p.MaxDelay = 2 * time.Second
	}
	return p
}

// NewClient returns a client for the given base URL with default retry and
// circuit-breaker behavior.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: baseURL}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// APIError is a non-2xx response from the server, carrying enough for the
// retry loop (and callers) to act on it.
type APIError struct {
	Status     int
	RetryAfter time.Duration // parsed Retry-After, 0 when absent
	Message    string        // server-provided error text, may be empty
}

func (e *APIError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("%s: %s", http.StatusText(e.Status), e.Message)
	}
	return http.StatusText(e.Status)
}

// ErrCircuitOpen is returned without touching the network while the client's
// circuit breaker is open after repeated transient failures.
var ErrCircuitOpen = errors.New("anyscand client: circuit open (server kept failing; backing off)")

// circuitBreaker trips open after `threshold` consecutive transient failures
// and fast-fails every call for `cooldown`; the first call afterwards goes
// through as a half-open probe whose outcome closes or re-opens the circuit.
type circuitBreaker struct {
	mu        sync.Mutex
	failures  int
	openUntil time.Time
	probing   bool
}

const (
	breakerThreshold = 8
	breakerCooldown  = 5 * time.Second
)

// allow reports whether a call may proceed. While open it admits exactly one
// half-open probe per cooldown window.
func (b *circuitBreaker) allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.failures < breakerThreshold {
		return true
	}
	if now.Before(b.openUntil) || b.probing {
		return false
	}
	b.probing = true
	return true
}

func (b *circuitBreaker) record(now time.Time, transientFailure bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	if !transientFailure {
		b.failures = 0
		return
	}
	b.failures++
	if b.failures >= breakerThreshold {
		b.openUntil = now.Add(breakerCooldown)
	}
}

// do issues one logical request — retrying transient failures — and decodes
// the JSON response into out (skipped when out is nil). Non-2xx responses
// become *APIError; transport failures are returned as-is after retries.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var data []byte
	if body != nil {
		var err error
		if data, err = json.Marshal(body); err != nil {
			return err
		}
	}
	policy := c.Retry.withDefaults()
	var lastErr error
	for attempt := 0; attempt < policy.MaxAttempts; attempt++ {
		if attempt > 0 {
			if err := sleepCtx(ctx, backoffDelay(policy, attempt, lastErr)); err != nil {
				return lastErr
			}
		}
		if !c.breaker.allow(time.Now()) {
			return fmt.Errorf("%s %s: %w", method, path, ErrCircuitOpen)
		}
		err := c.doOnce(ctx, method, path, data, out)
		c.breaker.record(time.Now(), err != nil && retryable(method, err))
		if err == nil {
			return nil
		}
		lastErr = fmt.Errorf("%s %s: %w", method, path, err)
		if !retryable(method, err) || ctx.Err() != nil {
			return lastErr
		}
	}
	return lastErr
}

func (c *Client) doOnce(ctx context.Context, method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		apiErr := &APIError{Status: resp.StatusCode}
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			apiErr.RetryAfter = time.Duration(secs) * time.Second
		}
		var e ErrorResponse
		if json.NewDecoder(resp.Body).Decode(&e) == nil {
			apiErr.Message = e.Error
		}
		return apiErr
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// retryable classifies an error for the retry loop. Overload responses
// (429/503) are retried for every method — the server refused before doing
// work, so a retry cannot double-execute. Transport errors and gateway 5xxs
// are retried only for idempotent methods: a lost response to a POST may mean
// the work happened.
func retryable(method string, err error) bool {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		switch apiErr.Status {
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			return true
		case http.StatusBadGateway, http.StatusGatewayTimeout:
			return method == http.MethodGet || method == http.MethodDelete
		}
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	// Transport-level failure (connection reset, refused, EOF mid-response).
	return method == http.MethodGet || method == http.MethodDelete
}

// backoffDelay picks the sleep before retry `attempt` (1-based): exponential
// from BaseDelay with full jitter, capped at MaxDelay — unless the server's
// Retry-After asks for longer.
func backoffDelay(p RetryPolicy, attempt int, lastErr error) time.Duration {
	d := p.BaseDelay << (attempt - 1)
	if d > p.MaxDelay || d <= 0 {
		d = p.MaxDelay
	}
	d = d/2 + time.Duration(rand.Int64N(int64(d/2)+1)) // jitter in [d/2, d]
	var apiErr *APIError
	if errors.As(lastErr, &apiErr) && apiErr.RetryAfter > d {
		d = apiErr.RetryAfter
	}
	return d
}

// sleepCtx sleeps for d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// LoadGraph loads a graph into the server's registry.
func (c *Client) LoadGraph(ctx context.Context, req LoadGraphRequest) (GraphInfo, error) {
	var info GraphInfo
	err := c.do(ctx, http.MethodPost, "/v1/graphs", req, &info)
	return info, err
}

// ListGraphs returns the loaded graphs.
func (c *Client) ListGraphs(ctx context.Context) ([]GraphInfo, error) {
	var out []GraphInfo
	err := c.do(ctx, http.MethodGet, "/v1/graphs", nil, &out)
	return out, err
}

// EvictGraph removes a graph from the registry.
func (c *Client) EvictGraph(ctx context.Context, name string) error {
	return c.do(ctx, http.MethodDelete, "/v1/graphs/"+url.PathEscape(name), nil, nil)
}

// SubmitJob submits an async clustering job.
func (c *Client) SubmitJob(ctx context.Context, spec JobSpec) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/jobs", spec, &st)
	return st, err
}

// ListJobs returns the status of every job.
func (c *Client) ListJobs(ctx context.Context) ([]JobStatus, error) {
	var out []JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &out)
	return out, err
}

// JobStatus returns one job's status.
func (c *Client) JobStatus(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, &st)
	return st, err
}

// JobSnapshot fetches the anytime snapshot (the best-so-far clustering).
func (c *Client) JobSnapshot(ctx context.Context, id string, withAssignments bool) (SnapshotResponse, error) {
	var snap SnapshotResponse
	path := "/v1/jobs/" + url.PathEscape(id) + "/snapshot"
	if withAssignments {
		path += "?assignments=1"
	}
	err := c.do(ctx, http.MethodGet, path, nil, &snap)
	return snap, err
}

// JobResult fetches the final clustering of a done job.
func (c *Client) JobResult(ctx context.Context, id string, withAssignments bool) (SnapshotResponse, error) {
	var snap SnapshotResponse
	path := "/v1/jobs/" + url.PathEscape(id) + "/result"
	if withAssignments {
		path += "?assignments=1"
	}
	err := c.do(ctx, http.MethodGet, path, nil, &snap)
	return snap, err
}

// PauseJob, ResumeJob, CancelJob drive the job lifecycle.
func (c *Client) PauseJob(ctx context.Context, id string) (JobStatus, error) {
	return c.jobVerb(ctx, id, "pause")
}
func (c *Client) ResumeJob(ctx context.Context, id string) (JobStatus, error) {
	return c.jobVerb(ctx, id, "resume")
}
func (c *Client) CancelJob(ctx context.Context, id string) (JobStatus, error) {
	return c.jobVerb(ctx, id, "cancel")
}

func (c *Client) jobVerb(ctx context.Context, id, verb string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/jobs/"+url.PathEscape(id)+"/"+verb, nil, &st)
	return st, err
}

// WaitJob polls until the job reaches a terminal state or ctx is done,
// returning the last observed status. Polling backs off exponentially (10ms
// up to ~500ms with jitter) instead of spinning at a fixed interval, so a
// long job costs a handful of requests per second at most.
func (c *Client) WaitJob(ctx context.Context, id string) (JobStatus, error) {
	var last JobStatus
	delay := 10 * time.Millisecond
	const maxPoll = 500 * time.Millisecond
	for {
		st, err := c.JobStatus(ctx, id)
		if err != nil {
			return last, err
		}
		last = st
		if st.State.Terminal() {
			return st, nil
		}
		jittered := delay + time.Duration(rand.Int64N(int64(delay/4)+1))
		if err := sleepCtx(ctx, jittered); err != nil {
			return last, fmt.Errorf("job %s still %s: %w", id, st.State, err)
		}
		if delay *= 2; delay > maxPoll {
			delay = maxPoll
		}
	}
}

// Query runs an interactive clustering query against GET /v1/query and
// returns the exact clustering at (μ, ε), served from the graph's query
// index (or its current live epoch once the graph has been mutated).
func (c *Client) Query(ctx context.Context, graphName string, mu int, eps float64, withAssignments bool) (QueryResponse, error) {
	return c.QueryEpoch(ctx, graphName, mu, eps, 0, withAssignments)
}

// QueryEpoch is Query with a read-your-writes bound: with minEpoch > 0 the
// server answers from a live epoch whose sequence number is at least
// minEpoch, waiting (up to the request deadline) for a writer to publish it.
// Pass the Epoch token a Mutate call returned to observe that write.
func (c *Client) QueryEpoch(ctx context.Context, graphName string, mu int, eps float64, minEpoch int64, withAssignments bool) (QueryResponse, error) {
	return c.QueryApproxEpoch(ctx, graphName, mu, eps, 0, minEpoch, withAssignments)
}

// QueryApprox is Query with an accuracy dial: approx in (0,1) lets the
// server answer from a sketch-based approximate index built at that δ —
// typically much cheaper to build on first touch — where only edges whose
// similarity is provably within the sketch error band of ε can be
// misclassified, each with probability at most δ. approx 0 is exact. The
// response's Approx field reports the dial the answer was actually computed
// at (0 when the server fell back to exact serving).
func (c *Client) QueryApprox(ctx context.Context, graphName string, mu int, eps, approx float64, withAssignments bool) (QueryResponse, error) {
	return c.QueryApproxEpoch(ctx, graphName, mu, eps, approx, 0, withAssignments)
}

// QueryApproxEpoch combines QueryApprox and QueryEpoch.
func (c *Client) QueryApproxEpoch(ctx context.Context, graphName string, mu int, eps, approx float64, minEpoch int64, withAssignments bool) (QueryResponse, error) {
	var resp QueryResponse
	q := url.Values{}
	q.Set("graph", graphName)
	q.Set("mu", strconv.Itoa(mu))
	q.Set("eps", strconv.FormatFloat(eps, 'g', -1, 64))
	if approx > 0 {
		q.Set("approx", strconv.FormatFloat(approx, 'g', -1, 64))
	}
	if minEpoch > 0 {
		q.Set("min_epoch", strconv.FormatInt(minEpoch, 10))
	}
	if withAssignments {
		q.Set("assignments", "1")
	}
	err := c.do(ctx, http.MethodGet, "/v1/query?"+q.Encode(), nil, &resp)
	return resp, err
}

// Local runs a seed-centered community query against GET /v1/local: which
// community does seed belong to at (μ, ε)? The response carries the exact
// membership (identical to the seed's cluster under a full Query) computed
// in output-proportional time on the server.
func (c *Client) Local(ctx context.Context, graphName string, seed int32, mu int, eps float64, withMembers bool) (LocalResponse, error) {
	return c.LocalEpoch(ctx, graphName, seed, mu, eps, 0, withMembers)
}

// LocalEpoch is Local with a read-your-writes bound: with minEpoch > 0 the
// server answers from a live epoch at least that new, waiting (up to the
// request deadline) for a writer to publish it.
func (c *Client) LocalEpoch(ctx context.Context, graphName string, seed int32, mu int, eps float64, minEpoch int64, withMembers bool) (LocalResponse, error) {
	var resp LocalResponse
	q := url.Values{}
	q.Set("graph", graphName)
	q.Set("seed", strconv.FormatInt(int64(seed), 10))
	q.Set("mu", strconv.Itoa(mu))
	q.Set("eps", strconv.FormatFloat(eps, 'g', -1, 64))
	if minEpoch > 0 {
		q.Set("min_epoch", strconv.FormatInt(minEpoch, 10))
	}
	if !withMembers {
		q.Set("members", "0")
	}
	err := c.do(ctx, http.MethodGet, "/v1/local?"+q.Encode(), nil, &resp)
	return resp, err
}

// Mutate applies one batch of edge mutations to a graph via POST
// /v1/graphs/{name}/edges, returning the epoch token the batch published.
func (c *Client) Mutate(ctx context.Context, graphName string, muts []MutationSpec) (MutateResponse, error) {
	var resp MutateResponse
	err := c.do(ctx, http.MethodPost, "/v1/graphs/"+url.PathEscape(graphName)+"/edges",
		MutateRequest{Mutations: muts}, &resp)
	return resp, err
}

// QueryProfile evaluates the clustering profile across ε values via GET
// /v1/query. With an empty eps slice the server probes up to limit (0 →
// server default) interesting thresholds itself.
func (c *Client) QueryProfile(ctx context.Context, graphName string, mu int, eps []float64, limit int) (QueryResponse, error) {
	var resp QueryResponse
	q := url.Values{}
	q.Set("graph", graphName)
	q.Set("mu", strconv.Itoa(mu))
	if len(eps) > 0 {
		parts := make([]string, len(eps))
		for i, v := range eps {
			parts[i] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		q.Set("eps", strings.Join(parts, ","))
	}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	err := c.do(ctx, http.MethodGet, "/v1/query?"+q.Encode(), nil, &resp)
	return resp, err
}

// Healthz reports whether the process is alive (liveness; succeeds even
// while draining).
func (c *Client) Healthz(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/v1/healthz", nil, nil)
}

// Readyz reports whether the server is ready for new traffic (fails while
// draining or while the admission queue is saturated).
func (c *Client) Readyz(ctx context.Context) error {
	return c.doOnce(ctx, http.MethodGet, "/v1/readyz", nil, nil)
}

// MetricsText fetches the raw Prometheus exposition.
func (c *Client) MetricsText(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return string(data), err
}
