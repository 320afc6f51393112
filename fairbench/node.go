package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"fairrank"
)

// node is one in-process fairrank.Server behind a loopback HTTP listener.
type node struct {
	id   string
	url  string
	srv  *fairrank.Server
	http *http.Server
	done chan struct{} // closed when Serve returns
}

func startNode(cfg fairrank.ClusterConfig) (*node, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	url := "http://" + l.Addr().String()
	if cfg.NodeID != "" {
		cfg.AdvertiseURL = url
	}
	srv, err := fairrank.NewClusterServer(cfg)
	if err != nil {
		l.Close()
		return nil, err
	}
	n := &node{id: cfg.NodeID, url: url, srv: srv, http: &http.Server{Handler: srv.Handler()}, done: make(chan struct{})}
	go func() {
		defer close(n.done)
		_ = n.http.Serve(l) // returns http.ErrServerClosed on stop
	}()
	return n, nil
}

// stop closes the listener and every connection, stops the server's
// background loops, and waits for the serve goroutine to return.
func (n *node) stop() {
	n.http.Close()
	<-n.done
	n.srv.Close()
}

func stopAll(nodes []*node) {
	for _, n := range nodes {
		n.stop()
	}
}

// answer is one suggestion as the HTTP API returns it.
type answer struct {
	Weights     []float64 `json:"weights"`
	Distance    float64   `json:"distance"`
	AlreadyFair bool      `json:"already_fair"`
	Error       string    `json:"error"`
}

func suggestBody(w []float64) []byte {
	b, _ := json.Marshal(map[string][]float64{"weights": w}) // []float64 always marshals
	return b
}

func batchBody(ws [][]float64) []byte {
	b, _ := json.Marshal(map[string][][]float64{"batch": ws})
	return b
}

// client is the benchmark's HTTP client. Every workload runs at most two
// requests at once, so two connections per node suffice and are kept open.
type client struct {
	hc *http.Client
}

func newClient() *client {
	return &client{hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     2,
		MaxIdleConnsPerHost: 2,
		DisableCompression:  true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// send issues one request and reads the whole reply into buf. A transport
// error and a non-2xx status are errors.
func (c *client) send(method, url string, body []byte, buf *bytes.Buffer) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return fmt.Errorf("%s %s: read body: %w", method, url, err)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, strings.TrimSpace(buf.String()))
	}
	return nil
}

// do sends one request and decodes a 2xx JSON reply into out (nil skips it).
func (c *client) do(method, url string, body []byte, out any) error {
	var buf bytes.Buffer
	if err := c.send(method, url, body, &buf); err != nil {
		return err
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(buf.Bytes(), out); err != nil {
		return fmt.Errorf("%s %s: decode: %w", method, url, err)
	}
	return nil
}

func suggestURL(base, id string) string { return base + "/v1/designers/" + id + "/suggest" }

// timedSuggest posts a suggest body into buf and returns the round-trip time.
func (c *client) timedSuggest(base, id string, body []byte, buf *bytes.Buffer) (time.Duration, error) {
	t0 := time.Now()
	err := c.send(http.MethodPost, suggestURL(base, id), body, buf)
	return time.Since(t0), err
}

func (c *client) suggest(base, id string, body []byte) (answer, error) {
	var a answer
	err := c.do(http.MethodPost, suggestURL(base, id), body, &a)
	if err == nil && a.Error != "" {
		err = errors.New(a.Error)
	}
	return a, err
}

// wireAnswer is the JSON shape the server writes for one answer, so the
// expected reply of a query can be encoded ahead of time.
type wireAnswer struct {
	Weights     []float64 `json:"weights,omitempty"`
	Distance    float64   `json:"distance"`
	AlreadyFair bool      `json:"already_fair"`
}

func wireOf(s *fairrank.Suggestion) wireAnswer {
	return wireAnswer{Weights: s.Weights, Distance: s.Distance, AlreadyFair: s.AlreadyFair}
}

// replyBody is the reply the server is expected to send for an answer, or
// for a batch of answers: the JSON encoding plus the encoder's newline.
func replyBody(v any) []byte {
	b, _ := json.Marshal(v) // wire shapes of floats and bools always marshal
	return append(b, '\n')
}

// patchRequest is the body of PATCH /v1/datasets/{id}.
type patchRequest struct {
	Remove []int       `json:"remove,omitempty"`
	Add    []patchItem `json:"add,omitempty"`
}

type patchItem struct {
	Row   []float64         `json:"row"`
	Types map[string]string `json:"types,omitempty"`
}

func (c *client) patch(base, id string, req patchRequest) (fairrank.DatasetPatchResult, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return fairrank.DatasetPatchResult{}, err
	}
	var res fairrank.DatasetPatchResult
	err = c.do(http.MethodPatch, base+"/v1/datasets/"+id, body, &res)
	return res, err
}

func (c *client) createDataset(base, id string, spec fairrank.DatasetSpec) error {
	body, err := json.Marshal(map[string]any{"id": id, "dataset": spec})
	if err != nil {
		return err
	}
	return c.do(http.MethodPost, base+"/v1/datasets", body, nil)
}

func (c *client) createDesigner(base, id string, spec fairrank.DesignerSpec) error {
	body, err := json.Marshal(map[string]any{"id": id, "spec": spec})
	if err != nil {
		return err
	}
	return c.do(http.MethodPost, base+"/v1/designers", body, nil)
}

func (c *client) status(base, id string) (statusInfo, error) {
	var st statusInfo
	err := c.do(http.MethodGet, base+"/v1/designers/"+id+"/status", nil, &st)
	return st, err
}

// statusInfo is the part of GET /v1/designers/{id}/status the benchmark reads.
type statusInfo struct {
	Metrics struct {
		CacheHits         int64   `json:"cache_hits"`
		CacheMisses       int64   `json:"cache_misses"`
		BatchDedupRate    float64 `json:"batch_dedup_rate"`
		PlannedChunkSize  int64   `json:"planned_chunk_size"`
		ResumeHits        int64   `json:"resume_hits"`
		BatchPlannerSlots int64   `json:"batch_planner_slots"`
	} `json:"metrics"`
}

// promSeries scrapes GET /metrics in the Prometheus text format and returns
// the samples of the named families, keyed by the full series text
// (name{labels}).
func (c *client) promSeries(base string, families ...string) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := c.send(http.MethodGet, base+"/metrics?format=prometheus", nil, &buf); err != nil {
		return nil, err
	}
	data := buf.Bytes()
	out := map[string]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		series := line[:sp]
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name = series[:i]
		}
		for _, f := range families {
			if name == f {
				v, err := strconv.ParseFloat(line[sp+1:], 64)
				if err != nil {
					return nil, fmt.Errorf("metrics line %q: %w", line, err)
				}
				out[series] = v
			}
		}
	}
	return out, nil
}

// sumFamily adds every sample of one family whose series text contains sub.
func sumFamily(series map[string]float64, family, sub string) float64 {
	var total float64
	for k, v := range series {
		if (k == family || strings.HasPrefix(k, family+"{")) && strings.Contains(k, sub) {
			total += v
		}
	}
	return total
}

// pollUntil calls cond every few milliseconds until it reports true, returns
// an error, or the deadline passes.
func pollUntil(ctx context.Context, what string, cond func() (bool, error)) error {
	for {
		ok, err := cond()
		if err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
		if ok {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s: %w", what, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}
