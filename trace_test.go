package fairrank

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"fairrank/internal/obs"
)

// tracesDoc mirrors the GET /debug/traces response body.
type tracesDoc struct {
	NodeID        string      `json:"node_id"`
	TotalRecorded uint64      `json:"total_recorded"`
	Traces        []obs.Trace `json:"traces"`
}

func getTraces(t *testing.T, url, id string) tracesDoc {
	t.Helper()
	resp, err := http.Get(url + "/debug/traces?id=" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc tracesDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// A Suggest that lands on the non-owner and is forwarded must produce ONE
// trace under the caller's id whose spans cover the full path — decode and
// forward on the entry node plus the owner's stages merged back through the
// X-Fairrank-Spans trailer — with both node names present.
func TestTracePropagatesAcrossForwardedSuggest(t *testing.T) {
	a := startGossipNode(t, "node-a", nil, 60*time.Millisecond)
	b := startGossipNode(t, "node-b", nil, 60*time.Millisecond)
	if err := b.srv.JoinCluster(t.Context(), a.url); err != nil {
		t.Fatal(err)
	}

	gossipDatasets(t, a.srv)
	id := nameOwnedBy(t, "trace-2d", "node-b", "node-a", "node-b")
	spec := DesignerSpec{
		Dataset: "biased",
		Oracle:  OracleSpec{Kind: "min_share", Attr: "group", Group: "protected", TopFrac: 0.25, Share: 0.3},
		Config:  ConfigSpec{Mode: "2d"},
	}
	if err := a.srv.CreateDesigner(id, spec); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, "designer servable via node-a", func() bool {
		var got suggestionJSON
		return postJSON(t, a.url+"/v1/designers/"+id+"/suggest", suggestRequest{Weights: []float64{0.5, 0.5}}, &got) == http.StatusOK
	})
	// The warm-up request above may or may not have been forwarded (node-b
	// could still be activating); now that the path answers 200, send the
	// traced request.
	waitFor(t, 10*time.Second, "suggest forwarded to the owner", func() bool {
		return !a.srv.router.OwnedLocally(id)
	})

	const traceID = "e2e-trace-0042"
	// Weights the warm-up never asked: the owner must miss its memo cache and
	// run the kernel, so the merged trace shows the full stage ladder.
	body, err := json.Marshal(suggestRequest{Weights: []float64{0.7, 0.3}})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequestWithContext(context.Background(), "POST",
		a.url+"/v1/designers/"+id+"/suggest", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceHeader, traceID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for the trailer
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced suggest: HTTP %d", resp.StatusCode)
	}

	doc := getTraces(t, a.url, traceID)
	if doc.NodeID != "node-a" {
		t.Fatalf("asked node-a for traces, got %q", doc.NodeID)
	}
	if len(doc.Traces) != 1 {
		t.Fatalf("want exactly 1 trace under %s at the entry node, got %d", traceID, len(doc.Traces))
	}
	tr := doc.Traces[0]
	if tr.Target != id {
		t.Fatalf("trace target = %q, want %q", tr.Target, id)
	}
	stages := map[string]bool{}
	nodes := map[string]bool{}
	for _, sp := range tr.Spans {
		stages[sp.Name] = true
		nodes[sp.Node] = true
	}
	for _, want := range []string{"decode", "forward", "cache", "kernel", "encode"} {
		if !stages[want] {
			t.Fatalf("trace misses stage %q; spans: %+v", want, tr.Spans)
		}
	}
	if !nodes["node-a"] || !nodes["node-b"] {
		t.Fatalf("trace must span both hops, saw nodes %v; spans: %+v", nodes, tr.Spans)
	}
	// The owner's hop recorded the same trace id on its own ring too.
	if remote := getTraces(t, b.url, traceID); len(remote.Traces) != 1 {
		t.Fatalf("owner node-b recorded %d traces under %s, want 1", len(remote.Traces), traceID)
	}
}

// /healthz must flip to 503 {"status":"draining"} the moment a drain begins,
// so load balancers and peer health probes stop routing fresh work there.
func TestHealthzReportsDraining(t *testing.T) {
	a := startGossipNode(t, "node-a", nil, 0)
	b := startGossipNode(t, "node-b", nil, 0)
	if err := b.srv.JoinCluster(t.Context(), a.url); err != nil {
		t.Fatal(err)
	}

	status := func(url string) (int, string) {
		resp, err := http.Get(url + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body["status"]
	}

	if code, st := status(b.url); code != http.StatusOK || st != "ok" {
		t.Fatalf("pre-drain healthz: %d %q", code, st)
	}
	var out map[string]any
	if code := postJSON(t, b.url+"/cluster/leave", leaveRequest{ID: "node-b"}, &out); code != http.StatusOK {
		t.Fatalf("leave: HTTP %d (%v)", code, out)
	}
	if code, st := status(b.url); code != http.StatusServiceUnavailable || st != "draining" {
		t.Fatalf("post-drain healthz: %d %q, want 503 draining", code, st)
	}
	// The node that stayed keeps answering ok.
	if code, st := status(a.url); code != http.StatusOK || st != "ok" {
		t.Fatalf("surviving node healthz: %d %q", code, st)
	}
}

// The Prometheus exposition must carry the designer serving series, the
// cumulative latency histogram with a +Inf bar, the histogram-derived
// quantile gauges, and the cluster series — and the default (plain curl)
// /metrics must stay JSON with the new cluster section.
func TestMetricsPrometheusExposition(t *testing.T) {
	n := startGossipNode(t, "node-a", nil, 0)
	gossipDatasets(t, n.srv)
	spec := DesignerSpec{
		Dataset: "biased",
		Oracle:  OracleSpec{Kind: "min_share", Attr: "group", Group: "protected", TopFrac: 0.25, Share: 0.3},
		Config:  ConfigSpec{Mode: "2d"},
	}
	if err := n.srv.CreateDesigner("prom-d", spec); err != nil {
		t.Fatal(err)
	}
	if err := n.srv.WaitReady(t.Context(), "prom-d"); err != nil {
		t.Fatal(err)
	}
	var got suggestionJSON
	if code := postJSON(t, n.url+"/v1/designers/prom-d/suggest", suggestRequest{Weights: []float64{0.5, 0.5}}, &got); code != http.StatusOK {
		t.Fatalf("suggest: HTTP %d", code)
	}

	resp, err := http.Get(n.url + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	out := string(raw)
	for _, want := range []string{
		`fairrank_designer_queries_total{designer="prom-d"} 1`,
		`fairrank_suggest_latency_seconds_bucket{designer="prom-d",le="+Inf"} 1`,
		`fairrank_suggest_latency_seconds_count{designer="prom-d"} 1`,
		`fairrank_suggest_latency_quantile_seconds{designer="prom-d",quantile="0.5"}`,
		`fairrank_suggest_latency_quantile_seconds{designer="prom-d",quantile="0.99"}`,
		"# TYPE fairrank_suggest_latency_seconds histogram",
		"# TYPE fairrank_gossip_rounds_total counter",
		"fairrank_handoff_pulls_total",
		"fairrank_ring_version",
		"fairrank_meta_entries",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Cumulative bucket sanity: each successive le bar must be >= the last.
	var prev float64
	seen := 0
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, `fairrank_suggest_latency_seconds_bucket{designer="prom-d"`) {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		if v < prev {
			t.Fatalf("bucket series not cumulative at %q", line)
		}
		prev = v
		seen++
	}
	if seen < 2 {
		t.Fatalf("expected a full bucket ladder, saw %d bars", seen)
	}

	// Default scrape (no format, no Accept) stays JSON and now carries the
	// cluster section.
	resp, err = http.Get(n.url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Cluster *clusterMetricsJSON `json:"cluster"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("default /metrics is not JSON: %v", err)
	}
	if doc.Cluster == nil {
		t.Fatal("JSON /metrics misses the cluster section")
	}
}
