package fairrank

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"fairrank/internal/datagen"
	"fairrank/internal/service"
)

// testServer spins up the HTTP API over a fresh Server.
func testServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewServer()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// doJSON posts (or gets) a JSON body and decodes the JSON response.
func doJSON(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	var reader *bytes.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		reader = bytes.NewReader(raw)
	} else {
		reader = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, reader)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// biasedSpec returns a small biased 2D dataset as a wire spec.
func biasedSpec(t *testing.T, seed int64) DatasetSpec {
	t.Helper()
	ds, err := datagen.Biased(80, 2, 0.5, 0.3, 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	return SpecOfDataset(ds)
}

func TestHTTPEndToEnd(t *testing.T) {
	_, ts := testServer(t)

	var created struct {
		ID string `json:"id"`
		N  int    `json:"n"`
		D  int    `json:"d"`
	}
	spec := biasedSpec(t, 11)
	if code := doJSON(t, "POST", ts.URL+"/v1/datasets", map[string]any{"id": "admissions", "dataset": spec}, &created); code != http.StatusCreated {
		t.Fatalf("create dataset: HTTP %d", code)
	}
	if created.N != 80 || created.D != 2 {
		t.Fatalf("created = %+v", created)
	}
	// Duplicate id → conflict.
	if code := doJSON(t, "POST", ts.URL+"/v1/datasets", map[string]any{"id": "admissions", "dataset": spec}, nil); code != http.StatusConflict {
		t.Fatalf("duplicate dataset: HTTP %d", code)
	}

	designer := map[string]any{
		"id": "fair-admissions",
		"spec": DesignerSpec{
			Dataset: "admissions",
			Oracle:  OracleSpec{Kind: "min_share", Attr: "group", Group: "protected", TopFrac: 0.25, Share: 0.3},
			Config:  ConfigSpec{Mode: "2d"},
		},
	}
	var status service.StatusInfo
	if code := doJSON(t, "POST", ts.URL+"/v1/designers?wait=true", designer, &status); code != http.StatusAccepted {
		t.Fatalf("create designer: HTTP %d", code)
	}
	if status.Status != service.StatusReady || status.Mode != "2d" {
		t.Fatalf("status after wait=true: %+v", status)
	}

	if code := doJSON(t, "GET", ts.URL+"/v1/designers/fair-admissions/status", nil, &status); code != http.StatusOK {
		t.Fatalf("status: HTTP %d", code)
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/designers/nope/status", nil, nil); code != http.StatusNotFound {
		t.Fatalf("unknown designer status: HTTP %d", code)
	}

	// Single suggest.
	var single suggestionJSON
	if code := doJSON(t, "POST", ts.URL+"/v1/designers/fair-admissions/suggest",
		suggestRequest{Weights: []float64{0.5, 0.5}}, &single); code != http.StatusOK {
		t.Fatalf("suggest: HTTP %d", code)
	}
	if len(single.Weights) != 2 || single.Error != "" {
		t.Fatalf("suggestion = %+v", single)
	}

	// Batch suggest.
	var batch struct {
		Results []suggestionJSON `json:"results"`
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/designers/fair-admissions/suggest",
		suggestRequest{Batch: [][]float64{{0.5, 0.5}, {0.9, 0.1}, {1, 2, 3}}}, &batch); code != http.StatusOK {
		t.Fatalf("batch suggest: HTTP %d", code)
	}
	if len(batch.Results) != 3 {
		t.Fatalf("batch results = %+v", batch)
	}
	if batch.Results[0].Error != "" || batch.Results[2].Error == "" {
		t.Fatalf("batch error placement wrong: %+v", batch.Results)
	}
	// Batch answers must equal the single-call answers.
	if batch.Results[0].Distance != single.Distance {
		t.Fatalf("batch answer %v differs from single %v", batch.Results[0], single)
	}

	// Revalidate against the designer's own dataset: healthy, no rebuild.
	var reval RevalidateResult
	if code := doJSON(t, "POST", ts.URL+"/v1/designers/fair-admissions/revalidate", map[string]any{}, &reval); code != http.StatusOK {
		t.Fatalf("revalidate: HTTP %d", code)
	}
	if !reval.Healthy || reval.Rebuilding {
		t.Fatalf("revalidate on unchanged data = %+v", reval)
	}

	// Metrics accumulate the traffic above.
	var metrics struct {
		Designers map[string]service.StatusInfo `json:"designers"`
	}
	if code := doJSON(t, "GET", ts.URL+"/metrics", nil, &metrics); code != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", code)
	}
	m := metrics.Designers["fair-admissions"].Metrics
	if m.Queries != 1 || m.Batches != 1 || m.BatchQueries != 3 {
		t.Fatalf("metrics = %+v", m)
	}

	// Malformed bodies are 400s, not panics.
	resp, err := http.Post(ts.URL+"/v1/designers/fair-admissions/suggest", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: HTTP %d", resp.StatusCode)
	}
}

// The HTTP answers must be identical to direct Designer.Suggest calls.
func TestHTTPMatchesDirectDesigner(t *testing.T) {
	srv, ts := testServer(t)
	ds, err := datagen.Biased(80, 2, 0.5, 0.3, 1, 11)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := MinShare(ds, "group", "protected", 0.25, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := NewDesigner(ds, oracle, Config{Mode: Mode2D})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddDataset("d", ds); err != nil {
		t.Fatal(err)
	}
	if err := srv.CreateDesigner("x", DesignerSpec{
		Dataset: "d",
		Oracle:  OracleSpec{Kind: "min_share", Attr: "group", Group: "protected", TopFrac: 0.25, Share: 0.3},
		Config:  ConfigSpec{Mode: "2d"},
	}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.WaitReady(ctx, "x"); err != nil {
		t.Fatal(err)
	}
	for _, w := range [][]float64{{0.5, 0.5}, {0.9, 0.1}, {0.05, 0.95}} {
		want, err := direct.Suggest(w)
		if err != nil {
			t.Fatal(err)
		}
		var got suggestionJSON
		if code := doJSON(t, "POST", fmt.Sprintf("%s/v1/designers/x/suggest", ts.URL),
			suggestRequest{Weights: w}, &got); code != http.StatusOK {
			t.Fatalf("suggest: HTTP %d", code)
		}
		if got.Distance != want.Distance || got.AlreadyFair != want.AlreadyFair {
			t.Fatalf("HTTP answer %+v differs from direct %+v", got, want)
		}
		for k := range want.Weights {
			if got.Weights[k] != want.Weights[k] {
				t.Fatalf("HTTP weights %v differ from direct %v", got.Weights, want.Weights)
			}
		}
	}
}

// Concurrent HTTP clients hammering single and batch suggests — run with
// -race in CI.
func TestHTTPConcurrentClients(t *testing.T) {
	srv, ts := testServer(t)
	ds, err := datagen.Biased(60, 2, 0.5, 0.3, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddDataset("d", ds); err != nil {
		t.Fatal(err)
	}
	if err := srv.CreateDesigner("x", DesignerSpec{
		Dataset: "d",
		Oracle:  OracleSpec{Kind: "min_share", Attr: "group", Group: "protected", TopFrac: 0.25, Share: 0.3},
	}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.WaitReady(ctx, "x"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				var body any
				if i%2 == 0 {
					body = suggestRequest{Weights: []float64{0.5, 0.5}}
				} else {
					body = suggestRequest{Batch: [][]float64{{0.4, 0.6}, {0.7, 0.3}}}
				}
				raw, _ := json.Marshal(body)
				resp, err := http.Post(ts.URL+"/v1/designers/x/suggest", "application/json", bytes.NewReader(raw))
				if err != nil {
					t.Errorf("client %d: %v", g, err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("client %d: HTTP %d", g, resp.StatusCode)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st, err := srv.DesignerStatus("x")
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Metrics.Queries + st.Metrics.BatchQueries; got != 6*10+6*10*2 {
		t.Fatalf("served %d queries, want 180", got)
	}
}

// SaveDir/LoadDir must restore datasets and designers, serving identical
// answers without a rebuild.
func TestServerSaveLoadDir(t *testing.T) {
	srv, _ := testServer(t)
	dir := t.TempDir()
	ds, err := datagen.Biased(70, 2, 0.5, 0.3, 1, 13)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddDataset("d", ds); err != nil {
		t.Fatal(err)
	}
	spec := DesignerSpec{
		Dataset: "d",
		Oracle:  OracleSpec{Kind: "min_share", Attr: "group", Group: "protected", TopFrac: 0.25, Share: 0.3},
	}
	if err := srv.CreateDesigner("x", spec); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.WaitReady(ctx, "x"); err != nil {
		t.Fatal(err)
	}
	want, err := srv.Suggest("x", []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.SaveDir(dir); err != nil {
		t.Fatal(err)
	}

	restored := NewServer()
	if err := restored.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	st, err := restored.DesignerStatus("x")
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != service.StatusReady {
		t.Fatalf("restored designer should serve from the persisted index, status %v", st.Status)
	}
	got, err := restored.Suggest("x", []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if got.Distance != want.Distance || got.Weights[0] != want.Weights[0] || got.Weights[1] != want.Weights[1] {
		t.Fatalf("restored answer %+v differs from original %+v", got, want)
	}
	// Loading an empty/missing dir is a no-op.
	if err := NewServer().LoadDir(dir + "/nope"); err != nil {
		t.Fatal(err)
	}
}

// A failed duplicate create must leave the existing designer fully intact
// (spec included — Revalidate and SaveDir depend on it), and ids that would
// escape or break the data directory are rejected up front.
func TestServerDuplicateAndBadIDs(t *testing.T) {
	srv, _ := testServer(t)
	ds, err := datagen.Biased(60, 2, 0.5, 0.3, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddDataset("d", ds); err != nil {
		t.Fatal(err)
	}
	spec := DesignerSpec{
		Dataset: "d",
		Oracle:  OracleSpec{Kind: "min_share", Attr: "group", Group: "protected", TopFrac: 0.25, Share: 0.3},
	}
	if err := srv.CreateDesigner("x", spec); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.WaitReady(ctx, "x"); err != nil {
		t.Fatal(err)
	}
	if err := srv.CreateDesigner("x", spec); err == nil {
		t.Fatal("duplicate designer id should error")
	}
	// The original designer still has its spec: Revalidate works and SaveDir
	// persists it.
	if _, err := srv.Revalidate("x", ""); err != nil {
		t.Fatalf("revalidate after failed duplicate create: %v", err)
	}
	dir := t.TempDir()
	if err := srv.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	restored := NewServer()
	if err := restored.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := restored.DesignerStatus("x"); err != nil {
		t.Fatalf("designer lost after duplicate-create + save/load: %v", err)
	}
	for _, bad := range []string{"", "../evil", "a/b", "a b", ".hidden", "x\x00y"} {
		if err := srv.AddDataset(bad, ds); err == nil {
			t.Errorf("dataset id %q should be rejected", bad)
		}
		if err := srv.CreateDesigner(bad, spec); err == nil {
			t.Errorf("designer id %q should be rejected", bad)
		}
	}
}

// TestServerRevalidateDriftTriggersRebuild runs the drift loop — revalidate
// against tomorrow's data, rebuild-and-swap on failure — for a designer in
// each of the three engine modes: every engine implements Revalidate through
// the internal/engine interface, so the HTTP 409 the non-2D modes used to
// return is gone.
func TestServerRevalidateDriftTriggersRebuild(t *testing.T) {
	for _, tc := range []struct {
		mode   string
		config ConfigSpec
	}{
		{mode: "2d", config: ConfigSpec{Mode: "2d"}},
		// Capped arrangement on purpose: its labels are approximate, and
		// the witness-baseline filter is what keeps revalidate healthy on
		// unchanged data instead of triggering rebuilds forever.
		{mode: "exact", config: ConfigSpec{Mode: "exact", MaxHyperplanes: 300}},
		{mode: "approx", config: ConfigSpec{Mode: "approx", Cells: 200, MaxHyperplanes: 300}},
	} {
		t.Run(tc.mode, func(t *testing.T) {
			srv, _ := testServer(t)
			ds, err := datagen.Biased(100, 2, 0.5, 0.25, 1, 42)
			if err != nil {
				t.Fatal(err)
			}
			drifted, err := datagen.Biased(100, 2, 0.5, 0.9, 1, 42)
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.AddDataset("live", ds); err != nil {
				t.Fatal(err)
			}
			if err := srv.AddDataset("tomorrow", drifted); err != nil {
				t.Fatal(err)
			}
			if err := srv.CreateDesigner("x", DesignerSpec{
				Dataset: "live",
				Oracle:  OracleSpec{Kind: "min_share", Attr: "group", Group: "protected", TopFrac: 0.2, Share: 0.4},
				Config:  tc.config,
			}); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			if err := srv.WaitReady(ctx, "x"); err != nil {
				t.Fatal(err)
			}
			d, _ := srv.DesignerStatus("x")
			if d.Mode != tc.mode {
				t.Fatalf("mode = %v, want %v", d.Mode, tc.mode)
			}
			res, err := srv.Revalidate("x", "")
			if err != nil {
				t.Fatal(err)
			}
			if !res.Healthy {
				t.Fatalf("unchanged data should revalidate cleanly: %+v", res)
			}
			// Heavily drifted data: not guaranteed to break every probe, but
			// when it does, a rebuild must start; either way the call must
			// succeed and the designer must keep serving.
			res, err = srv.Revalidate("x", "tomorrow")
			if err != nil {
				t.Fatal(err)
			}
			if !res.Healthy {
				if !res.Rebuilding {
					t.Fatalf("drifted revalidate must trigger a rebuild: %+v", res)
				}
				if err := srv.WaitReady(ctx, "x"); err != nil {
					t.Fatal(err)
				}
				// The rebuild repointed the designer at the drifted dataset,
				// so a fresh check against it must now come back healthy.
				res, err = srv.Revalidate("x", "tomorrow")
				if err != nil {
					t.Fatal(err)
				}
				if !res.Healthy {
					t.Fatalf("rebuild did not repoint at the drifted dataset: %+v", res)
				}
			}
			if _, err := srv.Suggest("x", []float64{0.5, 0.5}); err != nil {
				t.Fatalf("designer stopped serving after revalidate: %v", err)
			}
		})
	}
}

// readBody returns exactly the declared bytes for bodies on both sides of
// the up-front buffer bound, however the reader splits them, and answers 400
// for a body shorter than its Content-Length.
func TestReadBodyDeclaredLength(t *testing.T) {
	for _, n := range []int{0, 1, 100, maxUpfrontBody - 1, maxUpfrontBody, maxUpfrontBody + 1, 3*maxUpfrontBody + 7} {
		want := make([]byte, n)
		for i := range want {
			want[i] = byte(i*7 + i>>11)
		}
		req := httptest.NewRequest("POST", "/", iotest.HalfReader(bytes.NewReader(want)))
		req.ContentLength = int64(n)
		got, ok := readBody(httptest.NewRecorder(), req)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("n=%d: readBody ok=%v, %d bytes, equal=%v", n, ok, len(got), bytes.Equal(got, want))
		}
	}
	req := httptest.NewRequest("POST", "/", strings.NewReader("short"))
	req.ContentLength = 10
	rec := httptest.NewRecorder()
	if _, ok := readBody(rec, req); ok || rec.Code != http.StatusBadRequest {
		t.Fatalf("short body: ok=%v, HTTP %d; want a 400", ok, rec.Code)
	}
}

// A client that declares the largest allowed body but sends only a few
// bytes holds about as much memory as it sent, not its declared length.
func TestReadBodyDeclaredLengthAllocatesAsBytesArrive(t *testing.T) {
	req := httptest.NewRequest("POST", "/", strings.NewReader(`{"weights":[1,2]}`))
	req.ContentLength = maxBodyBytes
	var ok bool
	got := allocatedBytes(func() { _, ok = readBody(httptest.NewRecorder(), req) })
	if ok {
		t.Fatal("accepted a body shorter than its Content-Length")
	}
	if got > 2*maxUpfrontBody {
		t.Errorf("a %d-byte declared length with a 17-byte body allocated %d bytes", maxBodyBytes, got)
	}
}
