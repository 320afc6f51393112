package fairrank

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"

	"fairrank/internal/datagen"
)

// suggestionJSON is the wire shape of one answered query, as encoding/json
// sees it: the reference the hand-written encoder is held to, and the shape
// HTTP tests decode replies into.
type suggestionJSON struct {
	Weights     []float64 `json:"weights,omitempty"`
	Distance    float64   `json:"distance"`
	AlreadyFair bool      `json:"already_fair"`
	Error       string    `json:"error,omitempty"`
}

func wireSuggestion(s *Suggestion) suggestionJSON {
	return suggestionJSON{Weights: s.Weights, Distance: s.Distance, AlreadyFair: s.AlreadyFair}
}

// marshalLine is what json.Encoder writes for v: the encoding plus "\n".
func marshalLine(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	return append(b, '\n'), err
}

// FuzzSuggestBody holds the suggest codec to encoding/json. Decoding: for
// any body, decodeSuggest and json.Unmarshal accept or reject together,
// with the same error text, and accepted bodies yield the same slices (nil
// or not) with bit-identical floats. Encoding: the decoded floats, and the
// body's bytes reinterpreted as float64s (reaching NaN, ±Inf and
// subnormals), encode to json.Marshal's bytes plus the newline, or fail
// exactly when json.Marshal fails; the body itself serves as an error
// message, exercising every string escape.
func FuzzSuggestBody(f *testing.F) {
	for _, seed := range []string{
		`{"weights":[-0,5e-324,1e-7,1e21,1E+2,0.5]}`,
		`{"weights":[01]}`, `{"weights":[+1]}`, `{"weights":[.5]}`, `{"weights":[1.]}`,
		`{"weights":[1e400]}`, `{"weights":[1e-400]}`, `{"weights":[NaN]}`, `{"weights":[-]}`,
		`{"weights":[1],"weights":[2]}`, `{"Weights":[1,2]}`, `{"weights":null}`, `null`, `{}`,
		`{"weights":[1],"batch":[[1]]}`, `{"weights":[1,2]} x`, `{"weights":[1,2]}{}`,
		`{"batch":[[0.5,0.5],[1,2,3],[]]}`, `{"batch":[]}`, `{"weights":[]}`, `{"batch":[null]}`,
		" { \"batch\" : [ [ 1 , 2 ] ,\n[3e-7,\t4] ] } ", `{"batch":[[1,2],]}`, `{"weights":[1,2,]}`,
		`{"weig\u0068ts":[1]}`, "{\"weights\":[1]}\xff", `<script>&"` + "\u2028\x01\xc3",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want suggestRequest
		wantErr := json.Unmarshal(body, &want)
		got, gotErr := decodeSuggest(body)
		if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
			t.Fatalf("body %q: decodeSuggest error %v, json.Unmarshal error %v", body, gotErr, wantErr)
		}
		if fast, ok := scanSuggest(body); ok && (wantErr != nil || !sameRequest(fast, want)) {
			t.Fatalf("body %q: fast path accepted %+v, json.Unmarshal gives %+v, %v", body, fast, want, wantErr)
		}
		if wantErr == nil && !sameRequest(got, want) {
			t.Fatalf("body %q: decodeSuggest %+v, json.Unmarshal %+v", body, got, want)
		}
		floats := append([]float64(nil), got.Weights...)
		for _, row := range got.Batch {
			floats = append(floats, row...)
		}
		checkEncoding(t, floats, string(body))
		var raw []float64
		for b := body; len(b) >= 8; b = b[8:] {
			raw = append(raw, math.Float64frombits(binary.LittleEndian.Uint64(b)))
		}
		checkEncoding(t, raw, string(body))
	})
}

// The fast path must take every canonical body — numbers in any JSON
// spelling strconv produces, any whitespace — and agree with
// json.Unmarshal bit for bit; the fuzz target covers the bodies it declines.
func TestScanSuggestMatchesUnmarshal(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	ws := []string{"", " ", "\n", "\t ", "\r\n"}
	sp := func() string { return ws[r.Intn(len(ws))] }
	num := func() string {
		f := math.Float64frombits(r.Uint64())
		for math.IsNaN(f) || math.IsInf(f, 0) {
			f = math.Float64frombits(r.Uint64())
		}
		if r.Intn(3) == 0 {
			f = r.NormFloat64()
		}
		tok := strconv.FormatFloat(f, "efg"[r.Intn(3)], r.Intn(20)-1, 64)
		if r.Intn(4) == 0 {
			tok = strings.Replace(tok, "e", "E", 1)
		}
		return tok
	}
	row := func() string {
		var b strings.Builder
		b.WriteString("[" + sp())
		for k, n := 0, r.Intn(5); k < n; k++ {
			if k > 0 {
				b.WriteString(sp() + "," + sp())
			}
			b.WriteString(num())
		}
		return b.String() + sp() + "]"
	}
	for it := 0; it < 3000; it++ {
		var body string
		if r.Intn(2) == 0 {
			body = sp() + "{" + sp() + `"weights"` + sp() + ":" + sp() + row() + sp() + "}" + sp()
		} else {
			rows := make([]string, r.Intn(5))
			for k := range rows {
				rows[k] = row()
			}
			body = sp() + "{" + sp() + `"batch"` + sp() + ":" + sp() + "[" + sp() + strings.Join(rows, sp()+","+sp()) + sp() + "]" + sp() + "}" + sp()
		}
		var want suggestRequest
		wantErr := json.Unmarshal([]byte(body), &want)
		got, ok := scanSuggest([]byte(body))
		if wantErr != nil {
			if ok {
				t.Fatalf("body %q: fast path accepted what json.Unmarshal rejects (%v)", body, wantErr)
			}
			continue // an out-of-range number: left to encoding/json
		}
		if !ok || !sameRequest(got, want) {
			t.Fatalf("body %q: fast path (%v) %+v, json.Unmarshal %+v", body, ok, got, want)
		}
	}
}

// allocatedBytes reports the heap bytes f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A malformed body is declined before anything is allocated for its
// contents: the fast path sizes its slabs only from a body that passed the
// grammar check, so a few MiB of '[' or commas cannot make it allocate
// many times the body (encoding/json rejects such bodies without
// allocating either).
func TestDecodeSuggestMalformedBodiesAllocateLittle(t *testing.T) {
	const n = 4 << 20
	bodies := map[string][]byte{
		"deep brackets":       append([]byte(`{"batch":`), bytes.Repeat([]byte("["), n)...),
		"only commas":         bytes.Repeat([]byte(","), n),
		"weights, bad ending": append(append([]byte(`{"weights":[`), bytes.Repeat([]byte("0,"), n/2)...), "]}"...),
		"batch, bad ending":   append(append([]byte(`{"batch":[`), bytes.Repeat([]byte("[0],"), n/4)...), "x]}"...),
	}
	for name, body := range bodies {
		var err error
		got := allocatedBytes(func() { _, err = decodeSuggest(body) })
		if err == nil {
			t.Fatalf("%s: decoded a malformed body", name)
		}
		if got > uint64(len(body))/4 {
			t.Errorf("%s: decoding a %d-byte malformed body allocated %d bytes", name, len(body), got)
		}
	}
}

func sameRequest(a, b suggestRequest) bool {
	if (a.Batch == nil) != (b.Batch == nil) || len(a.Batch) != len(b.Batch) {
		return false
	}
	for i := range a.Batch {
		if !sameFloats(a.Batch[i], b.Batch[i]) {
			return false
		}
	}
	return sameFloats(a.Weights, b.Weights)
}

func sameFloats(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkEncoding encodes an answer built from floats, a batch holding it and
// an error entry carrying msg, and an error body carrying msg, each by hand
// and by encoding/json, and requires identical bytes or a shared failure.
func checkEncoding(t *testing.T, floats []float64, msg string) {
	t.Helper()
	s := &Suggestion{Weights: floats, AlreadyFair: len(floats)%2 == 1}
	if len(floats) > 0 {
		s.Distance = floats[len(floats)-1]
	}
	compare := func(what string, got []byte, gotErr error, ref any) {
		t.Helper()
		want, wantErr := marshalLine(ref)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%s of %v: encoder error %v, encoding/json error %v", what, floats, gotErr, wantErr)
		}
		if gotErr == nil && !bytes.Equal(got, want) {
			t.Fatalf("%s of %v:\n got %s\nwant %s", what, floats, got, want)
		}
	}
	got, err := appendSuggestionBody(nil, s)
	compare("single answer", got, err, wireSuggestion(s))
	got, err = appendResults(nil, []BatchResult{{Suggestion: s}, {Err: errors.New(msg)}})
	compare("batch", got, err, map[string]any{"results": []suggestionJSON{wireSuggestion(s), {Error: msg}}})
	compare("error body", appendErrorBody(nil, msg), nil, map[string]string{"error": msg})
}

// codecFixture serves one designer per engine and keeps the library
// designers built from the same specs, the reference every HTTP answer is
// compared against.
type codecFixture struct {
	srv  *Server
	refs map[string]*Designer
	dims map[string]int
}

func newCodecFixture(t *testing.T) *codecFixture {
	t.Helper()
	fx := &codecFixture{srv: NewServer(), refs: map[string]*Designer{}, dims: map[string]int{}}
	t.Cleanup(fx.srv.Close)
	oracle := OracleSpec{Kind: "min_share", Attr: "group", Group: "protected", TopFrac: 0.2, Share: 0.35}
	for _, c := range []struct {
		mode  string
		n, d  int
		local ConfigSpec
	}{
		{"2d", 80, 2, ConfigSpec{Mode: "2d"}},
		{"approx", 40, 3, ConfigSpec{Mode: "approx", Cells: 16, MaxHyperplanes: 40}},
		{"exact", 40, 2, ConfigSpec{Mode: "exact", MaxHyperplanes: 60}},
	} {
		ds, err := datagen.Biased(c.n, c.d, 0.5, 0.3, 1, 17)
		if err != nil {
			t.Fatal(err)
		}
		if err := fx.srv.AddDataset(c.mode, ds); err != nil {
			t.Fatal(err)
		}
		spec := DesignerSpec{Dataset: c.mode, Oracle: oracle, Config: c.local}
		if err := fx.srv.CreateDesigner(c.mode, spec); err != nil {
			t.Fatal(err)
		}
		if err := fx.srv.WaitReady(context.Background(), c.mode); err != nil {
			t.Fatal(err)
		}
		o, err := spec.Oracle.Build(ds)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := spec.Config.Build()
		if err != nil {
			t.Fatal(err)
		}
		if fx.refs[c.mode], err = NewDesigner(ds, o, cfg); err != nil {
			t.Fatal(err)
		}
		fx.dims[c.mode] = c.d
	}
	return fx
}

// post sends a suggest body through the in-process handler.
func (fx *codecFixture) post(id, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	fx.srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/designers/"+id+"/suggest", strings.NewReader(body)))
	return rec
}

// fan returns k directions spread over the positive orthant of dimension d.
func fan(d, k int) [][]float64 {
	out := make([][]float64, k)
	for j := range out {
		theta := (float64(j) + 0.5) / float64(k) * math.Pi / 2
		w := make([]float64, d)
		for i := range w {
			w[i] = 0.3 + 0.7*math.Abs(math.Sin(theta*float64(i+1)))
		}
		w[0], w[d-1] = math.Cos(theta), math.Sin(theta)
		out[j] = w
	}
	return out
}

// Every engine's suggest replies — single answers, batches with error
// entries, single-query errors — are byte-identical to encoding/json's
// encoding of the library's answers.
func TestSuggestBodiesMatchEncodingJSON(t *testing.T) {
	fx := newCodecFixture(t)
	for mode, ref := range fx.refs {
		qs := fan(fx.dims[mode], 12)
		qs = append(qs, []float64{1, 2, 3, 4}, make([]float64, fx.dims[mode]))
		results := ref.SuggestBatch(qs)
		unfair, failed := 0, 0
		wire := make([]suggestionJSON, len(results))
		for i, r := range results {
			if r.Err != nil {
				failed++
				wire[i] = suggestionJSON{Error: r.Err.Error()}
				continue
			}
			if !r.Suggestion.AlreadyFair {
				unfair++
			}
			wire[i] = wireSuggestion(r.Suggestion)
		}
		if unfair == 0 || failed == 0 {
			t.Fatalf("%s: fixture has %d unfair queries and %d errors; want some of each", mode, unfair, failed)
		}
		body, _ := json.Marshal(map[string][][]float64{"batch": qs})
		rec := fx.post(mode, string(body))
		want, err := marshalLine(map[string]any{"results": wire})
		if err != nil {
			t.Fatal(err)
		}
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("%s batch: HTTP %d\n got %s\nwant %s", mode, rec.Code, rec.Body.Bytes(), want)
		}
		for i, q := range qs {
			body, _ := json.Marshal(map[string][]float64{"weights": q})
			rec := fx.post(mode, string(body))
			code, ref := http.StatusOK, any(wire[i])
			if results[i].Err != nil {
				code, ref = errorStatus(results[i].Err), map[string]string{"error": results[i].Err.Error()}
			}
			want, _ := marshalLine(ref)
			if rec.Code != code || !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("%s single %v: HTTP %d %s, want HTTP %d %s", mode, q, rec.Code, rec.Body.Bytes(), code, want)
			}
		}
	}
}

// A weight vector whose norm overflows (or with a non-finite component)
// names no ray. Every engine rejects it: a 400 with the reason for a single
// query, a per-slot error in a batch whose other queries are still
// answered — never a 200 with an empty body.
func TestSuggestNonFiniteWeightsAllEngines(t *testing.T) {
	fx := newCodecFixture(t)
	for mode, ref := range fx.refs {
		d := fx.dims[mode]
		huge := strings.TrimSuffix(strings.Repeat("1e308,", d), ",")
		rec := fx.post(mode, `{"weights":[`+huge+`]}`)
		want, _ := marshalLine(map[string]string{"error": ErrNonFiniteWeights.Error()})
		if rec.Code != http.StatusBadRequest || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("%s single: HTTP %d %q, want HTTP 400 %q", mode, rec.Code, rec.Body.Bytes(), want)
		}
		valid := fan(d, 1)[0]
		rec = fx.post(mode, fmt.Sprintf(`{"batch":[[%s],%s]}`, huge, mustJSON(t, valid)))
		sug, err := ref.Suggest(valid)
		if err != nil {
			t.Fatal(err)
		}
		want, _ = marshalLine(map[string]any{"results": []suggestionJSON{{Error: ErrNonFiniteWeights.Error()}, wireSuggestion(sug)}})
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("%s batch: HTTP %d %q, want HTTP 200 %q", mode, rec.Code, rec.Body.Bytes(), want)
		}
		for _, w := range [][]float64{{math.NaN(), 1, 1}, {math.Inf(1), 1, 1}} {
			if _, err := ref.Suggest(w[:d]); !errors.Is(err, ErrNonFiniteWeights) {
				t.Errorf("%s: Suggest(%v) error %v, want ErrNonFiniteWeights", mode, w[:d], err)
			}
		}
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// A non-finite number that still reaches the encoder turns into a 500 with
// a JSON error body, never a 200 with an empty or truncated body.
func TestEncoderRejectsNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		rec := httptest.NewRecorder()
		writeResults(rec, []BatchResult{{Suggestion: &Suggestion{Weights: []float64{1, f}}}})
		var body struct{ Error string }
		if rec.Code != http.StatusInternalServerError || json.Unmarshal(rec.Body.Bytes(), &body) != nil || body.Error == "" {
			t.Errorf("weights [1 %v]: HTTP %d %q, want a 500 JSON error", f, rec.Code, rec.Body.Bytes())
		}
	}
}

// discardWriter is a ResponseWriter that keeps nothing, so an allocation
// count measures the handler alone.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// The suggest handler allocates a fixed number of objects per request,
// independent of batch size: the request is read into one buffer, decoded
// into one float slab, answered by the planner and kernels with per-batch
// arenas, and encoded into a pooled buffer.
func TestSuggestHandlerAllocsIndependentOfBatchSize(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	fx := newCodecFixture(t)
	h := fx.srv.Handler()
	allocs := map[int]float64{}
	for _, n := range []int{16, 1024} {
		body := []byte(mustJSON(t, map[string][][]float64{"batch": fan(2, n)}))
		rdr := bytes.NewReader(body)
		req := httptest.NewRequest("POST", "/v1/designers/2d/suggest", rdr)
		req.Body = io.NopCloser(rdr)
		w := &discardWriter{h: http.Header{}}
		serve := func() {
			rdr.Reset(body)
			h.ServeHTTP(w, req)
		}
		for i := 0; i < 40; i++ { // settle the planner's cost estimate
			serve()
		}
		if w.code != http.StatusOK {
			t.Fatalf("batch of %d: HTTP %d", n, w.code)
		}
		// Collection is held off while counting: a GC empties the sync.Pools
		// the handler draws from, and larger batches trigger more of them,
		// so the refills would be the collector's allocations, not the
		// request's.
		gc := debug.SetGCPercent(-1)
		allocs[n] = testing.AllocsPerRun(64, serve)
		debug.SetGCPercent(gc)
	}
	if allocs[16] != allocs[1024] {
		t.Errorf("handler allocates %v objects for a 16-query batch and %v for a 1024-query batch; want the same", allocs[16], allocs[1024])
	}
}

// kernelNote must print what fmt.Sprintf printed for the same numbers.
func TestKernelNoteMatchesSprintf(t *testing.T) {
	for _, n := range []int{0, 9, 1024, 1 << 30} {
		if got, want := kernelNote(n, int64(n/3)), fmt.Sprintf("queries=%d resume_hits=%d", n, n/3); got != want {
			t.Errorf("kernelNote = %q, want %q", got, want)
		}
	}
}
